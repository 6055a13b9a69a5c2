package persist

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernel"
)

// recordingFS is a memory file system that logs every mutating call in
// order, so a test can rebuild the directory as a crash after any prefix
// of them would leave it.
type recordingFS struct {
	memFS
	ops []fsOp
}

// fsOp is one recorded mutation. commits is the generation whose commit
// marker the operation lands, or 0.
type fsOp struct {
	desc    string
	apply   func(memFS) error
	commits uint64
}

func (r *recordingFS) writeFile(name string, data []byte) error {
	r.ops = append(r.ops, fsOp{desc: "write " + name,
		apply: func(m memFS) error { return m.writeFile(name, data) }})
	return r.memFS.writeFile(name, data)
}

func (r *recordingFS) rename(oldName, newName string) error {
	gen, _ := markerGen(newName)
	r.ops = append(r.ops, fsOp{desc: "rename " + oldName + " " + newName, commits: gen,
		apply: func(m memFS) error { return m.rename(oldName, newName) }})
	return r.memFS.rename(oldName, newName)
}

func (r *recordingFS) remove(name string) error {
	r.ops = append(r.ops, fsOp{desc: "remove " + name,
		apply: func(m memFS) error { return m.remove(name) }})
	return r.memFS.remove(name)
}

// TestEveryCrashPointRecovers drives a 2-node store the way the
// multicomputer does — WriteGeneration, then Prune(2), six generations
// with a base every third — then crashes it after every prefix of its
// file operations, prunes included. Before the first commit marker a
// load must fail with a typed error; after it, the load must return the
// newest generation whose marker landed, materialized to exactly the
// images captured at that generation. This is the prefix half of the
// ALICE method (Pillai et al., OSDI'14); reordered operations are not
// modelled.
func TestEveryCrashPointRecovers(t *testing.T) {
	const gens, baseEvery, keep = 6, 3, 2
	rec := &recordingFS{memFS: memFS{}}
	st := newStore(rec, "memory", 2)
	k0, _ := persistKernel(t)
	k1, _ := persistKernel(t)
	ks := []*kernel.Kernel{k0, k1}
	caps := make([]*kernel.CaptureState, len(ks))
	want := map[uint64][]*kernel.Checkpoint{}
	var cycle uint64
	for gen := uint64(1); gen <= gens; gen++ {
		cps := make([]*kernel.Checkpoint, len(ks))
		for i, k := range ks {
			cycle = k.Run(60)
			prev := caps[i]
			if (gen-1)%baseEvery == 0 {
				prev = nil
			}
			cp, ncap, err := k.CheckpointIncremental(prev)
			if err != nil {
				t.Fatal(err)
			}
			cps[i], caps[i] = cp, ncap
			full, err := k.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			want[gen] = append(want[gen], full)
		}
		if err := st.WriteGeneration(gen, gen-1, cycle, cps); err != nil {
			t.Fatal(err)
		}
		if err := st.Prune(keep); err != nil {
			t.Fatal(err)
		}
	}
	if gs, _ := st.Generations(); len(gs) >= gens {
		t.Fatalf("prune removed nothing: generations %v", gs)
	}

	var committed uint64
	for n := 0; n <= len(rec.ops); n++ {
		if n > 0 && rec.ops[n-1].commits > committed {
			committed = rec.ops[n-1].commits
		}
		crashed := memFS{}
		for _, op := range rec.ops[:n] {
			if err := op.apply(crashed); err != nil {
				t.Fatalf("replaying %q: %v", op.desc, err)
			}
		}
		at := "before any operation"
		if n > 0 {
			at = fmt.Sprintf("after %q (op %d of %d)", rec.ops[n-1].desc, n, len(rec.ops))
		}
		cps, gen, _, err := newStore(crashed, "memory", 2).LoadNewestIntact()
		if committed == 0 {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("crash %s: load = generation %d, %v; want a *FormatError", at, gen, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("crash %s: %v; want generation %d", at, err, committed)
		}
		if gen != committed {
			t.Fatalf("crash %s: restored generation %d, want %d", at, gen, committed)
		}
		if !reflect.DeepEqual(cps, want[gen]) {
			t.Fatalf("crash %s: generation %d materialized differently from its capture", at, gen)
		}
	}
	if committed != gens {
		t.Fatalf("last commit seen was generation %d, want %d", committed, gens)
	}
}

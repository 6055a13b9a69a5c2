package kernel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/word"
)

// A checkpoint shares its pages with the memory it was taken from and
// with every kernel restored from it (mem.Page is copy-on-write). These
// tests hold the image fixed while all of them write.

// shareProg stores its loop counter, a running sum and a capability
// into the data segment in r1 on every trip.
const shareProg = `
	ldi r2, 60
	ldi r4, 0
loop:
	st   r1, 0, r2
	add  r4, r4, r2
	st   r1, 8, r4
	leai r6, r1, 16
	st   r6, 0, r6
	subi r2, r2, 1
	bnez r2, loop
	halt
`

// shareKernel boots shareProg over a 4 KB segment and runs it partway.
func shareKernel(t *testing.T) (*Kernel, core.Pointer) {
	t.Helper()
	k := testKernel(t)
	ip, err := k.LoadProgram(mustAssemble(shareProg), false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(3, ip, map[int]word.Word{1: seg.Word()}); err != nil {
		t.Fatal(err)
	}
	for range 120 {
		k.M.Step()
	}
	if k.M.Done() {
		t.Fatal("program finished before the checkpoint")
	}
	return k, seg
}

// imageWords copies out every word of cp's pages, resident then
// swapped, keyed by page.
func imageWords(cp *Checkpoint) map[string][]word.Word {
	out := make(map[string][]word.Word)
	for kind, imgs := range map[string][]PageImage{"resident": cp.Resident, "swapped": cp.Swapped} {
		for _, img := range imgs {
			ws := make([]word.Word, mem.PageWords)
			for i := range ws {
				ws[i] = img.Page.Word(i)
			}
			out[fmt.Sprintf("%s %#x@%#x", kind, img.VAddr, img.Frame)] = ws
		}
	}
	return out
}

func restoreCfg() machine.Config {
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	return cfg
}

// TestCheckpointSurvivesRunOn: the machine a checkpoint came from runs
// to the end, writing the pages the image shares, and the image still
// holds what it captured.
func TestCheckpointSurvivesRunOn(t *testing.T) {
	k, seg := shareKernel(t)
	cp, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := imageWords(cp)
	before, err := k.M.Space.ReadWord(seg.Base() + 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if !k.M.Done() {
		t.Fatal("program did not finish")
	}
	after, err := k.M.Space.ReadWord(seg.Base() + 8)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatalf("the run never rewrote the segment (word %v)", after)
	}
	if got := imageWords(cp); !reflect.DeepEqual(got, want) {
		t.Fatal("the checkpoint changed while its machine ran on")
	}
}

// TestCheckpointSurvivesRestoredWrites: two kernels restored from one
// image write different data at the same address; each reads its own,
// and the image holds what it captured.
func TestCheckpointSurvivesRestoredWrites(t *testing.T) {
	k, seg := shareKernel(t)
	cp, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := imageWords(cp)
	var ks [2]*Kernel
	for i := range ks {
		if ks[i], err = Restore(restoreCfg(), cp); err != nil {
			t.Fatal(err)
		}
		if err := ks[i].M.Space.WriteWord(seg.Base()+64, word.FromInt(int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range ks {
		w, err := k.M.Space.ReadWord(seg.Base() + 64)
		if err != nil {
			t.Fatal(err)
		}
		if w.Int() != int64(100+i) {
			t.Errorf("restored kernel %d reads %v, want %d", i, w, 100+i)
		}
		k.Run(1_000_000)
	}
	if got := imageWords(cp); !reflect.DeepEqual(got, want) {
		t.Fatal("the checkpoint changed under the kernels restored from it")
	}
}

// TestRestoreConcurrent restores one image into two kernels on two
// goroutines, runs both to the end and checkpoints each: the pages they
// share are only read (a capture marks only a private page shared), so
// `go test -race` (make race) finds no race, and both finish where a
// kernel that never stopped does.
func TestRestoreConcurrent(t *testing.T) {
	k, _ := shareKernel(t)
	cp, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := imageWords(cp)
	k.Run(1_000_000)
	ref := k.M.Threads()[0].Regs
	var wg sync.WaitGroup
	regs := make([][16]word.Word, 2)
	errs := make([]error, 2)
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := Restore(restoreCfg(), cp)
			if err != nil {
				errs[i] = err
				return
			}
			k.Run(1_000_000)
			if th := k.M.Threads()[0]; th.State != machine.Halted {
				errs[i] = fmt.Errorf("restored kernel %d ended %v", i, th.State)
				return
			}
			regs[i] = k.M.Threads()[0].Regs
			_, errs[i] = k.Checkpoint()
		}()
	}
	wg.Wait()
	for i := range 2 {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if regs[i] != ref {
			t.Errorf("restored kernel %d: registers %v, want %v", i, regs[i], ref)
		}
	}
	if got := imageWords(cp); !reflect.DeepEqual(got, want) {
		t.Fatal("the checkpoint changed under the kernels restored from it")
	}
}

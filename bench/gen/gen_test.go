package gen

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/word"
)

// all returns every program the seed generates, mesh nodes included.
func all(seed uint64) []Program {
	out := Corpus(seed)
	for _, job := range Domains(seed) {
		out = append(out, job...)
	}
	for _, job := range Mesh(seed) {
		for _, n := range job {
			out = append(out, n.Program)
		}
	}
	for _, j := range Ckpt(seed) {
		out = append(out, j.Program)
	}
	return out
}

func TestSameSeedSameSources(t *testing.T) {
	a, b := all(1), all(1)
	if len(a) != len(b) {
		t.Fatalf("%d programs, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Name != b[i].Name {
			t.Fatalf("%s: seed 1 generated two different sources", a[i].Name)
		}
	}
	if fmt.Sprint(Ckpt(1)) != fmt.Sprint(Ckpt(1)) || fmt.Sprint(Mesh(1)) != fmt.Sprint(Mesh(1)) {
		t.Fatal("job parameters differ for the same seed")
	}
}

func TestDifferentSeedsDifferentSources(t *testing.T) {
	sources := func(seed uint64) map[string]string {
		m := map[string]string{}
		for _, p := range all(seed) {
			m[p.Name] = p.Source
		}
		return m
	}
	a, b := sources(1), sources(2)
	for _, group := range []string{"alu-00", "sweep-01", "chase-02", "derive-03", "byte-04", "dm-00-t0", "mesh-00-n0", "ckpt-00"} {
		if a[group] == b[group] {
			t.Errorf("%s: seeds 1 and 2 generated the same source", group)
		}
	}
}

func TestProgramsAssembleAndVerify(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, p := range all(seed) {
			prog, err := asm.AssembleNamed(p.Name, p.Source)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name, err)
			}
			if rep := capverify.Verify(prog, capverify.Config{DataBytes: p.DataBytes}); rep.HasFault() {
				t.Fatalf("seed %d %s: provable fault %v", seed, p.Name, rep.Faults()[0])
			}
		}
	}
}

func TestParametersInStatedRanges(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, p := range Corpus(seed) {
			if p.DataBytes < CorpusMinWS || p.DataBytes > CorpusMaxWS || p.WorkingSet > p.DataBytes {
				t.Errorf("%s: data %d, working set %d outside %d..%d", p.Name, p.DataBytes, p.WorkingSet, CorpusMinWS, CorpusMaxWS)
			}
			if p.Instr < CorpusInstr*9/10 || p.Instr > CorpusInstr*11/10 {
				t.Errorf("%s: %d instructions, want about %d", p.Name, p.Instr, CorpusInstr)
			}
		}
		for _, job := range Domains(seed) {
			if len(job) != DomainsThreads {
				t.Fatalf("domains job has %d threads", len(job))
			}
			for _, p := range job {
				if p.DataBytes < DomainsMinWS || p.DataBytes > DomainsMaxWS {
					t.Errorf("%s: segment %d outside %d..%d", p.Name, p.DataBytes, DomainsMinWS, DomainsMaxWS)
				}
				if r := float64(p.Reads) / float64(p.Writes); r < 1 || r > 3 {
					t.Errorf("%s: read:write %d:%d outside 1:1..3:1", p.Name, p.Reads, p.Writes)
				}
				if p.Stride%8 != 0 || p.Stride < uint64(8*(p.Reads+p.Writes)) {
					t.Errorf("%s: stride %d", p.Name, p.Stride)
				}
			}
		}
		for _, job := range Mesh(seed) {
			if len(job) != MeshNodes {
				t.Fatalf("mesh job has %d nodes", len(job))
			}
			for i, n := range job {
				if n.Period < MeshMinPeriod || n.Period > MeshMaxPeriod {
					t.Errorf("%s: period %d outside %d..%d", n.Name, n.Period, MeshMinPeriod, MeshMaxPeriod)
				}
				if n.LoadFrom == i || n.StoreTo == i || n.LoadFrom >= MeshNodes || n.StoreTo >= MeshNodes {
					t.Errorf("%s: remote targets %d/%d", n.Name, n.LoadFrom, n.StoreTo)
				}
			}
		}
		for _, j := range Ckpt(seed) {
			if j.WorkingSet < CkptMinWS || j.WorkingSet > CkptMaxWS {
				t.Errorf("%s: working set %d outside %d..%d", j.Name, j.WorkingSet, CkptMinWS, CkptMaxWS)
			}
			if j.DirtyFrac < CkptMinDirty-0.005 || j.DirtyFrac > CkptMaxDirty+0.005 {
				t.Errorf("%s: dirty fraction %.3f outside %.2f..%.2f", j.Name, j.DirtyFrac, CkptMinDirty, CkptMaxDirty)
			}
			if j.MigrateAt < CkptInterval || j.MigrateAt >= j.Instr/2 {
				t.Errorf("%s: migrates at cycle %d, not between the first capture and the middle of %d instructions", j.Name, j.MigrateAt, j.Instr)
			}
		}
	}
}

// TestProgramsHaltOnInterpreter runs every single-thread program of seed
// 1 alone on the default machine with the translator off: each must halt
// within its budget with the r4 and instruction count its model
// predicts. (Mesh programs need the mesh; the harness tests run them.)
func TestProgramsHaltOnInterpreter(t *testing.T) {
	var progs []Program
	progs = append(progs, Corpus(1)...)
	for _, job := range Domains(1)[:2] {
		progs = append(progs, job...)
	}
	for _, j := range Ckpt(1)[:2] {
		progs = append(progs, j.Program)
	}
	for _, p := range progs {
		prog, err := asm.AssembleNamed(p.Name, p.Source)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.New(machine.MMachine())
		if err != nil {
			t.Fatal(err)
		}
		ip, err := k.LoadProgram(prog, false)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := k.AllocSegment(p.DataBytes)
		if err != nil {
			t.Fatal(err)
		}
		th, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()})
		if err != nil {
			t.Fatal(err)
		}
		k.Run(50 * p.Instr)
		if th.State != machine.Halted {
			t.Fatalf("%s: %v (%v) after %d cycles", p.Name, th.State, th.Fault, k.M.Cycle())
		}
		if got := th.Reg(4).Int(); got != p.Result || th.Instret != p.Instr {
			t.Fatalf("%s: r4=%d instret=%d, model says r4=%d instret=%d", p.Name, got, th.Instret, p.Result, p.Instr)
		}
	}
}

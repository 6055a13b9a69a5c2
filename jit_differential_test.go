package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/capverify"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

// Differential determinism gate for the compiled execution tier
// (`make jit`): every shipped program and every fault-injection
// campaign workload is run through the mmsim harness twice —
// interpreter only, then with the check-eliding superblock translator —
// and the two runs must agree bit for bit: architectural fingerprint,
// machine statistics, cache statistics, TLB statistics. Timing is NOT
// excluded: cycle counts are part of the contract.

// diffProgram is one corpus entry: name plus assembled image.
type diffProgram struct {
	name string
	prog *asm.Program
}

// diffCorpus mirrors the E25/E27 corpus: programs/*.s with usemem.s
// linked against memlib.s (memlib.s itself is a library, not a
// program), plus the campaign workloads.
func diffCorpus(t *testing.T) []diffProgram {
	t.Helper()
	dir := "programs"
	files, err := filepath.Glob(filepath.Join(dir, "*.s"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under %s: %v", dir, err)
	}
	sort.Strings(files)
	var out []diffProgram
	for _, f := range files {
		name := filepath.Base(f)
		if name == "memlib.s" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var prog *asm.Program
		if name == "usemem.s" {
			lib, err := os.ReadFile(filepath.Join(dir, "memlib.s"))
			if err != nil {
				t.Fatal(err)
			}
			m1, err := asm.AssembleModule("usemem", string(src))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m2, err := asm.AssembleModule("memlib", string(lib))
			if err != nil {
				t.Fatalf("memlib.s: %v", err)
			}
			prog, err = asm.Link(m1, m2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		} else {
			prog, err = asm.AssembleNamed(name, string(src))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out = append(out, diffProgram{name: name, prog: prog})
	}
	workloads := faultinject.WorkloadSources()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		prog, err := asm.AssembleNamed(n+".s", workloads[n])
		if err != nil {
			t.Fatalf("workload %s: %v", n, err)
		}
		out = append(out, diffProgram{name: "wl:" + n, prog: prog})
	}
	return out
}

// diffOutcome is everything one run must reproduce.
type diffOutcome struct {
	fp       uint64 // architectural fingerprint (faultinject's model)
	stats    machine.Stats
	cache    cache.Stats
	tlb      vm.TLBStats
	space    vm.SpaceStats
	counters jit.Counters // zero for interpreter runs
}

// runDiff boots the mmsim harness (one user thread, 4KB scratch segment
// in r1) and runs prog to the cycle budget.
func runDiff(t *testing.T, prog *asm.Program, useJIT bool) diffOutcome {
	t.Helper()
	const dataBytes = 4096
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		t.Fatal(err)
	}
	if useJIT {
		k.M.EnableJIT(jit.DefaultConfig())
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := k.AllocSegment(dataBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()}); err != nil {
		t.Fatal(err)
	}
	if useJIT {
		k.M.JITRegister(prog, ip.Addr(), capverify.Config{DataBytes: dataBytes})
	}
	k.Run(5_000_000)
	out := diffOutcome{
		fp:    machine.FingerprintThreads(k.M.Threads()),
		stats: k.M.Stats(),
		cache: k.M.Cache.Stats(),
		tlb:   k.M.Space.TLB.Stats(),
		space: k.M.Space.Stats(),
	}
	if useJIT {
		out.counters = k.M.JIT().Counters
	}
	return out
}

// TestJITDifferentialCorpus: interpreter and translator runs of the
// whole corpus must be indistinguishable.
func TestJITDifferentialCorpus(t *testing.T) {
	anyCompiled := false
	for _, p := range diffCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			interp := runDiff(t, p.prog, false)
			jitted := runDiff(t, p.prog, true)
			if interp.fp != jitted.fp {
				t.Errorf("architectural fingerprint diverges: interp %#x jit %#x", interp.fp, jitted.fp)
			}
			if interp.stats != jitted.stats {
				t.Errorf("machine stats diverge:\ninterp %+v\njit    %+v", interp.stats, jitted.stats)
			}
			if !reflect.DeepEqual(interp.cache, jitted.cache) {
				t.Errorf("cache stats diverge:\ninterp %+v\njit    %+v", interp.cache, jitted.cache)
			}
			if interp.tlb != jitted.tlb {
				t.Errorf("TLB stats diverge:\ninterp %+v\njit    %+v", interp.tlb, jitted.tlb)
			}
			if interp.space != jitted.space {
				t.Errorf("space stats diverge:\ninterp %+v\njit    %+v", interp.space, jitted.space)
			}
			if jitted.counters.Compiled > 0 {
				anyCompiled = true
			}
		})
	}
	if !anyCompiled {
		t.Error("no corpus program compiled a single block; the differential gate is vacuous")
	}
}

package repro

import (
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

// diffCorpus mirrors the E25/E27 corpus: the shipped programs plus the
// campaign workloads.
func diffCorpus(t *testing.T) []Program {
	t.Helper()
	out, err := Programs()
	if err != nil {
		t.Fatal(err)
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
		out = append(out, Program{Name: "wl:" + n, Prog: prog})
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
		t.Run(p.Name, func(t *testing.T) {
			interp := runDiff(t, p.Prog, false)
			jitted := runDiff(t, p.Prog, true)
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

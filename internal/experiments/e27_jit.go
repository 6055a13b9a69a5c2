package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/capverify"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/word"
)

func init() {
	register("E27",
		"Check-eliding superblock translation — the compiled tier is architecturally invisible and elides statically-proven checks",
		runE27)
}

// e27Outcome is everything one run must reproduce bit for bit: the
// architectural fingerprint plus every counter the simulator publishes.
// Wall-clock is deliberately absent — the compiled tier buys host time,
// never simulated time.
type e27Outcome struct {
	fp       uint64
	stats    machine.Stats
	cache    cache.Stats
	tlb      vm.TLBStats
	space    vm.SpaceStats
	counters jit.Counters
}

// e27Run boots the standard mmsim harness — one user thread, a 4 KB
// scratch segment in r1 — and runs prog to completion, optionally under
// the translator. Registration happens after Spawn, matching the
// loader's entry contract the verifier assumes (r1 = RW pointer to the
// data segment, all other registers unknown).
func e27Run(prog *asm.Program, useJIT bool) (e27Outcome, error) {
	const dataBytes = 4096
	var out e27Outcome
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		return out, err
	}
	if useJIT {
		k.M.EnableJIT(jit.DefaultConfig())
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		return out, err
	}
	seg, err := k.AllocSegment(dataBytes)
	if err != nil {
		return out, err
	}
	if _, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()}); err != nil {
		return out, err
	}
	if useJIT {
		k.M.JITRegister(prog, ip.Addr(), capverify.Config{DataBytes: dataBytes})
	}
	k.Run(5_000_000)
	out = e27Outcome{
		fp:    machine.FingerprintThreads(k.M.Threads()),
		stats: k.M.Stats(),
		cache: k.M.Cache.Stats(),
		tlb:   k.M.Space.TLB.Stats(),
		space: k.M.Space.Stats(),
	}
	if useJIT {
		out.counters = k.M.JIT().Counters
	}
	return out, nil
}

// runE27 runs the full E25 corpus — every shipped program and every
// fault-injection campaign workload — through the interpreter and
// through the check-eliding superblock translator, gates on bit-exact
// agreement of fingerprint and machine/cache/TLB statistics, and
// tabulates the per-program compilation census: blocks compiled, block
// entries, and how many per-site capability checks the verifier's
// proofs let the translator elide versus retain.
func runE27() (string, error) {
	corpus, err := e25Corpus()
	if err != nil {
		return "", err
	}
	tbl := stats.NewTable("Compiled-tier census (interp vs translator, bit-exact gated)",
		"program", "blocks", "entries", "elided", "retained", "elide%", "match")

	anyCompiled := false
	var elided, retained uint64
	for _, p := range corpus {
		interp, err := e27Run(p.Prog, false)
		if err != nil {
			return "", fmt.Errorf("e27: %s (interp): %v", p.Name, err)
		}
		jitted, err := e27Run(p.Prog, true)
		if err != nil {
			return "", fmt.Errorf("e27: %s (jit): %v", p.Name, err)
		}
		if interp.fp != jitted.fp {
			return "", fmt.Errorf("e27: %s: architectural fingerprint diverges: interp %#x jit %#x",
				p.Name, interp.fp, jitted.fp)
		}
		if interp.stats != jitted.stats {
			return "", fmt.Errorf("e27: %s: machine stats diverge:\ninterp %+v\njit    %+v",
				p.Name, interp.stats, jitted.stats)
		}
		if !reflect.DeepEqual(interp.cache, jitted.cache) {
			return "", fmt.Errorf("e27: %s: cache stats diverge:\ninterp %+v\njit    %+v",
				p.Name, interp.cache, jitted.cache)
		}
		if interp.tlb != jitted.tlb || interp.space != jitted.space {
			return "", fmt.Errorf("e27: %s: vm stats diverge:\ninterp %+v %+v\njit    %+v %+v",
				p.Name, interp.tlb, interp.space, jitted.tlb, jitted.space)
		}
		c := jitted.counters
		if c.Compiled > 0 {
			anyCompiled = true
		}
		elided += c.ElidedSites
		retained += c.RetainedSites
		pct := "-"
		if c.ElidedSites+c.RetainedSites > 0 {
			pct = fmt.Sprintf("%.0f%%", 100*float64(c.ElidedSites)/float64(c.ElidedSites+c.RetainedSites))
		}
		tbl.AddRow(p.Name, c.Compiled, c.Entries, c.ElidedSites, c.RetainedSites, pct, "yes")
	}
	if !anyCompiled {
		return "", fmt.Errorf("e27: no corpus program compiled a single block; the gate is vacuous")
	}
	if elided == 0 {
		return "", fmt.Errorf("e27: no check site was ever elided; the translator never used a proof")
	}

	var b []byte
	b = append(b, tbl.String()...)
	b = append(b, fmt.Sprintf("\nEvery run is bit-identical with the translator on and off — same\n"+
		"fingerprint, cycles, cache and TLB counters. Across the corpus the\n"+
		"verifier's proofs let compiled blocks elide %d capability-check\n"+
		"sites while %d stayed dynamic.\n", elided, retained)...)
	return string(b), nil
}

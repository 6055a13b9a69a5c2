package faultinject

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// A workload is one known-good program the campaign injects faults
// into. Each spawned thread gets its own 4KB data segment in r1; every
// workload halts on its own within budget cycles.
type workload struct {
	name    string
	src     string
	threads int
	budget  uint64

	// clean is the uninjected reference run, computed once per
	// campaign: total cycles to completion and the architectural
	// fingerprint every masked trial must reproduce.
	clean cleanRun
}

type cleanRun struct {
	cycles uint64
	fp     uint64
}

// localWorkloads returns the single-node workload set. Fresh instances
// every call: clean-run state is campaign-local.
func localWorkloads() []*workload {
	return []*workload{
		{name: "sweep-sum", threads: 2, budget: 40_000, src: `
			ldi r3, 64
			mov r4, r1
			ldi r5, 7
		wr:	st   r4, 0, r5
			addi r5, r5, 3
			leai r4, r4, 8
			subi r3, r3, 1
			bnez r3, wr
			ldi r3, 64
			mov r4, r1
			ldi r2, 0
		rd:	ld   r6, r4, 0
			add  r2, r2, r6
			leai r4, r4, 8
			subi r3, r3, 1
			bnez r3, rd
			halt
		`},
		{name: "ptr-chase", threads: 2, budget: 40_000, src: `
			ldi r3, 32
			mov r4, r1
		bld:	leai r5, r4, 8
			st   r4, 0, r5
			mov  r4, r5
			subi r3, r3, 1
			bnez r3, bld
			st   r4, 0, r1
			ldi  r3, 200
			mov  r4, r1
		ch:	ld   r4, r4, 0
			subi r3, r3, 1
			bnez r3, ch
			halt
		`},
		{name: "alu-mix", threads: 2, budget: 40_000, src: `
			ldi r3, 300
			ldi r2, 1
			ldi r5, 0
		lp:	add  r5, r5, r2
			addi r2, r2, 3
			xor  r5, r5, r2
			shli r6, r5, 1
			add  r5, r5, r6
			subi r3, r3, 1
			bnez r3, lp
			halt
		`},
		{name: "derive", threads: 2, budget: 40_000, src: fmt.Sprintf(`
			ldi r3, 150
			ldi r2, %d
			mov r6, r1
		lp:	restrict r7, r6, r2
			ld   r8, r7, 0
			leai r6, r6, 8
			subi r3, r3, 1
			bnez r3, lp
			halt
		`, int64(core.PermReadOnly))},
		{name: "byte-ops", threads: 2, budget: 40_000, src: `
			ldi r3, 100
			mov r4, r1
		lp:	ldi  r5, 171
			stb  r4, 0, r5
			ldb  r6, r4, 1
			add  r7, r7, r6
			leai r4, r4, 8
			subi r3, r3, 1
			bnez r3, lp
			halt
		`},
	}
}

// WorkloadSources exposes the campaign workloads' assembly sources by
// name, so the static verifier's experiments and soundness tests can
// analyze the exact programs the injection campaign executes.
func WorkloadSources() map[string]string {
	out := make(map[string]string)
	for _, w := range localWorkloads() {
		out[w.name] = w.src
	}
	return out
}

// buildLocal boots a single-node kernel running w: one cluster, two
// slots, one thread per domain with its own data segment, parity plane
// armed, register-file integrity hook installed.
func buildLocal(w *workload) (*kernel.Kernel, *Injector, []core.Pointer, error) {
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 1 << 20
	k, inj, segs, err := buildLocalWith(w, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	k.M.Space.Phys.EnableParity()
	return k, inj, segs, nil
}

// buildLocalWith boots the workload on an arbitrary machine config with
// no memory-protection plane enabled — the caller picks parity
// (baseline campaigns) or ECC (tolerant campaigns) afterwards.
func buildLocalWith(w *workload, cfg machine.Config) (*kernel.Kernel, *Injector, []core.Pointer, error) {
	k, err := kernel.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := asm.Assemble(w.src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("faultinject: workload %s: %w", w.name, err)
	}
	inj := &Injector{}
	k.M.Integrity = inj.CheckInst
	// Always-on flight ring: dumped into the trial result only when the
	// outcome escapes classification.
	k.M.Flight = telemetry.NewFlightRecorder(flightRingSize)
	var segs []core.Pointer
	for d := 1; d <= w.threads; d++ {
		ip, err := k.LoadProgram(prog, false)
		if err != nil {
			return nil, nil, nil, err
		}
		seg, err := k.AllocSegment(4096)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := k.Spawn(d, ip, map[int]word.Word{1: seg.Word()}); err != nil {
			return nil, nil, nil, err
		}
		segs = append(segs, seg)
	}
	return k, inj, segs, nil
}

// prepare computes the workload's clean reference run.
func (w *workload) prepare() error {
	k, _, _, err := buildLocal(w)
	if err != nil {
		return err
	}
	cycles := k.Run(w.budget)
	if !k.M.Done() {
		return fmt.Errorf("faultinject: workload %s did not finish in %d cycles", w.name, w.budget)
	}
	for _, t := range k.M.Threads() {
		if t.State != machine.Halted {
			return fmt.Errorf("faultinject: workload %s thread %d: %v %v", w.name, t.ID, t.State, t.Fault)
		}
	}
	w.clean = cleanRun{cycles: cycles, fp: machine.FingerprintThreads(k.M.Threads())}
	return nil
}

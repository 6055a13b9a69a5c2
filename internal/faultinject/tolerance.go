// The tolerant stack's single-node driver: E23's local fault mix rerun
// with the self-healing stack enabled.
//
// The bare stack proves every fault is *detected* or masked. The
// tolerant stack proves every detectable fault is *recovered*:
// single-node trials run under SECDED ECC with the machine's background
// scrubber and a store of verified checkpoints that roll the kernel back
// through register/TLB machine checks; mesh trials run with the NoC
// reliable transport retransmitting through drop/corrupt faults and
// suppressing duplicates; node trials run with the multicomputer's
// coordinated checkpoints and watchdog-driven auto-recovery
// (stack.meshConfig). A trial classifies Tolerated when the stack
// actually repaired something and the final architectural fingerprint
// equals the clean run's; a final Detected outcome means the fault was
// seen but not recovered — the E24 gate requires zero of those and
// zero escapes.
package faultinject

import (
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/persist"
)

// Tolerant-stack tuning: checkpoint cadence and rollback budget,
// background-scrubber cadence for single-node machines.
const (
	tolCkptInterval = 400 // cycles between verified checkpoints
	tolCkptKeep     = 2   // generations a checkpoint store retains
	tolMaxRestores  = 4   // rollback budget per trial
	tolScrubEvery   = 64  // machine cycles between scrub sweeps
	tolScrubWords   = 256 // words per sweep
)

// tolDriver drives one single-node tolerant trial: chunked execution
// with verified checkpoints in a memory store, rolling back through
// detected faults. "Verified" means a generation is captured only when
// the armed-register model is quiet — and capture reads memory through
// the ECC plane, healing correctable decay on the way into the image —
// so by induction every banked generation is clean.
type tolDriver struct {
	k        *kernel.Kernel
	inj      *Injector
	st       *persist.Store
	sv       *persist.Saver
	restores uint64
	banked   uint64 // checkpoints captured
	failed   bool   // rollback budget exhausted or restore error
}

// newTolDriver returns a driver for k with an empty checkpoint store.
func newTolDriver(k *kernel.Kernel, inj *Injector) (*tolDriver, error) {
	st, err := persist.OpenMemory(1)
	if err != nil {
		return nil, err
	}
	sv, err := persist.NewSaver(st, 0)
	if err != nil {
		return nil, err
	}
	return &tolDriver{k: k, inj: inj, st: st, sv: sv}, nil
}

// maybeCheckpoint banks a generation if the current state verifies.
func (d *tolDriver) maybeCheckpoint() {
	if d.inj.Armed() {
		return // latent register corruption: do not poison the store
	}
	if _, err := d.sv.Capture(d.k, d.k.M.Cycle()); err != nil {
		return // uncorrectable memory: keep the older generations
	}
	d.banked++
	_ = d.st.Prune(tolCkptKeep) // a memory store removes only files its scan just listed
}

// restore rolls the kernel back to the newest banked generation and
// rearms the tolerance environment the image does not capture: the ECC
// plane, the integrity hook, the flight ring, and a disarmed injector
// (the restored register file predates the corruption).
func (d *tolDriver) restore() bool {
	if d.restores >= tolMaxRestores {
		return false
	}
	k2, _, _, err := persist.RestoreNewest(d.st, d.k.M.Config())
	if err != nil {
		return false
	}
	k2.M.Space.Phys.EnableECC()
	k2.M.Integrity = d.inj.CheckInst
	k2.M.Flight = d.k.M.Flight
	d.k = k2
	d.inj.Disarm()
	d.restores++
	return true
}

// run executes up to total cycles in checkpoint-interval chunks,
// rolling back whenever a machine check faults a thread. Sets failed
// when the rollback budget runs dry.
func (d *tolDriver) run(total uint64) {
	var executed uint64
	for executed < total && !d.k.M.Done() {
		chunk := uint64(tolCkptInterval)
		if rem := total - executed; chunk > rem {
			chunk = rem
		}
		executed += d.k.Run(chunk)
		if faultedThread(d.k.M.Threads()) != nil {
			if !d.restore() {
				d.failed = true
				return
			}
			continue
		}
		if !d.k.M.Done() {
			d.maybeCheckpoint()
		}
	}
}

// finish is the tolerant back half of a local trial: the same workload,
// seed stream and injection as under bare, but ECC corrects memory
// flips, the scrubber sweeps in the background, and detected
// register/TLB faults roll back to a verified checkpoint instead of
// ending the run.
func (d *tolDriver) finish(w *workload, detail string) trialResult {
	d.run(w.budget * (tolMaxRestores + 2))

	counters := func(r trialResult) trialResult {
		r.restores = d.restores
		r.checkpoints = d.banked
		r.eccFixed = d.k.M.Space.Phys.ECCStats().Corrected
		return r
	}
	if d.failed {
		return counters(trialResult{outcome: Detected, detail: "unrecovered"})
	}
	if !d.k.M.Done() {
		return counters(trialResult{outcome: Detected, detail: "unrecovered-hang"})
	}
	tolerated := d.restores > 0
	if d.restores > 0 {
		detail = "rollback"
	}
	// Retirement healing: latent damage the run never consumed is
	// repaired, not merely reported.
	if bad := d.k.M.Space.Phys.Scrub(); bad > 0 {
		// Multi-bit decay from a single injected flip cannot happen;
		// if it ever does, it is an unrecovered detection.
		return counters(trialResult{outcome: Detected, detail: "unrecovered-mem"})
	}
	if st := d.k.M.Space.Phys.ECCStats(); st.Corrected > 0 {
		tolerated = true
		detail = "ecc-corrected"
	}
	if d.k.M.Space.TLB.PoisonedEntries() > 0 {
		// A poisoned-but-unused entry: flushing it re-fetches clean
		// translations from the page table.
		d.k.M.Space.TLB.Flush()
		tolerated = true
		detail = "tlb-flushed"
	}
	if d.inj.Armed() {
		// Latent register corruption (never read, never overwritten):
		// the newest verified generation predates it by construction —
		// roll back and re-execute clean.
		if !d.restore() {
			return counters(trialResult{outcome: Detected, detail: "unrecovered"})
		}
		d.run(w.budget * 2)
		if d.failed || !d.k.M.Done() {
			return counters(trialResult{outcome: Detected, detail: "unrecovered"})
		}
		tolerated = true
		detail = "reg-rollback"
	}
	if machine.FingerprintThreads(d.k.M.Threads()) != w.clean.fp {
		return counters(trialResult{outcome: Escaped, detail: "silent-divergence"})
	}
	if tolerated {
		return counters(trialResult{outcome: Tolerated, detail: detail})
	}
	return counters(trialResult{outcome: Masked, detail: detail})
}

package faultinject

import (
	"errors"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/vm"
)

// flightRingSize is the per-recorder flight-ring capacity for trials:
// big enough to hold the events leading to an escape, small enough to
// be free across tens of thousands of injections.
const flightRingSize = 128

// trialResult is one classified injection.
type trialResult struct {
	outcome Outcome
	detail  string // fine-grained mechanism tag for the breakdown table
	// flight is the trial's flight-recorder dump (JSONL), attached only
	// when the stack cannot explain the outcome (stack.unexplained) —
	// the evidence trail for exactly the trials that need one.
	flight string

	// Tolerance-stack accounting, all zero under the bare stack:
	// repair work the stack performed during the trial.
	restores    uint64 // checkpoint rollbacks
	checkpoints uint64 // verified checkpoints captured
	eccFixed    uint64 // single-bit memory errors corrected
	retransmits uint64 // transport frames re-sent
	dupSupp     uint64 // duplicate frames suppressed

	// Persistence-trial accounting (persist.go), zero elsewhere.
	persistCorrupt  uint64 // generations rejected by checksums/markers
	persistFallback uint64 // restores that fell back past damage

	// Migration-trial accounting (migrate.go), zero elsewhere.
	migrateRetrans uint64 // migration wire frames re-sent
	migrateDupSupp uint64 // duplicate migration frames suppressed
	migrateAborts  uint64 // migrations aborted with the source intact
}

// classifyFault maps a faulted thread's error to an outcome. Explicit
// corruption detections (parity, CRC, machine check) and valid guarded-
// pointer fault codes both count as detected; anything else escaped.
func classifyFault(err error) trialResult {
	if IsCorruptionDetected(err) {
		var (
			pe *mem.ParityError
			te *vm.TLBParityError
			ce *CorruptionError
			ne *noc.PayloadError
		)
		switch {
		case errors.As(err, &pe):
			return trialResult{outcome: Detected, detail: "mem-parity"}
		case errors.As(err, &te):
			return trialResult{outcome: Detected, detail: "tlb-parity"}
		case errors.As(err, &ce):
			return trialResult{outcome: Detected, detail: "reg-parity"}
		case errors.As(err, &ne):
			return trialResult{outcome: Detected, detail: "link-crc"}
		}
		return trialResult{outcome: Detected, detail: "machine-check"}
	}
	if code := core.CodeOf(err); code != core.FaultNone {
		return trialResult{outcome: Detected, detail: "fault-" + code.String()}
	}
	return trialResult{outcome: Escaped, detail: "unexpected-fault"}
}

// severity ranks outcomes from best to worst.
var severity = [...]int{Tolerated: 0, Masked: 1, Detected: 2, Escaped: 3}

// worsen returns r with v's outcome and detail when v is the worse
// verdict: a stricter check may demote a classified trial, never
// promote it.
func (r trialResult) worsen(v trialResult) trialResult {
	if severity[v.outcome] > severity[r.outcome] {
		r.outcome, r.detail = v.outcome, v.detail
	}
	return r
}

// stack is the protection a trial runs under. bare is E23's
// detection-only stack: parity, the link CRC and the watchdog.
// tolerant is E24's self-healing stack: ECC with the background
// scrubber, the reliable transport, checkpoint rollback and watchdog
// auto-recovery. Every fault class has one trial body that takes the
// stack; only the local trials keep a back half per stack.
type stack bool

const (
	bare     stack = false
	tolerant stack = true
)

// budget is a mesh trial's cycle budget given the clean run's length:
// under tolerant, room to replay the run after every restore the
// stack may perform.
func (st stack) budget(clean uint64) uint64 {
	if st == tolerant {
		return clean*(tolMaxRestores+2) + 8*meshWatchdog
	}
	return clean*3 + 4*meshWatchdog
}

// unexplained reports whether o is an outcome the audit cannot explain
// away under st: an escape, or under tolerant a detection the stack
// failed to repair. Those trials carry their flight-recorder dump.
func (st stack) unexplained(o Outcome) bool {
	return o == Escaped || (st == tolerant && o == Detected)
}

// local boots w for a single-node trial under st: the parity plane
// under bare, the SECDED plane with the background scrubber under
// tolerant.
func (st stack) local(w *workload) (*kernel.Kernel, *Injector, []core.Pointer, error) {
	cfg := campaignNode()
	if st == tolerant {
		cfg.ScrubEvery = tolScrubEvery
		cfg.ScrubWords = tolScrubWords
	}
	k, inj, segs, err := bootLocal(w, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if st == tolerant {
		k.M.Space.Phys.EnableECC()
	} else {
		k.M.Space.Phys.EnableParity()
	}
	return k, inj, segs, nil
}

// runLocalTrial executes one single-node injection under st: boot the
// workload, run to a seed-chosen cycle, inject one fault of the given
// class, then run to completion and classify. The run-up and the back
// half are the stack's own: bare runs straight through and classifies
// by scrub; tolerant runs in checkpointed chunks and rolls back through
// detected faults (tolDriver).
func (st stack) runLocalTrial(w *workload, class Class, seed uint64) trialResult {
	rng := NewRNG(seed)
	k, inj, segs, err := st.local(w)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	injectAt := 1 + rng.Uint64n(w.clean.cycles)
	var r trialResult
	if st == tolerant {
		d, err := newTolDriver(k, inj)
		if err != nil {
			return trialResult{outcome: Escaped, detail: "build-error"}
		}
		d.maybeCheckpoint() // generation 1: the booted, unfaulted machine
		d.run(injectAt)
		r = d.finish(w, injectLocal(class, d.k, inj, segs, rng))
		k = d.k
	} else {
		k.Run(injectAt)
		r = finishLocal(w, k, inj, injectLocal(class, k, inj, segs, rng))
	}
	if st.unexplained(r.outcome) {
		r.flight = k.M.Flight.DumpString(r.outcome.String()+": "+r.detail, 0)
	}
	return r
}

// finishLocal is the bare back half of a local trial: run to the end,
// then classify the first fault or, on a clean finish, retire through
// the scrubs.
func finishLocal(w *workload, k *kernel.Kernel, inj *Injector, detail string) trialResult {
	k.Run(w.budget)
	if t := faultedThread(k.M.Threads()); t != nil {
		return classifyFault(t.Fault)
	}
	if !k.M.Done() {
		return trialResult{outcome: Escaped, detail: "hang"}
	}
	// Retirement scrub: latent corruption the run never touched is
	// still explicitly detectable — memory parity sweep, TLB parity
	// sweep, register-file parity.
	if k.M.Space.Phys.Scrub() > 0 {
		return trialResult{outcome: Detected, detail: "scrub-mem"}
	}
	if k.M.Space.TLB.PoisonedEntries() > 0 {
		return trialResult{outcome: Detected, detail: "scrub-tlb"}
	}
	if inj.Armed() {
		return trialResult{outcome: Detected, detail: "scrub-reg"}
	}
	if machine.FingerprintThreads(k.M.Threads()) == w.clean.fp {
		return trialResult{outcome: Masked, detail: detail}
	}
	return trialResult{outcome: Escaped, detail: "silent-divergence"}
}

// faultedThread returns the first faulted thread, if any.
func faultedThread(threads []*machine.Thread) *machine.Thread {
	for _, t := range threads {
		if t.State == machine.Faulted {
			return t
		}
	}
	return nil
}

// injectLocal performs the class's state mutation and returns a detail
// tag describing what was hit (used only for masked-outcome breakdowns;
// detected outcomes are re-tagged by the detection mechanism).
func injectLocal(class Class, k *kernel.Kernel, inj *Injector, segs []core.Pointer, rng *RNG) string {
	switch class {
	case MemBit:
		var paddr uint64
		if len(segs) > 0 && rng.Intn(2) == 0 {
			// Target live data: a word of some thread's segment.
			seg := segs[rng.Intn(len(segs))]
			off := rng.Uint64n(seg.SegSize()/8) * 8
			pa, _, err := k.M.Space.Translate(seg.Addr() + off)
			if err != nil {
				return "no-target"
			}
			paddr = pa
		} else {
			// Anywhere in physical memory (code, tables, free space).
			paddr = rng.Uint64n(k.M.Space.Phys.Words()) * 8
		}
		bit := uint(rng.Intn(65))
		if err := k.M.Space.Phys.FlipBit(paddr, bit); err != nil {
			return "no-target"
		}
		if bit == 64 {
			return "mem-tag-bit"
		}
		return "mem-data-bit"

	case RegBit:
		t := pickLiveThread(k, rng)
		if t == nil {
			return "no-target"
		}
		r := rng.Intn(isa.NumRegs)
		bit := uint(rng.Intn(65))
		w := t.Reg(r)
		if bit == 64 {
			w.Tag = !w.Tag
		} else {
			w.Bits ^= 1 << bit
		}
		t.SetReg(r, w)
		inj.Arm(t, r)
		return "reg-bit"

	case PtrField:
		t := pickLiveThread(k, rng)
		if t == nil {
			return "no-target"
		}
		r := findPointerReg(t, rng)
		if r < 0 {
			return "no-target"
		}
		var bit uint
		var tag string
		switch rng.Intn(3) {
		case 0:
			bit = uint(core.AddrBits+core.LenBits) + uint(rng.Intn(core.PermBits))
			tag = "ptr-perm"
		case 1:
			bit = uint(core.AddrBits) + uint(rng.Intn(core.LenBits))
			tag = "ptr-len"
		default:
			bit = uint(rng.Intn(core.AddrBits))
			tag = "ptr-addr"
		}
		w := t.Reg(r)
		w.Bits ^= 1 << bit
		t.SetReg(r, w)
		inj.Arm(t, r)
		return tag

	case TLBEntry:
		tlb := k.M.Space.TLB
		n := tlb.Size()
		start := rng.Intn(n)
		var xorVPN, xorFrame uint64
		var tag string
		if rng.Intn(2) == 0 {
			xorVPN = 1 << rng.Intn(30)
			tag = "tlb-vpn"
		} else {
			xorFrame = 1 << rng.Intn(20)
			tag = "tlb-frame"
		}
		for j := 0; j < n; j++ {
			if tlb.CorruptEntry((start+j)%n, xorVPN, xorFrame) {
				return tag
			}
		}
		return "no-target"
	}
	return "no-target"
}

// pickLiveThread chooses a not-yet-done thread, or nil if all finished.
func pickLiveThread(k *kernel.Kernel, rng *RNG) *machine.Thread {
	var live []*machine.Thread
	for _, t := range k.M.Threads() {
		if !t.Done() {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[rng.Intn(len(live))]
}

// findPointerReg returns a register of t currently holding a tagged
// word, scanning from a random offset; -1 if none.
func findPointerReg(t *machine.Thread, rng *RNG) int {
	start := rng.Intn(isa.NumRegs)
	for j := 0; j < isa.NumRegs; j++ {
		r := (start + j) % isa.NumRegs
		if t.Reg(r).Tag {
			return r
		}
	}
	return -1
}

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
	// when the outcome is Escaped or an unrecovered detection — the
	// evidence trail for exactly the trials the audit cannot explain.
	flight string

	// Tolerance-stack accounting, all zero in baseline campaigns:
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

// runLocalTrial executes one single-node injection: boot the workload,
// run to a seed-chosen cycle, inject one fault of the given class, run
// to completion, classify. Panics anywhere in the trial classify as
// escaped — a fault must never crash the simulator.
func runLocalTrial(w *workload, class Class, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	rng := NewRNG(seed)
	k, inj, segs, err := buildLocal(w)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	defer func() {
		if res.outcome == Escaped && res.flight == "" {
			res.flight = k.M.Flight.DumpString("escaped: "+res.detail, 0)
		}
	}()
	injectAt := 1 + rng.Uint64n(w.clean.cycles)
	k.Run(injectAt)
	detail := injectLocal(class, k, inj, segs, rng)
	k.Run(w.budget)

	for _, t := range k.M.Threads() {
		if t.State == machine.Faulted {
			return classifyFault(t.Fault)
		}
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

// Package faultinject is a deterministic fault injector and
// protection-audit harness for the guarded-pointer machine.
//
// A campaign (see campaign.go) runs thousands of trials under one
// protection stack: bare, which only detects, or tolerant, which also
// repairs (see stack). Each trial boots a fresh system, runs a
// known-good workload to a pseudo-random cycle, injects exactly one
// fault, runs to completion and classifies the outcome; under bare:
//
//   - Detected — the system raised an explicit corruption signal: a
//     parity/CRC machine check, a guarded-pointer protection fault with
//     a valid FaultCode, the multicomputer watchdog, or an end-of-run
//     scrub of the parity planes.
//   - Masked — the run completed and its architectural fingerprint
//     equals the uninjected run's (the fault was overwritten, evicted,
//     or landed in dead state).
//   - Escaped — anything else: silent divergence, an unexplained hang,
//     or a panic. A healthy protection system shows zero escapes.
//
// Everything is replayable: all randomness comes from an explicit
// xorshift64* generator keyed by the trial seed (never math/rand global
// state), so the same seed produces a byte-identical campaign table.
package faultinject

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
)

// RNG is the injector's private xorshift64* generator — the same
// recurrence the workload package uses, duplicated here so the two
// streams can never entangle.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; seed 0 is remapped to a fixed odd constant
// because xorshift has an all-zeroes fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{s: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (r *RNG) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Uint64n returns a value in [0, n); n == 0 returns 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Next() % n
}

// Intn returns a value in [0, n); n <= 0 returns 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64n(uint64(n)))
}

// mixSeed derives an independent per-trial seed from the campaign seed
// and the trial coordinates (splitmix64 finalizer).
func mixSeed(seed uint64, parts ...uint64) uint64 {
	z := seed
	for _, p := range parts {
		z += p*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// Class enumerates the fault classes the injector can raise.
type Class int

const (
	// MemBit flips one bit of a physical memory word — any of the 64
	// data bits or the tag bit — underneath the parity plane.
	MemBit Class = iota
	// RegBit flips one bit (data or tag) of a live thread's register
	// and arms the register-file parity model.
	RegBit
	// PtrField corrupts a register currently holding a guarded pointer
	// in a chosen subfield (permission, segment length, or address),
	// again under register-file parity.
	PtrField
	// TLBEntry XORs bits into a valid TLB slot's VPN or frame, marking
	// the slot's parity poisoned.
	TLBEntry
	// NoCDrop loses one mesh message in the fabric.
	NoCDrop
	// NoCDuplicate delivers one mesh message twice.
	NoCDuplicate
	// NoCCorrupt flips payload bits in one mesh message; the link CRC
	// rejects it on arrival.
	NoCCorrupt
	// NoCDelay holds one mesh message for extra cycles.
	NoCDelay
	// NodeKill fails one multicomputer node hard, mid-run.
	NodeKill
	// NodeStall freezes one node for a bounded number of cycles.
	NodeStall
	// PersistTorn truncates one file of the NEWEST on-disk checkpoint
	// generation at a random offset — the shape a crash leaves behind
	// mid-write.
	PersistTorn
	// PersistTrunc truncates a random file of ANY generation in the
	// store.
	PersistTrunc
	// PersistRot flips one random bit somewhere in the store — media
	// decay after the write committed.
	PersistRot
	// PersistMissing deletes every file of one generation — an
	// over-eager cleanup or a lost directory entry.
	PersistMissing
	// MigrateFrameDrop loses live-migration wire frames during the
	// pre-copy transfer; the link must recover by retransmission.
	MigrateFrameDrop
	// MigrateFrameCorrupt flips payload bits in migration frames; the
	// frame CRC must reject them and the link must retransmit.
	MigrateFrameCorrupt
	// MigrateFrameDup delivers migration frames twice; the sequenced
	// link must suppress the duplicates.
	MigrateFrameDup
	// MigrateFrameTrunc tears migration frames short on the wire; the
	// decoder must reject the torn frame and the link retransmit.
	MigrateFrameTrunc
	// MigrateSrcKill kills the source node mid-round during pre-copy;
	// the migration must abort rather than commit a stale image, and
	// the watchdog-driven recovery stack must finish the run.
	MigrateSrcKill
	// MigrateStandbyCrash crashes the standby partway through the
	// transfer; the migration must abort with the source unharmed.
	MigrateStandbyCrash
	// MigrateCutover interrupts the migration at the cutover barrier,
	// after the fingerprint handshake but before commit; the abort
	// must leave the source bit-identical to never having migrated.
	MigrateCutover

	NumClasses int = iota
)

var classNames = [...]string{
	MemBit:         "mem-bit",
	RegBit:         "reg-bit",
	PtrField:       "ptr-field",
	TLBEntry:       "tlb-entry",
	NoCDrop:        "noc-drop",
	NoCDuplicate:   "noc-duplicate",
	NoCCorrupt:     "noc-corrupt",
	NoCDelay:       "noc-delay",
	NodeKill:       "node-kill",
	NodeStall:      "node-stall",
	PersistTorn:    "persist-torn",
	PersistTrunc:   "persist-trunc",
	PersistRot:     "persist-rot",
	PersistMissing: "persist-missing",

	MigrateFrameDrop:    "migrate-frame-drop",
	MigrateFrameCorrupt: "migrate-frame-corrupt",
	MigrateFrameDup:     "migrate-frame-dup",
	MigrateFrameTrunc:   "migrate-frame-trunc",
	MigrateSrcKill:      "migrate-src-kill",
	MigrateStandbyCrash: "migrate-standby-crash",
	MigrateCutover:      "migrate-cutover",
}

func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Outcome is the audit's classification of one trial. The bare stack
// uses the first three; the tolerant stack adds Tolerated: the fault
// was detected AND repaired — ECC correction, transport
// retransmission, checkpoint rollback — and the run finished with the
// clean fingerprint. Under the tolerant stack a final Detected means
// the stack saw the fault but could not recover it.
type Outcome int

const (
	Detected Outcome = iota
	Masked
	Escaped
	Tolerated
)

func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Masked:
		return "masked"
	case Escaped:
		return "escaped"
	case Tolerated:
		return "tolerated"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// CorruptionError is the register-file machine check: an instruction
// read an operand register whose contents were corrupted since its
// last write. It satisfies the CorruptionDetected convention shared
// with mem.ParityError, vm.TLBParityError and noc.PayloadError.
type CorruptionError struct {
	Thread, Reg int
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("faultinject: register-file parity error: thread %d read r%d while corrupted", e.Thread, e.Reg)
}

// CorruptionDetected marks this as an explicit hardware detection.
func (e *CorruptionError) CorruptionDetected() bool { return true }

// corruptionDetector is the interface every explicit-detection error in
// the repo implements.
type corruptionDetector interface{ CorruptionDetected() bool }

// IsCorruptionDetected reports whether err (or anything it wraps) is an
// explicit corruption-detection signal.
func IsCorruptionDetected(err error) bool {
	var cd corruptionDetector
	return errors.As(err, &cd) && cd.CorruptionDetected()
}

// Injector carries the armed-register state behind the machine's
// Integrity hook. The model is register-file parity: corrupting a
// register arms it; the first instruction that READS the register takes
// a machine check (CorruptionError), while an instruction that WRITES
// it first silently repairs the damage (the fault was masked).
type Injector struct {
	thread *machine.Thread
	reg    int
	armed  bool
}

// Arm marks register reg of thread t as corrupted.
func (in *Injector) Arm(t *machine.Thread, reg int) {
	in.thread, in.reg, in.armed = t, reg, true
}

// Armed reports whether a corrupted register is still live (never read,
// never overwritten) — a latent fault a register-file scrub would find.
func (in *Injector) Armed() bool { return in.armed }

// Disarm clears the armed-register state without classifying it — the
// tolerant driver calls it after rolling the machine back to a
// checkpoint that predates the corruption, making the parity state
// consistent with the restored register file.
func (in *Injector) Disarm() { in.armed = false }

// CheckInst is the machine.Integrity hook: it vets every instruction of
// the armed thread before it executes.
func (in *Injector) CheckInst(t *machine.Thread, inst isa.Inst) error {
	if !in.armed || t != in.thread {
		return nil
	}
	if readsReg(inst, in.reg) {
		in.armed = false
		return &CorruptionError{Thread: t.ID, Reg: in.reg}
	}
	if writesReg(inst, in.reg) {
		in.armed = false // overwrite repairs: parity is recomputed on write
	}
	return nil
}

// readsReg reports whether inst reads register r as an operand.
func readsReg(i isa.Inst, r int) bool {
	switch i.Op {
	case isa.NOP, isa.HALT, isa.LDI, isa.BR, isa.TRAP, isa.MOVIP:
		return false
	case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SLT, isa.SEQ,
		isa.LEA, isa.LEAB, isa.RESTRICT, isa.SUBSEG,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSLT,
		isa.ST, isa.STB:
		return i.Ra == r || i.Rb == r
	case isa.ADDI, isa.SUBI, isa.SHLI, isa.SHRI, isa.SLTI, isa.SEQI,
		isa.MOV, isa.LEAI, isa.LEABI, isa.SETPTR, isa.ISPTR,
		isa.GETPERM, isa.GETLEN, isa.ITOF, isa.FTOI,
		isa.BEQZ, isa.BNEZ, isa.JMP, isa.JMPL, isa.LD, isa.LDB:
		return i.Ra == r
	}
	// Unknown opcode: assume the worst (both operand fields read).
	return i.Ra == r || i.Rb == r
}

// writesReg reports whether inst writes register r as its destination.
func writesReg(i isa.Inst, r int) bool {
	switch i.Op {
	case isa.NOP, isa.HALT, isa.BR, isa.BEQZ, isa.BNEZ,
		isa.JMP, isa.TRAP, isa.ST, isa.STB:
		return false
	}
	return i.Rd == r
}

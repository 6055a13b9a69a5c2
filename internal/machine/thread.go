package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/word"
)

// ThreadState is the scheduling state of a hardware thread slot.
type ThreadState int

const (
	// Ready threads compete for their cluster's issue slot each cycle.
	Ready ThreadState = iota
	// Blocked threads are waiting for a memory reference to complete.
	Blocked
	// Halted threads executed HALT.
	Halted
	// Faulted threads took an unhandled protection fault.
	Faulted
)

var stateNames = [...]string{Ready: "ready", Blocked: "blocked", Halted: "halted", Faulted: "faulted"}

func (s ThreadState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thread is one resident hardware thread: sixteen tagged general
// registers and an instruction pointer that is itself a guarded execute
// pointer. There is no other per-thread protection state — that absence
// is the paper's zero-cost context switch (Sec 3).
type Thread struct {
	ID     int
	Domain int // protection-domain label, used only by switch-cost models and stats

	Regs [isa.NumRegs]word.Word
	IP   core.Pointer

	State        ThreadState
	Fault        error // terminal fault when State == Faulted
	Instret      uint64
	blockedUntil uint64

	cluster, slot int

	// Compiled-block resume cursor (blockexec.go): when jblk is
	// non-nil, execution resumes at step jidx, revalidated against the
	// IP and the block's Valid flag before use.
	jblk *jit.Block
	jidx int
}

// SetIP installs an execute pointer as the thread's instruction
// pointer. Enter pointers are converted exactly as a hardware jump
// would convert them.
func (t *Thread) SetIP(p core.Pointer) error {
	ip, err := core.JumpTarget(p)
	if err != nil {
		return err
	}
	t.IP = ip
	return nil
}

// Cluster returns the cluster the thread is resident on.
func (t *Thread) Cluster() int { return t.cluster }

// Privileged reports whether the thread currently executes in
// supervisor mode, which in a guarded-pointer machine is nothing more
// than the permission of the instruction pointer (Sec 2.1).
func (t *Thread) Privileged() bool { return t.IP.Perm().Privileged() }

// Reg returns register r as a tagged word.
func (t *Thread) Reg(r int) word.Word { return t.Regs[r] }

// SetReg sets register r.
func (t *Thread) SetReg(r int, w word.Word) { t.Regs[r] = w }

// Done reports whether the thread has left the running states.
func (t *Thread) Done() bool { return t.State == Halted || t.State == Faulted }

// BlockUntil parks the thread until the given cycle (kernel services
// use it to charge fault-handling time). The caller sets State.
func (t *Thread) BlockUntil(cycle uint64) { t.blockedUntil = cycle }

// FingerprintThreads hashes the architectural outcome of a thread set:
// per thread its ID, run state, retired-instruction count, IP address
// and full register file (bits and tag). Timing — cycle counts,
// latencies — is deliberately excluded, so runs that did the same work
// at different speeds agree: the fault campaigns classify delay-only
// faults as masked by it, and the tier differentials compare the
// interpreter with compiled blocks by it.
func FingerprintThreads(threads []*Thread) uint64 {
	h := word.NewHash()
	for _, t := range threads {
		h.Mix(uint64(t.ID))
		h.Mix(uint64(t.State))
		h.Mix(t.Instret)
		h.Mix(t.IP.Addr())
		for _, r := range t.Regs {
			h.MixWord(r)
		}
	}
	return uint64(h)
}

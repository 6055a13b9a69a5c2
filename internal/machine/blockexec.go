package machine

import (
	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/jit"
	"repro/internal/word"
)

// This file runs internal/jit's compiled superblocks: the machine-side
// half of the compiled execution tier. A block is a list of decoded
// instructions, each marked Proven when the verifier discharged all of
// its site checks; running one is the interpreter's own dispatch with
// the proven checks dropped (exec.go). Per step the executor keeps the
// interpreter's contract:
//   - the fetch address is translated exactly once (the decoded-cache
//     hit path), so vm/TLB counters and page-fault behavior match;
//   - proven steps perform the same Cache/Space accesses with the same
//     m.now stamps and write the same values as the checked path does
//     when its checks pass, which capverify proved they do;
//   - faults, blocking, remote accesses and retirement are dispatch's.
// Under that contract architectural state, stats, and cycle counts are
// bit-identical with the translator on or off.

// EnableJIT installs a superblock translator on the machine and returns
// it. The Space invalidation hooks are extended so stores into
// registered code and unmaps invalidate compiled blocks alongside the
// decoded-instruction cache. Call before RegisterMetrics to get the
// jit.* counters published.
func (m *Machine) EnableJIT(cfg jit.Config) *jit.Engine {
	m.jit = jit.New(cfg)
	m.Space.OnWrite = func(vaddr uint64) {
		m.invalidateDecodedWord(vaddr)
		m.jit.InvalidateWrite(vaddr)
	}
	m.Space.OnUnmap = func(vaddr, size uint64) {
		m.FlushDecoded()
		m.jit.InvalidateUnmap(vaddr, size)
	}
	return m.jit
}

// JIT returns the translator, or nil when EnableJIT has not run.
func (m *Machine) JIT() *jit.Engine { return m.jit }

// JITRegister registers a loaded program's code with the translator; a
// no-op without EnableJIT. base is the load address of the program's
// code segment and vcfg must describe the environment the program runs
// under — see jit.Engine.Register for the soundness contract.
func (m *Machine) JITRegister(prog *asm.Program, base uint64, vcfg capverify.Config) {
	if m.jit != nil {
		m.jit.Register(prog, base, vcfg)
	}
}

// jitStep runs the thread's next instruction(s) from a compiled block,
// returning false when the interpreter should run instead: no block
// covers the IP, or a per-instruction observation hook is installed
// (those see every dispatched instruction, and blocks skip observe).
func (m *Machine) jitStep(t *Thread) bool {
	if m.hooked() {
		return false
	}
	blk, idx := t.jblk, t.jidx
	if blk != nil {
		t.jblk = nil
		if !blk.Valid || idx >= len(blk.Steps) || blk.Steps[idx].Addr != t.IP.Addr() {
			blk = nil
		}
	}
	if blk == nil {
		blk = m.jit.BlockAt(t.IP.Addr())
		if blk == nil {
			return false
		}
		idx = 0
		m.jit.Counters.Entries++
	}
	m.runBlock(t, blk, idx)
	return true
}

// runBlock executes blk from step idx for t. A step continues the block
// when the IP lands on the next step, or back on the head of a
// still-valid block with t ready: after a proven taken branch, or after
// an unproven step (its branch, or a fault retry). Anything else leaves
// the block with every effect committed by dispatch; a proven taken
// branch that leaves feeds the heat counters, so blocks reachable only
// from compiled code still get discovered.
//
// The next step runs on the next cycle inside this Step when lone(t)
// holds, after tick; otherwise the cursor is left on it, and the Step
// loop does the per-cycle accounting before it runs.
func (m *Machine) runBlock(t *Thread, blk *jit.Block, idx int) {
	steps := blk.Steps
	for {
		s := &steps[idx]
		// Translate the fetch address every step, hit-path style (see
		// fetchDecoded): keeps TLB counters and fetch page faults
		// bit-identical to the interpreter.
		if _, _, err := m.Space.Translate(s.Addr); err != nil {
			m.fault(t, err)
			return
		}
		jumped := m.dispatch(t, &s.Inst, s.Proven)
		switch a := t.IP.Addr(); {
		case a == s.Addr+word.BytesPerWord && !jumped && !t.Done():
			idx++
		case a == blk.Head && t.State == Ready && blk.Valid && (jumped || !s.Proven):
			idx = 0
		default:
			if jumped {
				m.jit.NoteBranch(a)
			}
			return
		}
		if !blk.Valid || idx == len(steps) {
			return
		}
		if !m.lone(t) {
			t.jblk, t.jidx = blk, idx
			return
		}
		m.tick()
	}
}

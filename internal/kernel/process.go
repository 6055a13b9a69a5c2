package kernel

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/word"
)

// This file adds the kernel's process layer: software multiplexing of
// many processes onto the machine's fixed hardware thread slots.
//
// The guarded-pointer twist is what *isn't* here: starting a thread
// from a different process installs no page table, flushes nothing,
// and touches no protection state — a process's entire protection
// domain is the set of capabilities in its registers and reachable
// segments. Software scheduling is register load/store plus slot
// bookkeeping, which is why the paper can claim fast context switching
// even above the hardware thread limit.

// Process is a kernel-managed protection domain: an owner for segments
// and threads. Segments allocated through the process are freed when
// it exits, and its address space can be garbage-collected as a unit.
type Process struct {
	ID     int
	Domain int

	k        *Kernel
	segments []core.Pointer
	live     int  // running hardware threads
	pending  int  // queued thread starts
	exited   bool // Exit called
	Instret  uint64
}

type pendingStart struct {
	proc  *Process
	entry core.Pointer
	regs  map[int]word.Word
}

// NewProcess creates an empty process in a fresh protection domain.
func (k *Kernel) NewProcess() *Process {
	p := &Process{ID: len(k.procs) + 1, Domain: k.NewDomain(), k: k}
	k.procs = append(k.procs, p)
	return p
}

// Processes returns all processes ever created.
func (k *Kernel) Processes() []*Process { return k.procs }

// AllocSegment allocates a segment owned by the process.
func (p *Process) AllocSegment(size uint64) (core.Pointer, error) {
	if p.exited {
		return core.Pointer{}, fmt.Errorf("kernel: process %d has exited", p.ID)
	}
	seg, err := p.k.AllocSegment(size)
	if err != nil {
		return core.Pointer{}, err
	}
	p.segments = append(p.segments, seg)
	return seg, nil
}

// AllocSegmentLazy allocates a process-owned lazy segment (pages
// materialize on first touch via the demand pager).
func (p *Process) AllocSegmentLazy(size uint64) (core.Pointer, error) {
	if p.exited {
		return core.Pointer{}, fmt.Errorf("kernel: process %d has exited", p.ID)
	}
	seg, err := p.k.AllocSegmentLazy(size)
	if err != nil {
		return core.Pointer{}, err
	}
	p.segments = append(p.segments, seg)
	return seg, nil
}

// LoadProgram loads a user program into a process-owned code segment.
func (p *Process) LoadProgram(prog *asm.Program) (core.Pointer, error) {
	seg, err := p.AllocSegment(prog.ByteSize())
	if err != nil {
		return core.Pointer{}, err
	}
	if err := p.k.WriteWords(seg, prog.Words); err != nil {
		return core.Pointer{}, err
	}
	return core.Make(core.PermExecuteUser, seg.LogLen(), seg.Base())
}

// Start requests a thread in this process at entry. If a hardware slot
// is free the thread starts immediately; otherwise the start is queued
// and dispatched by RunScheduled when a slot opens.
func (p *Process) Start(entry core.Pointer, regs map[int]word.Word) error {
	if p.exited {
		return fmt.Errorf("kernel: process %d has exited", p.ID)
	}
	if th, err := p.k.Spawn(p.Domain, entry, regs); err == nil {
		p.live++
		p.k.owner[th] = p
		return nil
	}
	p.pending++
	p.k.queue = append(p.k.queue, pendingStart{proc: p, entry: entry, regs: regs})
	return nil
}

// Live returns the number of running hardware threads of the process.
func (p *Process) Live() int { return p.live }

// Pending returns the number of queued thread starts.
func (p *Process) Pending() int { return p.pending }

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.exited }

// Exit tears the process down: all owned segments are freed (zeroed
// and their pages reclaimed), revoking every capability into them —
// the single-address-space hygiene of Sec 4.3. Live threads must have
// finished first.
func (p *Process) Exit() error {
	if p.exited {
		return nil
	}
	if p.live > 0 || p.pending > 0 {
		return fmt.Errorf("kernel: process %d still has %d live / %d pending threads",
			p.ID, p.live, p.pending)
	}
	for _, seg := range p.segments {
		if err := p.k.FreeSegment(seg); err != nil {
			return err
		}
	}
	p.segments = nil
	p.exited = true
	return nil
}

// reap removes finished hardware threads, credits their instruction
// counts to their processes, and dispatches queued starts into the
// freed slots. It returns the number of threads reaped.
func (k *Kernel) reap() int {
	n := 0
	for _, t := range append([]*machine.Thread(nil), k.M.Threads()...) {
		if !t.Done() {
			continue
		}
		p := k.owner[t]
		if p == nil {
			continue // not process-managed (raw Spawn)
		}
		p.Instret += t.Instret
		p.live--
		delete(k.owner, t)
		if err := k.M.RemoveThread(t); err == nil {
			n++
		}
	}
	for len(k.queue) > 0 {
		ps := k.queue[0]
		th, err := k.Spawn(ps.proc.Domain, ps.entry, ps.regs)
		if err != nil {
			break // no slot yet
		}
		k.queue = k.queue[1:]
		ps.proc.pending--
		ps.proc.live++
		k.owner[th] = ps.proc
	}
	return n
}

// RunScheduled drives the machine like Run but reaps finished threads
// and dispatches queued process threads as slots free up, so workloads
// larger than the hardware thread count complete. It calls Step once
// per cycle, with no fast-forward and no back-to-back issue (both
// happen only inside Run), and returns the cycles executed, by which
// the machine's cycle count has advanced.
func (k *Kernel) RunScheduled(maxCycles uint64) uint64 {
	var c uint64
	for c = 0; c < maxCycles; c++ {
		k.reap()
		if k.M.Done() && len(k.queue) == 0 {
			break
		}
		k.M.Step()
	}
	k.reap()
	return c
}

package machine

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// execute runs one instruction for t at the current cycle.
//
// Fault discipline: protection faults are raised *before* any state is
// committed and do not advance the instruction pointer, so a fault
// handler that repairs the cause (e.g. maps a page) can simply return
// true and the instruction re-executes. TRAP is the exception — it
// advances the IP first, so the kernel's return path resumes after the
// trap.
func (m *Machine) execute(t *Thread) {
	if t.IP.Addr()%word.BytesPerWord != 0 {
		m.fault(t, &core.Fault{Code: core.FaultBounds, Op: "FETCH", Msg: "unaligned instruction pointer"})
		return
	}
	if m.Remote != nil && m.Remote.IsRemote(t.IP.Addr()) {
		// Execute pointers are valid machine-wide (Sec 3): code homed
		// elsewhere fetches each instruction over the mesh — correct,
		// and deliberately slow; real software migrates code.
		m.remote(remFetch, t, t.IP.Addr(), word.Word{}, 0)
		return
	}
	if m.jit != nil && m.jitStep(t) {
		return
	}
	inst, err := m.fetchDecoded(t.IP.Addr())
	if err != nil {
		m.fault(t, err)
		return
	}
	if m.hooked() && !m.observe(t, &inst) {
		return
	}
	m.dispatch(t, &inst, false)
}

// fetchDecoded fetches and decodes the local instruction word at vaddr,
// consulting the decoded-instruction cache first. The address is
// translated on every fetch — hit or miss — so translation/TLB counters
// and page-fault behavior are bit-identical to an uncached fetch; a hit
// skips only the physical read and the decode. Decode failures surface
// as FETCH permission faults and are never cached.
func (m *Machine) fetchDecoded(vaddr uint64) (isa.Inst, error) {
	e := &m.dec[(vaddr>>3)&decMask]
	if e.key == vaddr+1 {
		if _, _, err := m.Space.Translate(vaddr); err != nil {
			return isa.Inst{}, err
		}
		return e.inst, nil
	}
	paddr, _, err := m.Space.Translate(vaddr)
	if err != nil {
		return isa.Inst{}, err
	}
	w, err := m.Space.Phys.ReadWord(paddr)
	if err != nil {
		return isa.Inst{}, err
	}
	inst, derr := isa.Decode(w)
	if derr != nil {
		return isa.Inst{}, &core.Fault{Code: core.FaultPerm, Op: "FETCH", Msg: derr.Error()}
	}
	e.key = vaddr + 1
	e.inst = inst
	return inst, nil
}

// hooked reports whether a per-instruction observation hook is live.
// Compiled blocks do not run then (jitStep), so observe only ever sees
// interpreted instructions.
func (m *Machine) hooked() bool {
	return m.Integrity != nil || m.OnIssue != nil || m.Profiler != nil ||
		(m.Tracer != nil && m.Tracer.Enabled(telemetry.EvInstr))
}

// observe runs the observation hooks on inst as it issues for t: the
// Integrity veto, OnIssue, the Profiler sample and the Tracer's
// instruction event. It reports false when Integrity vetoed the
// instruction, whose fault is then already raised.
func (m *Machine) observe(t *Thread, inst *isa.Inst) bool {
	if m.Integrity != nil {
		if err := m.Integrity(t, *inst); err != nil {
			m.fault(t, err)
			return false
		}
	}
	if m.OnIssue != nil {
		m.OnIssue(t, *inst)
	}
	if m.Profiler != nil {
		m.Profiler.Sample(t.IP.Addr())
	}
	if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvInstr) {
		m.Tracer.Emit(telemetry.Event{Cycle: m.now, Kind: telemetry.EvInstr,
			Thread: t.ID, Cluster: t.cluster, Domain: t.Domain,
			Addr: t.IP.Addr(), Detail: inst.String()})
	}
	return true
}

// observeRemoteRT records a completed remote access's round trip into
// the remote-latency histogram. Call only with done != NeverDone.
func (m *Machine) observeRemoteRT(issue, done uint64) {
	if m.hists != nil {
		m.hists.RemoteRT.Observe(done - issue)
	}
}

// finishRemoteFetch applies the fetch network latency after the
// instruction has executed: a still-ready thread blocks until the fetch
// would have arrived, and a thread already blocked on a slower memory
// reference keeps the later wakeup.
func (m *Machine) finishRemoteFetch(t *Thread, fetchDone uint64) {
	if t.State == Ready && fetchDone > m.now+1 {
		t.State = Blocked
		t.blockedUntil = fetchDone
	} else if t.State == Blocked && fetchDone > t.blockedUntil {
		t.blockedUntil = fetchDone
	}
}

// remote performs t's access to addr, whose home is another node: an
// instruction fetch, or a load or store whose checks have passed. rd is
// a load's destination register, val a store's value. Under DeferRemote
// the access is parked for the cycle barrier and the thread blocks;
// otherwise, and while ServiceRemote replays parked accesses (a
// remotely fetched LD to a third node, say), it completes at once.
func (m *Machine) remote(kind remoteKind, t *Thread, addr uint64, val word.Word, rd int) {
	p := pendingRemote{kind: kind, t: t, addr: addr, val: val, rd: rd, cycle: m.now}
	if m.DeferRemote && !m.servicing {
		m.pending = append(m.pending, p)
		t.State = Blocked
		t.blockedUntil = pendingSentinel
		return
	}
	m.completeRemote(p)
}

// ServiceRemote completes every remote access parked during Step. The
// multicomputer calls it at the per-cycle barrier, visiting nodes in id
// order, so cross-node traffic is serialized identically whether the
// nodes stepped serially or in parallel. Each access replays with the
// cycle stamp of its issue (m.now), so latencies, blocking, and traces
// match an inline access exactly.
func (m *Machine) ServiceRemote() {
	if len(m.pending) == 0 {
		return
	}
	m.servicing = true
	for i := range m.pending {
		p := m.pending[i]
		m.pending[i] = pendingRemote{} // drop the *Thread reference
		m.now = p.cycle
		p.t.State = Ready
		p.t.blockedUntil = 0
		m.completeRemote(p)
	}
	m.pending = m.pending[:0]
	m.servicing = false
	m.now = m.cycle
}

// completeRemote carries out remote access p at its issue cycle and
// commits it: a fetched instruction is decoded and dispatched, a load
// writes its register, and either way the thread blocks for the round
// trip. An access the fabric consumed parks the thread forever (lose).
func (m *Machine) completeRemote(p pendingRemote) {
	t := p.t
	var v word.Word
	var done uint64
	var err error
	switch p.kind {
	case remFetch, remLoad:
		v, done, err = m.Remote.ReadWord(p.addr, p.cycle)
	case remStore:
		done, err = m.Remote.WriteWord(p.addr, p.val, p.cycle)
	case remLoadByte:
		v, done, err = m.Remote.ReadWord(p.addr&^7, p.cycle)
	case remStoreByte:
		// Read-modify-write of the containing word; the tag is cleared
		// like any partial overwrite.
		base := p.addr &^ 7
		v, done, err = m.Remote.ReadWord(base, p.cycle)
		if err == nil && done != NeverDone {
			shift := (p.addr & 7) * 8
			v.Bits = v.Bits&^(uint64(0xff)<<shift) | uint64(byte(p.val.Bits))<<shift
			v.Tag = false
			done, err = m.Remote.WriteWord(base, v, done)
		}
	}
	if err != nil {
		m.fault(t, err)
		return
	}
	if done == NeverDone {
		m.lose(t)
		return
	}
	m.observeRemoteRT(p.cycle, done)
	switch p.kind {
	case remFetch:
		inst, derr := isa.Decode(v)
		if derr != nil {
			m.fault(t, &core.Fault{Code: core.FaultPerm, Op: "FETCH", Msg: derr.Error()})
			return
		}
		if m.observe(t, &inst) {
			m.dispatch(t, &inst, false)
		}
		m.finishRemoteFetch(t, done)
		return
	case remLoad:
		t.Regs[p.rd] = v
	case remLoadByte:
		t.Regs[p.rd] = word.FromInt(int64(byte(v.Bits >> ((p.addr & 7) * 8))))
	}
	m.block(t, done)
	if m.advance(t) {
		m.retire(t)
	}
}

// dispatch executes one decoded instruction for t. It is the one place
// an instruction's semantics live: the interpreter runs it with proven
// false, compiled blocks (blockexec.go) with the verifier's verdict for
// the instruction's site. A proven instruction skips the Sec 2.2 check
// sequence: its effective address, LEA/LEAB result, branch target and
// IP advance come from core's unchecked forms, which return what the
// checked forms return when every check passes. dispatch reports
// whether a proven branch was taken; unlike an interpreted one, it
// leaves the translator's heat signal to the block executor, which
// knows whether the target chains.
//
// It is straight-line code — no closures, no defers — because it runs
// once per simulated instruction.
func (m *Machine) dispatch(t *Thread, inst *isa.Inst, proven bool) (jumped bool) {
	r := &t.Regs

	switch inst.Op {
	case isa.NOP:
	case isa.HALT:
		t.State = Halted
		m.retire(t)
		return false

	// Integer results are written untagged: any pointer operand of a
	// non-pointer operation has its tag cleared in the result (Sec 2.2).
	case isa.ADD:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() + r[inst.Rb].Int())
	case isa.ADDI:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() + inst.Imm)
	case isa.SUB:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() - r[inst.Rb].Int())
	case isa.SUBI:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() - inst.Imm)
	case isa.MUL:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() * r[inst.Rb].Int())
	case isa.AND:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() & r[inst.Rb].Int())
	case isa.OR:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() | r[inst.Rb].Int())
	case isa.XOR:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() ^ r[inst.Rb].Int())
	case isa.SHL:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() << (uint64(r[inst.Rb].Int()) & 63))
	case isa.SHLI:
		r[inst.Rd] = word.FromInt(r[inst.Ra].Int() << (uint64(inst.Imm) & 63))
	case isa.SHR:
		r[inst.Rd] = word.FromInt(int64(uint64(r[inst.Ra].Int()) >> (uint64(r[inst.Rb].Int()) & 63)))
	case isa.SHRI:
		r[inst.Rd] = word.FromInt(int64(uint64(r[inst.Ra].Int()) >> (uint64(inst.Imm) & 63)))
	case isa.SLT:
		r[inst.Rd] = word.FromBool(r[inst.Ra].Int() < r[inst.Rb].Int())
	case isa.SLTI:
		r[inst.Rd] = word.FromBool(r[inst.Ra].Int() < inst.Imm)
	case isa.SEQ:
		r[inst.Rd] = word.FromBool(r[inst.Ra] == r[inst.Rb])
	case isa.SEQI:
		r[inst.Rd] = word.FromBool(r[inst.Ra].Int() == inst.Imm)
	case isa.MOV:
		r[inst.Rd] = r[inst.Ra] // verbatim copy: copying a capability is legal
	case isa.LDI:
		r[inst.Rd] = word.FromInt(inst.Imm)

	case isa.BR, isa.BEQZ, isa.BNEZ:
		if inst.Op == isa.BR || (r[inst.Ra].Int() == 0) == (inst.Op == isa.BEQZ) {
			if proven {
				t.IP = core.UncheckedAdvance(t.IP, (inst.Imm+1)*word.BytesPerWord)
				m.retire(t)
				return true
			}
			m.branch(t, inst.Imm)
			return false
		}

	case isa.JMP, isa.JMPL:
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		ip, err := core.JumpTarget(p)
		if err != nil {
			m.fault(t, err)
			return false
		}
		if ip.Addr()%word.BytesPerWord != 0 {
			m.fault(t, &core.Fault{Code: core.FaultBounds, Op: "JMP", Msg: "unaligned jump target"})
			return false
		}
		if inst.Op == isa.JMPL {
			ret, err := core.LEA(t.IP, word.BytesPerWord)
			if err != nil {
				m.fault(t, err)
				return false
			}
			r[inst.Rd] = ret.Word()
		}
		t.IP = ip
		m.retire(t)
		return false

	case isa.TRAP:
		// Advance first: the kernel resumes the thread after the trap.
		if !m.advance(t) {
			return false
		}
		m.stats.Traps++
		if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvTrap) {
			m.Tracer.Emit(telemetry.Event{Cycle: m.now, Kind: telemetry.EvTrap,
				Thread: t.ID, Cluster: t.cluster, Domain: t.Domain, Code: inst.Imm})
		}
		if m.Flight != nil {
			m.Flight.Record(telemetry.Event{Cycle: m.now, Kind: telemetry.EvTrap,
				Thread: t.ID, Cluster: t.cluster, Domain: t.Domain, Code: inst.Imm})
		}
		m.retire(t)
		if m.OnTrap == nil {
			m.fault(t, &core.Fault{Code: core.FaultPriv, Op: "TRAP", Msg: "no trap handler installed"})
			return false
		}
		if m.cfg.TrapCost > 0 {
			t.State = Blocked
			t.blockedUntil = m.now + m.cfg.TrapCost
		}
		if err := m.OnTrap(m, t, inst.Imm); err != nil {
			m.fault(t, err)
		}
		return false

	case isa.LD:
		a := m.effectiveAddress(t, inst, proven)
		if a == noAddr {
			return false
		}
		if m.Remote != nil && m.Remote.IsRemote(a) {
			m.remote(remLoad, t, a, word.Word{}, inst.Rd)
			return false
		}
		v, done, err := m.Cache.ReadWord(a, m.now)
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = v
		m.block(t, done)
	case isa.ST:
		a := m.effectiveAddress(t, inst, proven)
		if a == noAddr {
			return false
		}
		if m.Remote != nil && m.Remote.IsRemote(a) {
			m.remote(remStore, t, a, r[inst.Rb], 0)
			return false
		}
		done, err := m.Cache.WriteWord(a, r[inst.Rb], m.now)
		if err != nil {
			m.fault(t, err)
			return false
		}
		m.block(t, done)

	case isa.LDB:
		a := m.effectiveAddress(t, inst, proven)
		if a == noAddr {
			return false
		}
		if m.Remote != nil && m.Remote.IsRemote(a) {
			m.remote(remLoadByte, t, a, word.Word{}, inst.Rd)
			return false
		}
		done, _, err := m.Cache.Access(a, false, m.now)
		var bval byte
		if err == nil {
			bval, err = m.Space.ByteAt(a)
		}
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = word.FromInt(int64(bval))
		m.block(t, done)
	case isa.STB:
		a := m.effectiveAddress(t, inst, proven)
		if a == noAddr {
			return false
		}
		if m.Remote != nil && m.Remote.IsRemote(a) {
			m.remote(remStoreByte, t, a, r[inst.Rb], 0)
			return false
		}
		done, _, err := m.Cache.Access(a, true, m.now)
		if err == nil {
			err = m.Space.SetByteAt(a, byte(r[inst.Rb].Bits))
		}
		if err != nil {
			m.fault(t, err)
			return false
		}
		m.block(t, done)

	case isa.LEA, isa.LEAI, isa.LEAB, isa.LEABI:
		off := inst.Imm
		if inst.Op == isa.LEA || inst.Op == isa.LEAB {
			off = r[inst.Rb].Int()
		}
		fromBase := inst.Op == isa.LEAB || inst.Op == isa.LEABI
		if proven {
			if fromBase {
				r[inst.Rd] = core.UncheckedLEAB(r[inst.Ra], off)
			} else {
				r[inst.Rd] = core.UncheckedLEA(r[inst.Ra], off)
			}
			break
		}
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		var q core.Pointer
		if fromBase {
			q, err = core.LEAB(p, off)
		} else {
			q, err = core.LEA(p, off)
		}
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = q.Word()
	case isa.RESTRICT:
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		q, err := core.Restrict(p, core.Perm(r[inst.Rb].Uint()&0xf))
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = q.Word()
	case isa.SUBSEG:
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		q, err := core.SubSeg(p, uint(r[inst.Rb].Uint()&0x3f))
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = q.Word()
	case isa.SETPTR:
		q, err := core.SetPtr(r[inst.Ra], t.Privileged())
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = q.Word()
	case isa.ISPTR:
		r[inst.Rd] = word.FromBool(core.IsPointer(r[inst.Ra]))
	case isa.GETPERM:
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = word.FromInt(int64(p.Perm()))
	case isa.GETLEN:
		p, err := core.Decode(r[inst.Ra])
		if err != nil {
			m.fault(t, err)
			return false
		}
		r[inst.Rd] = word.FromInt(int64(p.LogLen()))
	case isa.MOVIP:
		r[inst.Rd] = t.IP.Word()

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSLT:
		// Floating-point operands ride in untagged words as IEEE-754
		// bits; feeding a pointer to an FP unit clears its tag like any
		// other non-pointer operation.
		a := math.Float64frombits(r[inst.Ra].Uint())
		bv := math.Float64frombits(r[inst.Rb].Uint())
		switch inst.Op {
		case isa.FADD:
			r[inst.Rd] = word.FromUint(math.Float64bits(a + bv))
		case isa.FSUB:
			r[inst.Rd] = word.FromUint(math.Float64bits(a - bv))
		case isa.FMUL:
			r[inst.Rd] = word.FromUint(math.Float64bits(a * bv))
		case isa.FDIV:
			r[inst.Rd] = word.FromUint(math.Float64bits(a / bv))
		case isa.FSLT:
			r[inst.Rd] = word.FromBool(a < bv)
		}
	case isa.ITOF:
		r[inst.Rd] = word.FromUint(math.Float64bits(float64(r[inst.Ra].Int())))
	case isa.FTOI:
		r[inst.Rd] = word.FromInt(int64(math.Float64frombits(r[inst.Ra].Uint())))
	}

	if proven {
		t.IP = core.UncheckedAdvance(t.IP, word.BytesPerWord)
		m.retire(t)
	} else if m.advance(t) {
		m.retire(t)
	}
	return false
}

// noAddr is what effectiveAddress returns for an access that faulted:
// addresses are 54 bits wide, so no access can reach it.
const noAddr = ^uint64(0)

// effectiveAddress returns the address the load or store inst accesses,
// or noAddr after raising its fault. A proven access skips the checks:
// its address is the one the checked sequence computes when nothing
// faults — the base register's address field plus the displacement,
// wrapped to 54 bits. The wrapper stays small enough to inline, so the
// proven path costs no call.
func (m *Machine) effectiveAddress(t *Thread, inst *isa.Inst, proven bool) uint64 {
	if proven {
		return (t.Regs[inst.Ra].Bits + uint64(inst.Imm)) & core.AddrMask
	}
	return m.checkedAddress(t, inst)
}

// checkedAddress performs the full pre-issue check sequence of Sec 2.2
// for a load or store: decode the pointer operand, apply the
// displacement with a bounds-checked LEA, check the permission and the
// span of the word or byte accessed, and require natural alignment
// (byte accesses have none, which is how single-byte segments become
// usable). After it succeeds "the access is guaranteed not to cause a
// protection violation".
func (m *Machine) checkedAddress(t *Thread, inst *isa.Inst) uint64 {
	size := uint64(word.BytesPerWord)
	if inst.Op == isa.LDB || inst.Op == isa.STB {
		size = 1
	}
	addrWord := t.Regs[inst.Ra]
	if inst.Imm != 0 {
		p, err := core.Decode(addrWord)
		if err != nil {
			m.fault(t, err)
			return noAddr
		}
		p, err = core.LEA(p, inst.Imm)
		if err != nil {
			m.fault(t, err)
			return noAddr
		}
		addrWord = p.Word()
	}
	var p core.Pointer
	var err error
	if inst.Op == isa.ST || inst.Op == isa.STB {
		p, err = core.CheckStore(addrWord, size)
	} else {
		p, err = core.CheckLoad(addrWord, size)
	}
	if err != nil {
		m.fault(t, err)
		return noAddr
	}
	if p.Addr()%size != 0 {
		m.fault(t, &core.Fault{Code: core.FaultBounds, Op: "MEM", Msg: "unaligned access"})
		return noAddr
	}
	return p.Addr()
}

// branch moves the IP by imm instructions relative to the *next*
// instruction, through a bounds-checked LEA — control flow cannot leave
// the code segment.
func (m *Machine) branch(t *Thread, imm int64) {
	ip, err := core.LEA(t.IP, (imm+1)*word.BytesPerWord)
	if err != nil {
		m.fault(t, err)
		return
	}
	t.IP = ip
	if m.jit != nil {
		// Taken-branch targets are the translator's heat signal: hot
		// loop heads cross the compile threshold here.
		m.jit.NoteBranch(ip.Addr())
	}
	m.retire(t)
}

// advance steps the IP to the next instruction; a bounds fault here
// means the thread ran off the end of its code segment.
func (m *Machine) advance(t *Thread) bool {
	ip, err := core.LEA(t.IP, word.BytesPerWord)
	if err != nil {
		m.fault(t, err)
		return false
	}
	t.IP = ip
	return true
}

// lose parks the thread forever: its remote access was consumed by the
// fabric and will never complete. No architectural effect is committed
// — the IP stays on the access, no register or memory changes — so the
// thread hangs exactly where a real node would, waiting for a reply
// that is not coming. The owner's watchdog is what notices.
func (m *Machine) lose(t *Thread) {
	if m.Flight != nil {
		m.Flight.Note(m.now, telemetry.EvNoCMsg,
			fmt.Sprintf("thread %d lost: remote access consumed by fabric", t.ID))
	}
	t.State = Blocked
	t.blockedUntil = NeverDone
}

// block parks the thread until its outstanding memory reference
// completes. A thread blocked until cycle+1 is ready again on the very
// next cycle, so single-cycle cache hits sustain one instruction per
// cycle.
func (m *Machine) block(t *Thread, done uint64) {
	if done > m.now+1 {
		t.State = Blocked
		t.blockedUntil = done
	}
}

func (m *Machine) retire(t *Thread) {
	t.Instret++
	m.stats.Instructions++
}

// fault routes a protection or translation fault to the kernel handler
// or, absent one, terminates the thread.
func (m *Machine) fault(t *Thread, err error) {
	m.stats.Faults++
	if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvFault) {
		m.Tracer.Emit(telemetry.Event{Cycle: m.now, Kind: telemetry.EvFault,
			Thread: t.ID, Cluster: t.cluster, Domain: t.Domain,
			Addr: t.IP.Addr(), Code: int64(core.CodeOf(err)), Detail: err.Error()})
	}
	if m.Flight != nil {
		m.Flight.Record(telemetry.Event{Cycle: m.now, Kind: telemetry.EvFault,
			Thread: t.ID, Cluster: t.cluster, Domain: t.Domain,
			Addr: t.IP.Addr(), Code: int64(core.CodeOf(err)), Detail: err.Error()})
	}
	if m.OnFault != nil && m.OnFault(m, t, err) {
		return
	}
	t.State = Faulted
	t.Fault = err
	if m.OnFlightDump != nil {
		m.OnFlightDump("machine fault: " + err.Error())
	}
}

package capverify

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/word"
)

// opKind classifies every opcode for the verifier's dispatch. The
// exhaustive ISA metadata test asserts that no opcode maps to
// kUnclassified, so adding an instruction without teaching the
// verifier about it fails the build's tests.
type opKind uint8

const (
	kUnclassified opKind = iota
	kNop
	kHalt
	kALU    // integer/compare ALU forms, register or immediate
	kBr     // unconditional relative branch
	kCondBr // BEQZ / BNEZ
	kJump   // JMP / JMPL
	kTrap
	kMem      // LD / ST / LDB / STB
	kLea      // LEA / LEAI / LEAB / LEABI
	kRestrict // RESTRICT
	kSubseg   // SUBSEG
	kSetptr   // SETPTR
	kIsptr    // ISPTR
	kGetMeta  // GETPERM / GETLEN
	kMovip    // MOVIP
	kFP       // floating point, incl. ITOF/FTOI
)

var opKinds = [isa.NumOps]opKind{
	isa.NOP:  kNop,
	isa.HALT: kHalt,

	isa.ADD: kALU, isa.ADDI: kALU, isa.SUB: kALU, isa.SUBI: kALU,
	isa.MUL: kALU, isa.AND: kALU, isa.OR: kALU, isa.XOR: kALU,
	isa.SHL: kALU, isa.SHLI: kALU, isa.SHR: kALU, isa.SHRI: kALU,
	isa.SLT: kALU, isa.SLTI: kALU, isa.SEQ: kALU, isa.SEQI: kALU,
	isa.MOV: kALU, isa.LDI: kALU,

	isa.BR: kBr, isa.BEQZ: kCondBr, isa.BNEZ: kCondBr,
	isa.JMP: kJump, isa.JMPL: kJump, isa.TRAP: kTrap,

	isa.LD: kMem, isa.ST: kMem, isa.LDB: kMem, isa.STB: kMem,

	isa.LEA: kLea, isa.LEAI: kLea, isa.LEAB: kLea, isa.LEABI: kLea,
	isa.RESTRICT: kRestrict, isa.SUBSEG: kSubseg,
	isa.SETPTR: kSetptr, isa.ISPTR: kIsptr,
	isa.GETPERM: kGetMeta, isa.GETLEN: kGetMeta, isa.MOVIP: kMovip,

	isa.FADD: kFP, isa.FSUB: kFP, isa.FMUL: kFP, isa.FDIV: kFP,
	isa.FSLT: kFP, isa.ITOF: kFP, isa.FTOI: kFP,
}

// Handles reports whether the verifier has a transfer function for op.
func Handles(op isa.Op) bool {
	return int(op) < len(opKinds) && opKinds[op] != kUnclassified
}

// execPtrValue builds the abstract execute pointer installed in a
// register or implied by the IP at word index pc, under privilege mask
// priv.
func (v *verifier) execPtrValue(pc int, priv uint8) Value {
	off := uint64(pc) * word.BytesPerWord
	res := Value{
		Kind:  KPtr,
		LenLo: uint8(v.img.CodeLog), LenHi: uint8(v.img.CodeLog),
		OffLo: off, OffHi: off,
		Mod: exactMod, Rem: off & (exactMod - 1),
		Region: RegCode,
	}
	if priv&privUser != 0 {
		res.Perms |= 1 << core.PermExecuteUser
	}
	if priv&privPriv != 0 {
		res.Perms |= 1 << core.PermExecutePriv
	}
	return res.canon()
}

// fallthru emits the sequential-advance check and, when it passes, the
// pc+1 edge.
func (v *verifier) fallthru(out *stepOut, pc int, st state) {
	if ctrlCheck(out, pc+1, v.img.SegWords(), "sequential advance") {
		out.edges = append(out.edges, edge{pc: pc + 1, st: st})
	}
}

// step abstractly executes the decodable instruction at pc over the
// in-state, producing successor edges and the verdicts of every
// dynamic check the hardware would perform. The result is the
// verifier's own buffer, valid until the next step.
func (v *verifier) step(pc int, in state) *stepOut {
	out := &v.out
	out.reset()
	inst := v.img.Insts[pc]
	segWords := v.img.SegWords()

	switch opKinds[inst.Op] {
	case kNop:
		v.fallthru(out, pc, in)

	case kHalt:
		// stops the thread; no checks, no successors

	case kALU:
		v.stepALU(out, pc, in, inst)

	case kBr:
		t := pc + 1 + int(inst.Imm)
		if ctrlCheck(out, t, segWords, "branch target") {
			out.edges = append(out.edges, edge{pc: t, st: in})
		}

	case kCondBr:
		v.stepCondBr(out, pc, in, inst)

	case kJump:
		v.stepJump(out, pc, in, inst)

	case kTrap:
		// TRAP advances the IP before entering the kernel, which may
		// rewrite the entire register file before resuming.
		if ctrlCheck(out, pc+1, segWords, "trap return advance") {
			st := in
			havocRegs(&st)
			out.edges = append(out.edges, edge{pc: pc + 1, st: st})
		}

	case kMem:
		v.stepMem(out, pc, in, inst)

	case kLea:
		v.stepLea(out, pc, in, inst)

	case kRestrict:
		v.stepRestrict(out, pc, in, inst)

	case kSubseg:
		v.stepSubseg(out, pc, in, inst)

	case kSetptr:
		v.stepSetptr(out, pc, in, inst)

	case kIsptr:
		var res Value
		switch in.regs[inst.Ra].Kind {
		case KPtr:
			res = IntExact(1)
		case KInt, KUninit:
			res = IntExact(0)
		default:
			res = IntRange(0, 1)
		}
		st := in
		st.def(inst.Rd, pc, res, pred{kind: pIsPtr, src: int8(inst.Ra), srcDef: in.defs[inst.Ra]})
		v.fallthru(out, pc, st)

	case kGetMeta:
		pv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, inst.Op.String())
		if !ok {
			return out
		}
		var res Value
		if inst.Op == isa.GETPERM {
			lo, hi := 15, 0
			for p := 0; p < 16; p++ {
				if pv.Perms&(1<<p) != 0 {
					if p < lo {
						lo = p
					}
					if p > hi {
						hi = p
					}
				}
			}
			res = IntRange(int64(lo), int64(hi))
		} else {
			res = IntRange(int64(pv.LenLo), int64(pv.LenHi))
		}
		st := in
		st.def(inst.Rd, pc, res, pred{})
		v.fallthru(out, pc, st)

	case kMovip:
		st := in
		st.def(inst.Rd, pc, v.execPtrValue(pc, in.priv), pred{})
		v.fallthru(out, pc, st)

	case kFP:
		var res Value
		if inst.Op == isa.FSLT {
			res = IntRange(0, 1)
		} else {
			res = IntAny()
		}
		st := in
		st.def(inst.Rd, pc, res, pred{})
		v.fallthru(out, pc, st)
	}
	return out
}

// stepALU covers the integer, compare, MOV and LDI forms: pure
// register writes that cannot fault.
func (v *verifier) stepALU(out *stepOut, pc int, in state, inst isa.Inst) {
	st := in
	a := asInt(in.regs[inst.Ra])
	b := func() Value { return asInt(in.regs[inst.Rb]) }
	var res Value
	var pr pred

	switch inst.Op {
	case isa.ADD:
		res = addInt(a, b())
	case isa.ADDI:
		res = addInt(a, IntExact(inst.Imm))
	case isa.SUB:
		res = subInt(a, b())
	case isa.SUBI:
		res = subInt(a, IntExact(inst.Imm))
	case isa.MUL:
		res = mulInt(a, b())
	case isa.AND:
		res = bitwiseInt('&', a, b())
	case isa.OR:
		res = bitwiseInt('|', a, b())
	case isa.XOR:
		res = bitwiseInt('^', a, b())
	case isa.SHL:
		res = shlInt(a, b())
	case isa.SHLI:
		res = shlInt(a, IntExact(inst.Imm))
	case isa.SHR:
		res = shrInt(a, b())
	case isa.SHRI:
		res = shrInt(a, IntExact(inst.Imm))

	case isa.SLT, isa.SLTI:
		bv := IntExact(inst.Imm)
		if inst.Op == isa.SLT {
			bv = b()
		}
		always, never := intLt(a, bv)
		res = boolVal(always, never)
		if k, ok := bv.IsExactInt(); ok {
			pr = pred{kind: pLtK, src: int8(inst.Ra), srcDef: in.defs[inst.Ra], k: k}
		}

	case isa.SEQ:
		always, never := seqVals(in.regs[inst.Ra], in.regs[inst.Rb])
		res = boolVal(always, never)
		if k, ok := b().IsExactInt(); ok {
			pr = pred{kind: pEqK, src: int8(inst.Ra), srcDef: in.defs[inst.Ra], k: k}
		}
	case isa.SEQI:
		// Compares the bit image only (tags are ignored by SEQI).
		eqAlways := false
		if x, ok := a.IsExactInt(); ok && x == inst.Imm {
			eqAlways = true
		}
		eqNever := inst.Imm < a.Lo || inst.Imm > a.Hi ||
			(a.Mod > 1 && uint64(inst.Imm)&(a.Mod-1) != a.Rem)
		res = boolVal(eqAlways, eqNever)
		pr = pred{kind: pEqK, src: int8(inst.Ra), srcDef: in.defs[inst.Ra], k: inst.Imm}

	case isa.MOV:
		// A verbatim copy: capabilities, provenance and predicate facts
		// all travel with the value.
		st.regs[inst.Rd] = in.regs[inst.Ra]
		st.defs[inst.Rd] = in.defs[inst.Ra]
		st.preds[inst.Rd] = in.preds[inst.Ra]
		st.rels.kill(int8(inst.Rd))
		st.rels.derive(int8(inst.Rd), int8(inst.Ra), 0)
		v.fallthru(out, pc, st)
		return
	case isa.LDI:
		res = IntExact(inst.Imm)
	}

	if (inst.Op == isa.ADDI || inst.Op == isa.SUBI) && inst.Rd == inst.Ra {
		// A self-increment of a loop counter: maintain affine relations
		// through the write instead of killing them (rel.go).
		k := inst.Imm
		if inst.Op == isa.SUBI {
			k = -inst.Imm
		}
		saved := st.rels
		saved.shiftCtr(int8(inst.Rd), k)
		st.def(inst.Rd, pc, res, pr)
		st.rels = saved
		v.fallthru(out, pc, st)
		return
	}

	st.def(inst.Rd, pc, res, pr)
	v.fallthru(out, pc, st)
}

// seqVals decides full-word equality (SEQ compares tag and bits).
func seqVals(a, b Value) (always, never bool) {
	ax, aInt := a.IsExactInt() // KUninit or exact KInt: untagged, known bits
	bx, bInt := b.IsExactInt()
	if aInt && bInt {
		return ax == bx, ax != bx
	}
	aPtr, bPtr := a.Kind == KPtr, b.Kind == KPtr
	aData := a.Kind == KInt || a.Kind == KUninit
	bData := b.Kind == KInt || b.Kind == KUninit
	if (aPtr && bData) || (bPtr && aData) {
		return false, true // tags differ
	}
	if aPtr && bPtr {
		if a.Perms&b.Perms == 0 ||
			a.LenHi < b.LenLo || b.LenHi < a.LenLo ||
			a.OffHi < b.OffLo || b.OffHi < a.OffLo {
			return false, true
		}
		if a.Region != RegAny && b.Region != RegAny && a.Region != b.Region {
			return false, true
		}
		ap, aOne := a.SinglePerm()
		bp, bOne := b.SinglePerm()
		aOff, aExact := a.ExactOff()
		bOff, bExact := b.ExactOff()
		if aOne && bOne && ap == bp &&
			a.LenLo == a.LenHi && b.LenLo == b.LenHi && a.LenLo == b.LenLo &&
			aExact && bExact && aOff == bOff &&
			a.Region == b.Region && a.Region != RegAny {
			return true, false
		}
	}
	return false, false
}

// stepCondBr handles BEQZ/BNEZ: the branch-target LEA check only
// executes on taken paths, the advance check only on fall-through
// paths, and each surviving edge is refined by the condition and any
// predicate fact attached to the tested register.
func (v *verifier) stepCondBr(out *stepOut, pc int, in state, inst isa.Inst) {
	segWords := v.img.SegWords()
	cv := in.regs[inst.Ra]
	zeroTaken := inst.Op == isa.BEQZ

	takenPossible := canBeNonzero(cv)
	fallPossible := canBeZero(cv)
	if zeroTaken {
		takenPossible, fallPossible = fallPossible, takenPossible
	}

	if takenPossible {
		t := pc + 1 + int(inst.Imm)
		if ctrlCheck(out, t, segWords, "branch target") {
			st := in
			if refineEdge(&st, inst.Ra, zeroTaken) {
				out.edges = append(out.edges, edge{pc: t, st: st})
			}
		}
	}
	if fallPossible {
		if ctrlCheck(out, pc+1, segWords, "sequential advance") {
			st := in
			if refineEdge(&st, inst.Ra, !zeroTaken) {
				out.edges = append(out.edges, edge{pc: pc + 1, st: st})
			}
		}
	}
}

// refineEdge narrows the branched-on register to zero/nonzero and
// applies its predicate fact; false means the edge is infeasible.
func refineEdge(st *state, ra int, condZero bool) bool {
	var ok bool
	if condZero {
		st.regs[ra], ok = refineZero(st.regs[ra])
	} else {
		st.regs[ra], ok = refineNonzero(st.regs[ra])
	}
	if !ok {
		return false
	}
	p := st.preds[ra]
	if p.kind != pNone && st.defs[int(p.src)] == p.srcDef {
		// The comparison producers emit only 0 or 1, so nonzero means
		// the predicate held.
		return applyPred(st, p, !condZero)
	}
	return true
}

// applyPred narrows the predicate's source register given that the
// predicate evaluated to truth; false means contradiction (dead edge).
func applyPred(st *state, p pred, truth bool) bool {
	src := int(p.src)
	v := st.regs[src]
	switch p.kind {
	case pLtK:
		if v.Kind == KUninit {
			return truth == (0 < p.k)
		}
		if v.Kind != KInt {
			return true
		}
		if truth {
			if v.Lo >= p.k {
				return false
			}
			if v.Hi > p.k-1 {
				v.Hi = p.k - 1
			}
		} else {
			if v.Hi < p.k {
				return false
			}
			if v.Lo < p.k {
				v.Lo = p.k
			}
		}
		v = v.canon()
		if v.Kind == KBottom {
			return false
		}
		st.regs[src] = v

	case pEqK:
		if truth {
			switch v.Kind {
			case KUninit:
				return p.k == 0
			case KInt:
				if p.k < v.Lo || p.k > v.Hi ||
					(v.Mod > 1 && uint64(p.k)&(v.Mod-1) != v.Rem) {
					return false
				}
				st.regs[src] = IntExact(p.k)
			case KPtr:
				// A pointer's bit image has a nonzero permission field.
				if uint64(p.k)>>60 == 0 {
					return false
				}
			}
		} else {
			switch v.Kind {
			case KUninit:
				return p.k != 0
			case KInt:
				if v.Lo == v.Hi && v.Lo == p.k {
					return false
				}
				if v.Lo == p.k {
					v.Lo++
				}
				if v.Hi == p.k {
					v.Hi--
				}
				v = v.canon()
				if v.Kind == KBottom {
					return false
				}
				st.regs[src] = v
			}
		}

	case pIsPtr:
		if truth {
			switch v.Kind {
			case KUninit, KInt:
				return false
			case KTop:
				st.regs[src] = PtrAny(RegAny)
			}
		} else {
			switch v.Kind {
			case KPtr:
				return false
			case KTop:
				st.regs[src] = IntAny()
			}
		}
	}
	return true
}

// stepMem handles LD/ST/LDB/STB with the machine's exact check order:
// decode, displacement LEA (immutability then bounds), permission,
// span, alignment.
func (v *verifier) stepMem(out *stepOut, pc int, in state, inst isa.Inst) {
	write := inst.Op == isa.ST || inst.Op == isa.STB
	size := int64(word.BytesPerWord)
	if inst.Op == isa.LDB || inst.Op == isa.STB {
		size = 1
	}
	what := "load"
	mask := loadableMask
	if write {
		what = "store"
		mask = storableMask
	}

	pv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, what)
	if !ok {
		return
	}
	// An affine relation to a live loop counter can tighten the offset
	// interval well below what widening left behind.
	pv = relRefine(&in, int8(inst.Ra), pv)
	if inst.Imm != 0 {
		pv, ok = permCheck(out, pv, modifiableMask, core.FaultImmutable, inst.Ra, "address displacement")
		if !ok {
			return
		}
		pv, ok = leaBounds(out, pv, IntExact(inst.Imm), false, inst.Ra, what)
		if !ok {
			return
		}
	}
	pv, ok = permCheck(out, pv, mask, core.FaultPerm, inst.Ra, what)
	if !ok {
		return
	}
	pv, ok = spanCheck(out, pv, size, inst.Ra, what)
	if !ok {
		return
	}
	if size == word.BytesPerWord {
		pv, ok = alignCheck(out, pv, inst.Ra, what)
		if !ok {
			return
		}
	}

	st := in
	if inst.Imm == 0 {
		// The refined pointer is the register's value on every
		// continuing execution.
		st.regs[inst.Ra] = pv
	}
	switch inst.Op {
	case isa.LD:
		res := Top()
		if !v.cfg.RegistersOnly {
			res = st.mem.loadWord(pv)
		}
		st.def(inst.Rd, pc, res, pred{})
	case isa.LDB:
		st.def(inst.Rd, pc, IntRange(0, 255), pred{})
	case isa.ST:
		if !v.cfg.RegistersOnly {
			val := in.regs[inst.Rb]
			if val.Kind == KUninit {
				val = IntExact(0) // an unwritten register stores untagged 0
			}
			st.mem = st.mem.storeWord(pv, val)
		}
	case isa.STB:
		if !v.cfg.RegistersOnly {
			st.mem = st.mem.storeByte(pv)
		}
	}
	v.fallthru(out, pc, st)
}

// stepLea handles the four LEA forms.
func (v *verifier) stepLea(out *stepOut, pc int, in state, inst isa.Inst) {
	fromBase := inst.Op == isa.LEAB || inst.Op == isa.LEABI
	var off Value
	if inst.Op == isa.LEA || inst.Op == isa.LEAB {
		off = asInt(in.regs[inst.Rb])
	} else {
		off = IntExact(inst.Imm)
	}
	name := inst.Op.String()
	pv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, name)
	if !ok {
		return
	}
	pv, ok = permCheck(out, pv, modifiableMask, core.FaultImmutable, inst.Ra, name)
	if !ok {
		return
	}
	pv = relRefine(&in, int8(inst.Ra), pv)
	res, ok := leaBounds(out, pv, off, fromBase, inst.Ra, name)
	if !ok {
		return
	}
	st := in
	if k, exact := off.IsExactInt(); exact && !fromBase {
		if inst.Rd == inst.Ra {
			// A self-advancing induction pointer: shift affine relations
			// through the write instead of killing them (rel.go).
			saved := st.rels
			saved.shiftPtr(int8(inst.Rd), k)
			st.def(inst.Rd, pc, res, pred{})
			st.rels = saved
			v.fallthru(out, pc, st)
			return
		}
		// A derived pointer at a fixed displacement inherits the
		// source's affine relations, displaced.
		st.def(inst.Rd, pc, res, pred{})
		st.rels.derive(int8(inst.Rd), int8(inst.Ra), k)
		v.fallthru(out, pc, st)
		return
	}
	st.def(inst.Rd, pc, res, pred{})
	v.fallthru(out, pc, st)
}

func (v *verifier) stepRestrict(out *stepOut, pc int, in state, inst isa.Inst) {
	pv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, "restrict")
	if !ok {
		return
	}
	pv, ok = permCheck(out, pv, modifiableMask, core.FaultImmutable, inst.Ra, "restrict")
	if !ok {
		return
	}
	res := pv
	if t, exact := asInt(in.regs[inst.Rb]).IsExactInt(); exact {
		tp := core.Perm(uint64(t) & 0xf)
		var okMask uint16
		for p := core.Perm(0); p < core.NumPerms; p++ {
			if pv.Perms&(1<<p) != 0 && core.StrictSubset(tp, p) {
				okMask |= 1 << p
			}
		}
		switch {
		case okMask == pv.Perms:
			out.add(ClassPerm, VerdictSafe, core.FaultNone, inst.Ra, msgRestrictSafe, "", int64(tp))
		case okMask == 0:
			out.add(ClassPerm, VerdictFault, core.FaultPerm, inst.Ra, msgRestrictFault, "", int64(tp), int64(pv.Perms))
			return
		default:
			out.add(ClassPerm, VerdictUnknown, core.FaultNone, inst.Ra, msgRestrictMay, "", int64(tp))
		}
		res.Perms = 1 << tp
	} else {
		out.add(ClassPerm, VerdictUnknown, core.FaultNone, inst.Rb, msgRestrictUnknown, "")
		var mask uint16
		for p := core.Perm(0); p < core.NumPerms; p++ {
			if pv.Perms&(1<<p) == 0 {
				continue
			}
			for t := core.Perm(0); t < core.NumPerms; t++ {
				if core.StrictSubset(t, p) {
					mask |= 1 << t
				}
			}
		}
		res.Perms = mask
	}
	res = res.canon()
	if res.Kind == KBottom {
		return
	}
	st := in
	st.def(inst.Rd, pc, res, pred{})
	// RESTRICT keeps the offset: the derived capability inherits the
	// source's affine relations unchanged.
	st.rels.derive(int8(inst.Rd), int8(inst.Ra), 0)
	v.fallthru(out, pc, st)
}

func (v *verifier) stepSubseg(out *stepOut, pc int, in state, inst isa.Inst) {
	pv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, "subseg")
	if !ok {
		return
	}
	pv, ok = permCheck(out, pv, modifiableMask, core.FaultImmutable, inst.Ra, "subseg")
	if !ok {
		return
	}
	lv := asInt(in.regs[inst.Rb])
	lLo, lHi := lv.Lo, lv.Hi
	if lLo < 0 || lHi > 63 {
		lLo, lHi = 0, 63 // the machine masks with 0x3f
	}
	switch {
	case lHi < int64(pv.LenLo):
		out.add(ClassPerm, VerdictSafe, core.FaultNone, inst.Ra, msgSubsegSafe, "", lLo, lHi)
	case lLo >= int64(pv.LenHi):
		out.add(ClassPerm, VerdictFault, core.FaultLength, inst.Ra, msgSubsegFault, "",
			lLo, lHi, int64(pv.LenLo), int64(pv.LenHi))
		return
	default:
		out.add(ClassPerm, VerdictUnknown, core.FaultNone, inst.Ra, msgSubsegMay, "", lLo, lHi)
		if lHi >= int64(pv.LenHi) {
			lHi = int64(pv.LenHi) - 1
		}
	}
	res := pv
	res.LenLo, res.LenHi = uint8(lLo), uint8(lHi)
	res.Region = RegAny // the sub-segment is a different protection unit
	if lLo == lHi && pv.OffHi < uint64(1)<<uint(lLo) {
		// Offset fits the new segment unchanged.
	} else {
		res.OffLo, res.OffHi = 0, uint64(1)<<uint(lHi)-1
		res.Mod = minU64(pv.Mod, uint64(1)<<uint(lLo))
		if res.Mod == 0 {
			res.Mod = 1
		}
		res.Rem = pv.Rem & (res.Mod - 1)
	}
	res = res.canon()
	if res.Kind == KBottom {
		return
	}
	st := in
	st.def(inst.Rd, pc, res, pred{})
	v.fallthru(out, pc, st)
}

func (v *verifier) stepSetptr(out *stepOut, pc int, in state, inst isa.Inst) {
	switch in.priv {
	case privPriv:
		out.add(ClassPriv, VerdictSafe, core.FaultNone, -1, msgPrivSafe, "")
	case privUser:
		out.add(ClassPriv, VerdictFault, core.FaultPriv, -1, msgPrivFault, "")
		return
	default:
		out.add(ClassPriv, VerdictUnknown, core.FaultNone, -1, msgPrivMay, "")
	}

	var res Value
	if bitsv, exact := asInt(in.regs[inst.Ra]).IsExactInt(); exact {
		perm := core.Perm(uint64(bitsv) >> 60 & 0xf)
		logLen := uint(uint64(bitsv) >> 54 & 0x3f)
		switch {
		case !perm.Valid():
			out.add(ClassPerm, VerdictFault, core.FaultPerm, inst.Ra, msgSetptrBadPerm, "", int64(perm))
			return
		case logLen > core.MaxLogLen:
			out.add(ClassPerm, VerdictFault, core.FaultLength, inst.Ra, msgSetptrBadLen, "", int64(logLen))
			return
		}
		out.add(ClassPerm, VerdictSafe, core.FaultNone, inst.Ra, msgSetptrSafe, "")
		addr := uint64(bitsv) & core.AddrMask
		res = PtrExact(perm, logLen, addr&(uint64(1)<<logLen-1), RegAny)
	} else {
		out.add(ClassPerm, VerdictUnknown, core.FaultNone, inst.Ra, msgSetptrMay, "")
		res = PtrAny(RegAny)
	}
	st := in
	st.def(inst.Rd, pc, res, pred{})
	v.fallthru(out, pc, st)
}

// stepJump handles JMP/JMPL: decode, jump-permission, alignment, the
// JMPL link-pointer LEA, then target resolution. Exact code-segment
// pointers become precise edges; bounded inexact ones fan out to
// candidate targets; anything else is the abyss (every instruction
// reachable with unknown state).
func (v *verifier) stepJump(out *stepOut, pc int, in state, inst isa.Inst) {
	tv, ok := ptrCheck(out, in.regs[inst.Ra], inst.Ra, "jump")
	if !ok {
		return
	}
	tv, ok = permCheck(out, tv, jumpableMask, core.FaultPerm, inst.Ra, "jump")
	if !ok {
		return
	}
	tv, ok = alignCheck(out, tv, inst.Ra, "jump")
	if !ok {
		return
	}

	st := in
	if inst.Op == isa.JMPL {
		if !ctrlCheck(out, pc+1, v.img.SegWords(), "link-address advance") {
			return
		}
		st.def(inst.Rd, pc, v.execPtrValue(pc+1, in.priv), pred{})
	}

	var nPriv uint8
	if tv.Perms&privPermsMask != 0 {
		nPriv |= privPriv
	}
	if tv.Perms&^privPermsMask != 0 {
		nPriv |= privUser
	}
	st.priv = nPriv

	if tv.Region != RegCode ||
		tv.LenLo != uint8(v.img.CodeLog) || tv.LenHi != tv.LenLo ||
		tv.Mod < word.BytesPerWord {
		out.abyss = true
		return
	}
	maxT := uint64(v.maxTargets)
	if (tv.OffHi-tv.OffLo)/tv.Mod+1 > maxT {
		out.abyss = true
		return
	}
	exact := tv.OffLo == tv.OffHi
	// A jump through a pointer carrying only enter permissions is a
	// protection-domain crossing; an exact JMPL is an interprocedural
	// call the engine can analyse in the callee's own context.
	enter := tv.Perms != 0 &&
		tv.Perms&^(uint16(1)<<core.PermEnterUser|uint16(1)<<core.PermEnterPriv) == 0
	for off := tv.OffLo; off <= tv.OffHi; off += tv.Mod {
		t := int(off / word.BytesPerWord)
		if t >= v.img.SegWords() {
			break
		}
		out.edges = append(out.edges, edge{pc: t, st: st, spec: !exact,
			call:  exact && inst.Op == isa.JMPL,
			enter: exact && enter,
		})
	}
}

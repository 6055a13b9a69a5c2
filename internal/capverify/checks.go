package capverify

import "repro/internal/core"

// Permission-set masks for the hardware checks.
const (
	// dataPerm is the permission of the scratch segment in r1.
	dataPerm = core.PermReadWrite

	// modifiableMask: perms LEA/LEAB/RESTRICT/SUBSEG accept.
	modifiableMask uint16 = 1<<core.PermReadOnly | 1<<core.PermReadWrite |
		1<<core.PermExecuteUser | 1<<core.PermExecutePriv

	// loadableMask: perms CheckLoad accepts (execute pointers read).
	loadableMask = modifiableMask

	// storableMask: perms CheckStore accepts.
	storableMask uint16 = 1 << core.PermReadWrite

	// jumpableMask: perms JumpTarget accepts.
	jumpableMask uint16 = 1<<core.PermExecuteUser | 1<<core.PermExecutePriv |
		1<<core.PermEnterUser | 1<<core.PermEnterPriv

	// privPermsMask: perms that install supervisor mode when jumped to.
	privPermsMask uint16 = 1<<core.PermExecutePriv | 1<<core.PermEnterPriv
)

// check is one evaluated dynamic-check site within an instruction. Its
// diagnostic is kept as data — a message template and the template's
// operands — and rendered by text (msg.go) only when a non-safe check
// becomes a Diag: the fixpoint visits every site many times and never
// formats.
type check struct {
	class   Class
	verdict Verdict
	code    core.FaultCode // predicted code when verdict == VerdictFault
	reg     int            // offending register, -1
	msg     msgID
	op      string   // the operation the message names
	n       [6]int64 // numeric operands, in template order
}

// edge is one control-flow successor with its post-state. spec marks a
// speculative candidate of an imprecise indirect jump: the target is
// possible, not certain, so reaching a non-decodable word through it is
// an unknown rather than a provable fetch fault. call marks a JMPL with
// a single exact target (an interprocedural call the engine analyses in
// its own context); enter marks an exact jump through a provably
// enter-only pointer (a protection-domain crossing).
type edge struct {
	pc    int
	st    state
	spec  bool
	call  bool
	enter bool
}

// stepOut is everything one instruction's abstract execution produces.
// The verifier owns one and step refills it, so the fixpoint allocates
// nothing per step once the slices have grown.
type stepOut struct {
	edges  []edge
	checks []check
	abyss  bool // an indirect jump could not be bounded
}

func (o *stepOut) reset() {
	o.edges = o.edges[:0]
	o.checks = o.checks[:0]
	o.abyss = false
}

func (o *stepOut) add(class Class, verdict Verdict, code core.FaultCode, reg int, msg msgID, op string, n ...int64) {
	c := check{class: class, verdict: verdict, code: code, reg: reg, msg: msg, op: op}
	copy(c.n[:], n)
	o.checks = append(o.checks, c)
}

// ptrCheck evaluates the Decode (tag) check for using val as a pointer
// operand. It returns the refined pointer view and whether execution
// can continue past the check.
func ptrCheck(out *stepOut, val Value, reg int, op string) (Value, bool) {
	switch val.Kind {
	case KPtr:
		out.add(ClassTag, VerdictSafe, core.FaultNone, reg, msgTagSafe, op)
		return val, true
	case KUninit:
		out.add(ClassTag, VerdictFault, core.FaultTag, reg, msgTagUninit, op)
		return Value{}, false
	case KInt:
		out.add(ClassTag, VerdictFault, core.FaultTag, reg, msgTagInt, op,
			val.Lo, val.Hi, int64(val.Mod), int64(val.Rem))
		return Value{}, false
	default: // KTop
		out.add(ClassTag, VerdictUnknown, core.FaultNone, reg, msgTagMay, op)
		return PtrAny(RegAny), true
	}
}

// permCheck evaluates a permission-subset check: the pointer's
// permission must be inside allowed. Returns the refined value.
func permCheck(out *stepOut, pv Value, allowed uint16, code core.FaultCode, reg int, what string) (Value, bool) {
	switch {
	case pv.Perms&^allowed == 0:
		out.add(ClassPerm, VerdictSafe, core.FaultNone, reg, msgPermSafe, what, int64(pv.Perms))
		return pv, true
	case pv.Perms&allowed == 0:
		out.add(ClassPerm, VerdictFault, code, reg, msgPermFault, what, int64(pv.Perms))
		return Value{}, false
	default:
		out.add(ClassPerm, VerdictUnknown, core.FaultNone, reg, msgPermMay, what, int64(pv.Perms&^allowed))
		pv.Perms &= allowed
		return pv.canon(), true
	}
}

// leaBounds evaluates the Fig. 2 masked-comparator check of an
// address-forming add: the new offset must stay inside [0, segment
// size). off is the integer displacement; fromBase selects LEAB
// semantics (displacement from the segment base rather than the
// current offset). Returns the post-add pointer, refined by the
// pass assumption.
func leaBounds(out *stepOut, pv Value, off Value, fromBase bool, reg int, op string) (Value, bool) {
	var sumLo, sumHi int64
	if fromBase {
		sumLo, sumHi = off.Lo, off.Hi
	} else {
		sumLo = satAdd(int64(pv.OffLo), off.Lo)
		sumHi = satAdd(int64(pv.OffHi), off.Hi)
	}
	segMin := int64(1) << pv.LenLo
	segMax := int64(1) << pv.LenHi

	res := pv
	if fromBase {
		res.Mod, res.Rem = off.Mod, off.Rem&(off.Mod-1)
	} else {
		m := minU64(pv.Mod, off.Mod)
		res.Mod, res.Rem = m, (pv.Rem+off.Rem)&(m-1)
	}

	switch {
	case sumLo >= 0 && sumHi < segMin:
		out.add(ClassBounds, VerdictSafe, core.FaultNone, reg, msgLeaSafe, op, sumLo, sumHi, int64(pv.LenLo))
	case sumHi < 0 || sumLo >= segMax:
		out.add(ClassBounds, VerdictFault, core.FaultBounds, reg, msgLeaFault, op,
			sumLo, sumHi, int64(pv.LenLo), int64(pv.LenHi))
		return Value{}, false
	default:
		out.add(ClassBounds, VerdictUnknown, core.FaultNone, reg, msgLeaMay, op,
			sumLo, sumHi, int64(pv.LenLo), int64(pv.LenHi))
	}
	if sumLo < 0 {
		sumLo = 0
	}
	if sumHi > segMax-1 {
		sumHi = segMax - 1
	}
	res.OffLo, res.OffHi = uint64(sumLo), uint64(sumHi)
	res = res.canon()
	if res.Kind == KBottom {
		// The pass assumption is unsatisfiable under the congruence:
		// treat as an (already-reported) dead path.
		return Value{}, false
	}
	return res, true
}

// spanCheck evaluates checkSpan: size bytes at the pointer's offset
// must fit in the segment.
func spanCheck(out *stepOut, pv Value, size int64, reg int, op string) (Value, bool) {
	segMin := int64(1) << pv.LenLo
	segMax := int64(1) << pv.LenHi
	switch {
	case satAdd(int64(pv.OffHi), size) <= segMin:
		out.add(ClassBounds, VerdictSafe, core.FaultNone, reg, msgSpanSafe, op, size, segMin)
	case satAdd(int64(pv.OffLo), size) > segMax:
		out.add(ClassBounds, VerdictFault, core.FaultBounds, reg, msgSpanFault, op,
			size, int64(pv.OffLo), int64(pv.OffHi), int64(pv.LenLo), int64(pv.LenHi))
		return Value{}, false
	default:
		out.add(ClassBounds, VerdictUnknown, core.FaultNone, reg, msgSpanMay, op,
			size, int64(pv.OffLo), int64(pv.OffHi), int64(pv.LenLo), int64(pv.LenHi))
	}
	if int64(pv.OffHi) > segMax-size {
		pv.OffHi = uint64(segMax - size)
		pv = pv.canon()
		if pv.Kind == KBottom {
			return Value{}, false
		}
	}
	return pv, true
}

// alignCheck evaluates the natural-alignment check of a word access or
// jump target: the absolute address must be 0 mod 8. The base of a
// segment is aligned on the segment size, so for segments of at least
// a word the offset congruence decides alignment.
func alignCheck(out *stepOut, pv Value, reg int, op string) (Value, bool) {
	// g is how far the congruence pins the absolute address's low bits.
	g := minU64(pv.Mod, uint64(1)<<pv.LenLo)
	if g > 8 {
		g = 8
	}
	if g == 0 {
		g = 1
	}
	switch {
	case g == 8 && pv.Rem&7 == 0:
		out.add(ClassAlign, VerdictSafe, core.FaultNone, reg, msgAlignSafe, op)
	case pv.Rem&(g-1) != 0:
		out.add(ClassAlign, VerdictFault, core.FaultBounds, reg, msgAlignFault, op, int64(pv.Rem&(g-1)), int64(g))
		return Value{}, false
	default:
		out.add(ClassAlign, VerdictUnknown, core.FaultNone, reg, msgAlignMay, op)
		// On the pass path the offset is 8-aligned, as long as the
		// segment itself is at least word-aligned.
		if pv.LenLo >= 3 && pv.Mod < 8 && pv.Rem == 0 {
			pv.Mod, pv.Rem = 8, 0
			pv = pv.canon()
			if pv.Kind == KBottom {
				return Value{}, false
			}
		}
	}
	return pv, true
}

// ctrlCheck evaluates an instruction-pointer move to word index target
// (the LEA on the IP that branch and sequential advance perform). The
// IP's offset and segment are exact, so this check always decides.
func ctrlCheck(out *stepOut, target, segWords int, what string) bool {
	if target >= 0 && target < segWords {
		out.add(ClassCtrl, VerdictSafe, core.FaultNone, -1, msgCtrlSafe, what)
		return true
	}
	out.add(ClassCtrl, VerdictFault, core.FaultBounds, -1, msgCtrlFault, what, int64(target), int64(segWords))
	return false
}

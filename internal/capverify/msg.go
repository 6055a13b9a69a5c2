package capverify

import (
	"fmt"

	"repro/internal/core"
)

// msgID names the template of a check's diagnostic message. The
// transfer functions record the template and its operands (check.op,
// check.n); text renders them. Only checks that become Diags — the
// non-safe ones — are ever rendered.
type msgID uint8

const (
	msgTagSafe msgID = iota
	msgTagUninit
	msgTagInt // n: the integer's Lo, Hi, Mod, Rem
	msgTagMay
	msgPermSafe  // n: permission mask
	msgPermFault // n: permission mask
	msgPermMay   // n: permission mask
	msgLeaSafe   // n: offset lo, hi, segment log-length
	msgLeaFault  // n: offset lo, hi, log-length lo, hi
	msgLeaMay    // n: offset lo, hi, log-length lo, hi
	msgSpanSafe  // n: size, minimum segment bytes
	msgSpanFault // n: size, offset lo, hi, log-length lo, hi
	msgSpanMay   // n: size, offset lo, hi, log-length lo, hi
	msgAlignSafe
	msgAlignFault // n: offset residue, modulus
	msgAlignMay
	msgCtrlSafe
	msgCtrlFault     // n: target word, segment words
	msgRestrictSafe  // n: target permission
	msgRestrictFault // n: target permission, source permission mask
	msgRestrictMay   // n: target permission
	msgRestrictUnknown
	msgSubsegSafe  // n: log-length lo, hi
	msgSubsegFault // n: log-length lo, hi, segment log-length lo, hi
	msgSubsegMay   // n: log-length lo, hi
	msgPrivSafe
	msgPrivFault
	msgPrivMay
	msgSetptrBadPerm // n: permission
	msgSetptrBadLen  // n: log-length
	msgSetptrSafe
	msgSetptrMay
	msgFetchFault
	msgFetchMay
)

// text renders c's diagnostic message.
func (c *check) text() string {
	op, r, n := c.op, c.reg, &c.n
	switch c.msg {
	case msgTagSafe:
		return fmt.Sprintf("%s operand r%d is always a pointer", op, r)
	case msgTagUninit:
		return fmt.Sprintf("%s through r%d, which is never initialized (untagged 0)", op, r)
	case msgTagInt:
		val := Value{Kind: KInt, Lo: n[0], Hi: n[1], Mod: uint64(n[2]), Rem: uint64(n[3])}
		return fmt.Sprintf("%s through r%d, which always holds an untagged integer (%s)", op, r, val)
	case msgTagMay:
		return fmt.Sprintf("%s operand r%d may not carry the pointer tag", op, r)
	case msgPermSafe:
		return fmt.Sprintf("%s: r%d permission is always %s", op, r, permsString(uint16(n[0])))
	case msgPermFault:
		return fmt.Sprintf("%s through a %s pointer in r%d", op, permsString(uint16(n[0])), r)
	case msgPermMay:
		return fmt.Sprintf("%s: r%d permission may be %s", op, r, permsString(uint16(n[0])))
	case msgLeaSafe:
		return fmt.Sprintf("%s offset always lands in [%d,%d] inside the 2^%d-byte segment of r%d", op, n[0], n[1], n[2], r)
	case msgLeaFault:
		return fmt.Sprintf("%s offset %s always leaves the 2^[%d,%d]-byte segment of r%d", op,
			rangeStr(n[0], n[1]), n[2], n[3], r)
	case msgLeaMay:
		return fmt.Sprintf("%s offset %s may leave the 2^[%d,%d]-byte segment of r%d", op,
			rangeStr(n[0], n[1]), n[2], n[3], r)
	case msgSpanSafe:
		return fmt.Sprintf("%s span: offset+%d ≤ %d always fits r%d's segment", op, n[0], n[1], r)
	case msgSpanFault:
		return fmt.Sprintf("%d-byte %s at offset %s always exceeds r%d's 2^[%d,%d]-byte segment",
			n[0], op, rangeStr(n[1], n[2]), r, n[3], n[4])
	case msgSpanMay:
		return fmt.Sprintf("%d-byte %s at offset %s may exceed r%d's 2^[%d,%d]-byte segment",
			n[0], op, rangeStr(n[1], n[2]), r, n[3], n[4])
	case msgAlignSafe:
		return fmt.Sprintf("%s address through r%d is always 8-aligned", op, r)
	case msgAlignFault:
		return fmt.Sprintf("%s address through r%d is never 8-aligned (offset ≡ %d mod %d)", op, r, n[0], n[1])
	case msgAlignMay:
		return fmt.Sprintf("%s address through r%d may be unaligned", op, r)
	case msgCtrlSafe:
		return fmt.Sprintf("%s stays inside the code segment", op)
	case msgCtrlFault:
		return fmt.Sprintf("%s leaves the code segment (word %d of %d)", op, n[0], n[1])
	case msgRestrictSafe:
		return fmt.Sprintf("restrict to %s is always a strict subset of r%d's rights", core.Perm(n[0]), r)
	case msgRestrictFault:
		return fmt.Sprintf("restrict to %s is never a strict subset of %s", core.Perm(n[0]), permsString(uint16(n[1])))
	case msgRestrictMay:
		return fmt.Sprintf("restrict to %s may not be a strict subset of r%d's rights", core.Perm(n[0]), r)
	case msgRestrictUnknown:
		return fmt.Sprintf("restrict target permission in r%d is not statically known", r)
	case msgSubsegSafe:
		return fmt.Sprintf("subseg to 2^[%d,%d] always shrinks r%d's segment", n[0], n[1], r)
	case msgSubsegFault:
		return fmt.Sprintf("subseg to 2^[%d,%d] never shrinks r%d's 2^[%d,%d]-byte segment",
			n[0], n[1], r, n[2], n[3])
	case msgSubsegMay:
		return fmt.Sprintf("subseg to 2^[%d,%d] may not shrink r%d's segment", n[0], n[1], r)
	case msgPrivSafe:
		return "setptr always executes under an execute-privileged IP"
	case msgPrivFault:
		return "setptr always executes in user mode"
	case msgPrivMay:
		return "setptr may execute in user mode"
	case msgSetptrBadPerm:
		return fmt.Sprintf("setptr source always encodes invalid permission %d", n[0])
	case msgSetptrBadLen:
		return fmt.Sprintf("setptr source always encodes segment length 2^%d", n[0])
	case msgSetptrSafe:
		return "setptr source is always a structurally valid pointer image"
	case msgSetptrMay:
		return fmt.Sprintf("setptr source r%d is not statically known", r)
	case msgFetchFault:
		return "execution reaches a word that does not decode as an instruction"
	case msgFetchMay:
		return "execution may reach a word that does not decode as an instruction"
	}
	return "check?"
}

// permsString names a permission set for diagnostics.
func permsString(mask uint16) string {
	s := ""
	for p := core.Perm(0); p < core.NumPerms; p++ {
		if mask&(1<<p) != 0 {
			if s != "" {
				s += "|"
			}
			s += p.String()
		}
	}
	if s == "" {
		return "(none)"
	}
	return s
}

func rangeStr(lo, hi int64) string {
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("[%s,%s]", boundStr(lo), boundStr(hi))
}

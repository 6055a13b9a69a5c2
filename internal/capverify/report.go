package capverify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
)

// Class names the dynamic check a verdict is about — one per hardware
// check the guarded-pointer pipeline performs (Sec 2.2).
type Class uint8

const (
	// ClassTag: the operand must carry the pointer tag (Decode).
	ClassTag Class = iota
	// ClassPerm: the permission field must allow the operation —
	// includes immutability (LEA on enter/key), RESTRICT subset and
	// SUBSEG shrink discipline.
	ClassPerm
	// ClassBounds: an address-forming add must stay in the segment and
	// the access span must fit (the Fig. 2 masked comparator).
	ClassBounds
	// ClassAlign: word accesses and jump targets must be 8-aligned.
	ClassAlign
	// ClassPriv: the instruction requires an execute-privileged IP.
	ClassPriv
	// ClassCtrl: sequential or branch instruction-pointer movement must
	// stay inside the code segment, and the fetched word must decode.
	ClassCtrl

	// NumClasses is the count of check classes.
	NumClasses = 6
)

var classNames = [NumClasses]string{"tag", "perm", "bounds", "align", "priv", "ctrl"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Verdict is the verifier's conclusion about one check at one site.
type Verdict uint8

const (
	// VerdictSafe: the check passes on every execution reaching the
	// site — a compiler could elide the hardware check.
	VerdictSafe Verdict = iota
	// VerdictUnknown: the analysis cannot decide; the dynamic check is
	// load-bearing.
	VerdictUnknown
	// VerdictFault: the check fails on every execution that reaches the
	// site — running the program faults here (if the site is reached).
	VerdictFault
)

func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictUnknown:
		return "unknown"
	case VerdictFault:
		return "fault"
	}
	return "verdict?"
}

// Diag is one check site's verdict, with enough provenance to act on:
// the instruction's source position and, for register-borne faults, the
// position that defined the offending register.
type Diag struct {
	PC      int            `json:"pc"`   // word index in the image
	File    string         `json:"file"` // source position of the instruction
	Line    int            `json:"line"`
	Inst    string         `json:"inst"` // disassembly
	Class   string         `json:"class"`
	Verdict string         `json:"verdict"`
	Code    core.FaultCode `json:"-"` // predicted fault code (VerdictFault)
	Fault   string         `json:"fault,omitempty"`
	Msg     string         `json:"msg"`
	Reg     int            `json:"reg"`                // offending register, -1 if none
	RegFile string         `json:"reg_file,omitempty"` // where that register was defined
	RegLine int            `json:"reg_line,omitempty"`

	verdict Verdict
	class   Class
}

// Pos renders the diagnostic's source position.
func (d Diag) Pos() string {
	o := asm.Origin{File: d.File, Line: d.Line}
	return o.String()
}

func (d Diag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %s: %s", d.Pos(), d.Verdict, d.Class, d.Msg)
	if d.Verdict == VerdictFault.String() && d.Fault != "" {
		fmt.Fprintf(&b, " [%s fault]", d.Fault)
	}
	if d.Reg >= 0 && d.RegLine > 0 {
		fmt.Fprintf(&b, " (r%d defined at %s)", d.Reg,
			asm.Origin{File: d.RegFile, Line: d.RegLine})
	}
	return b.String()
}

// Counts tallies check sites by verdict.
type Counts struct {
	Safe    int `json:"safe"`
	Unknown int `json:"unknown"`
	Fault   int `json:"fault"`
}

// Total is the number of check sites counted.
func (c Counts) Total() int { return c.Safe + c.Unknown + c.Fault }

// Report is the result of verifying one program.
type Report struct {
	// Diags holds every non-safe check site (faults and unknowns), in
	// program order. Safe sites are only counted, not materialized.
	Diags []Diag

	// PerClass tallies check sites by class; Totals sums them.
	PerClass [NumClasses]Counts
	Totals   Counts

	// ReachableWords counts instruction words the analysis found
	// reachable (of SegWords).
	ReachableWords int

	// Abyss reports that some indirect jump's target could not be
	// bounded: every instruction was assumed reachable with unknown
	// state, so unknown verdicts are inflated (but faults remain real).
	Abyss bool

	// Leaks holds the confinement pass's capability-escape diagnostics
	// (confine.go), in program order. Empty for single-domain programs.
	Leaks []Leak

	// sites holds, per word index, the checks evaluated there (nil for
	// unreachable words, empty-non-nil for reachable check-free ones).
	// Exposed through SiteChecks and Sites (sites.go).
	sites [][]SiteCheck
}

// Faults returns the provable-fault diagnostics.
func (r *Report) Faults() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.verdict == VerdictFault {
			out = append(out, d)
		}
	}
	return out
}

// HasFault reports whether any site is a provable fault.
func (r *Report) HasFault() bool {
	for _, d := range r.Diags {
		if d.verdict == VerdictFault {
			return true
		}
	}
	return false
}

// FirstFaultCode returns the predicted fault code of the first provable
// fault in program order, or FaultNone.
func (r *Report) FirstFaultCode() core.FaultCode {
	for _, d := range r.Diags {
		if d.verdict == VerdictFault {
			return d.Code
		}
	}
	return core.FaultNone
}

// DischargeRatio returns the fraction of non-fault check sites proven
// safe: what a trusting compiler could elide.
func (r *Report) DischargeRatio() float64 {
	n := r.Totals.Safe + r.Totals.Unknown
	if n == 0 {
		return 1
	}
	return float64(r.Totals.Safe) / float64(n)
}

func (c *Counts) bump(v Verdict) {
	switch v {
	case VerdictSafe:
		c.Safe++
	case VerdictUnknown:
		c.Unknown++
	case VerdictFault:
		c.Fault++
	}
}

// sortLeaks puts leaks in (pc, reg, kind) order for stable output.
func (r *Report) sortLeaks() {
	sort.SliceStable(r.Leaks, func(i, j int) bool {
		if r.Leaks[i].PC != r.Leaks[j].PC {
			return r.Leaks[i].PC < r.Leaks[j].PC
		}
		if r.Leaks[i].Reg != r.Leaks[j].Reg {
			return r.Leaks[i].Reg < r.Leaks[j].Reg
		}
		return r.Leaks[i].Kind < r.Leaks[j].Kind
	})
}

// sortDiags puts diagnostics in (pc, class) order for stable output.
func (r *Report) sortDiags() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		if r.Diags[i].PC != r.Diags[j].PC {
			return r.Diags[i].PC < r.Diags[j].PC
		}
		return r.Diags[i].class < r.Diags[j].class
	})
}

// Summary renders the per-class tallies as one line per class.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s %8s\n", "check", "safe", "unknown", "fault")
	for c := Class(0); c < NumClasses; c++ {
		n := r.PerClass[c]
		if n.Total() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s %8d %8d %8d\n", c, n.Safe, n.Unknown, n.Fault)
	}
	fmt.Fprintf(&b, "%-8s %8d %8d %8d  (%.0f%% discharged)\n", "total",
		r.Totals.Safe, r.Totals.Unknown, r.Totals.Fault, 100*r.DischargeRatio())
	return b.String()
}

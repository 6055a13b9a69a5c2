package capverify

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// mergeCopy is the site merge written as a fresh copy of the longer
// list joined positionwise against the shorter one: the reference the
// in-place mergeChecks must match, pick for pick.
func mergeCopy(a, b []check) []check {
	if a == nil {
		return b
	}
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	out := append([]check(nil), long...)
	for i := range short {
		if out[i].verdict == short[i].verdict {
			continue
		}
		pick := out[i]
		if pick.verdict == VerdictSafe {
			pick = short[i]
		}
		pick.verdict = VerdictUnknown
		pick.code = core.FaultNone
		out[i] = pick
	}
	return out
}

// Folding contexts' check lists into the report pass's reused buffer
// keeps the same checks — and so the same messages — as the copying
// merge, whatever the list lengths and verdicts.
func TestMergeChecksMatchesCopy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	id := int64(0)
	list := func() []check {
		out := make([]check, r.Intn(5))
		for i := range out {
			id++
			v := Verdict(r.Intn(3))
			out[i] = check{class: Class(i), verdict: v, code: core.FaultCode(v), reg: r.Intn(4), msg: msgTagMay, n: [6]int64{id}}
		}
		return out
	}
	buf := []check{}
	for trial := 0; trial < 2000; trial++ {
		var want []check
		buf = buf[:0]
		for ctx := 1 + r.Intn(4); ctx > 0; ctx-- {
			l := list()
			want = mergeCopy(want, l)
			buf = mergeChecks(buf, l)
		}
		if len(want) == 0 && len(buf) == 0 {
			continue
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("trial %d: in-place merge %+v, copying merge %+v", trial, buf, want)
		}
	}
}

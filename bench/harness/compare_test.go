package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Expected values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// pairs builds interleaved untraced runs of one workload: pair i is
// (old[i], new[i]), and the old run goes first in even pairs.
func pairs(workload, metric string, old, new []float64) (o, n []Record) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := func(v float64, slot int) Record {
		return Record{Workload: workload, Start: t0.Add(time.Duration(slot) * time.Minute),
			Result: Summary{Metrics: map[string]Value{metric: {Value: v}}}}
	}
	for i := range old {
		first, second := 2*i, 2*i+1
		if i%2 == 1 {
			first, second = second, first
		}
		o = append(o, rec(old[i], first))
		n = append(n, rec(new[i], second))
	}
	return o, n
}

// scale returns xs, each multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// mul returns xs[i]*fs[i].
func mul(xs []float64, fs ...float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * fs[i]
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	lower := Bound{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.08}
	higher := Bound{Name: "sim_ips", Unit: "instr/s", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	// A host that slows by half while the pairs run: each side's own runs
	// spread far wider than the bound, but every pair runs at one speed.
	drifting := []float64{100, 105, 110, 115, 120, 125, 130, 135, 140, 150}
	noisy := []float64{100, 130, 90, 120, 80, 110, 100, 125, 95, 105}
	cases := []struct {
		name     string
		b        Bound
		old, new []float64
		want     string
	}{
		{"within bound", lower, steady, scale(steady, 1.03), "same"},
		{"slower beyond bound", lower, steady, scale(steady, 1.12), "worse"},
		{"faster beyond bound", lower, steady, scale(steady, 0.8), "better"},
		{"higher is better", higher, steady, scale(steady, 0.8), "worse"},
		{"small gain won in every pair", lower, steady, scale(steady, 0.97), "better"},
		{"small gain won in 8 of 10 pairs", lower, steady, []float64{97, 98, 96, 97, 99, 95, 97, 98, 100, 101}, "same"},
		{"drift cancels in pairs", lower, drifting, scale(drifting, 0.75), "better"},
		{"drift, same code", lower, drifting, scale(drifting, 1.01), "same"},
		{"drift hides a gain beyond bound", lower, drifting, scale(drifting, 0.9), "unresolved"},
		{"pairs spread wider than bound", lower, noisy, []float64{120, 100, 110, 90, 100, 130, 85, 105, 120, 100}, "unresolved"},
		{"noisy, every pair faster beyond bound", lower, noisy, mul(noisy, 0.5, 0.7, 0.6, 0.75, 0.55, 0.72, 0.5, 0.7, 0.65, 0.6), "better"},
		{"noisy, every pair slower beyond bound", lower, noisy, mul(noisy, 1.5, 1.3, 1.4, 1.25, 1.45, 1.28, 1.5, 1.3, 1.35, 1.4), "worse"},
		{"noisy, every pair slightly faster", lower, noisy, []float64{95, 120, 60, 119, 79, 70, 99, 124, 94, 104}, "unresolved"},
		{"one pair, faster", lower, []float64{100}, []float64{99.9}, "unresolved"},
		{"one pair, slower", lower, []float64{100}, []float64{150}, "unresolved"},
		{"nine pairs", lower, steady[:9], scale(steady[:9], 0.5), "unresolved"},
	}
	for _, c := range cases {
		o, n := pairs("mesh8", c.b.Name, c.old, c.new)
		rows, err := Compare([]Bound{c.b}, o, n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", c.name, len(rows))
		}
		if r := rows[0]; r.Verdict != c.want {
			t.Errorf("%s: verdict %s (change %.3f, pair spread %.3f, old spread %.3f, wins %d/%d), want %s",
				c.name, r.Verdict, r.Change, r.Spread, r.OldSpread, r.Wins, r.Pairs, c.want)
		}
	}
}

func TestCompareNeedsInterleavedPairs(t *testing.T) {
	b := Bound{Name: "sim_ips", Better: "higher", Bound: 0.1}
	vals := []float64{1, 1, 1, 1}
	o, n := pairs("mesh8", "sim_ips", vals, vals)
	if _, err := Compare([]Bound{b}, o, n); err != nil {
		t.Fatalf("interleaved pairs rejected: %v", err)
	}
	// Every old run before every new run: not pairs.
	o2, n2 := pairs("mesh8", "sim_ips", vals, vals)
	for i := range n2 {
		n2[i].Start = n2[i].Start.Add(time.Hour)
	}
	if _, err := Compare([]Bound{b}, o2, n2); err == nil || !strings.Contains(err.Error(), "interleaved") {
		t.Errorf("old runs all first: err %v", err)
	}
	// Pairs, but the old run always first.
	o3, n3 := pairs("mesh8", "sim_ips", vals, vals)
	for i := range o3 {
		if n3[i].Start.Before(o3[i].Start) {
			o3[i].Start, n3[i].Start = n3[i].Start, o3[i].Start
		}
	}
	if _, err := Compare([]Bound{b}, o3, n3); err == nil || !strings.Contains(err.Error(), "alternate") {
		t.Errorf("old run always first: err %v", err)
	}
	if _, err := Compare([]Bound{b}, o[:3], n); err == nil {
		t.Error("3 old runs against 4 new ones accepted")
	}
}

func TestCompareSkipsTracedAndUnmatched(t *testing.T) {
	b := Bound{Name: "sim_ips", Better: "higher", Bound: 0.1}
	vals := make([]float64, minPairs)
	for i := range vals {
		vals[i] = 1
	}
	oi, ni := pairs("interp-corpus", "sim_ips", vals, vals)
	om, _ := pairs("mesh8", "sim_ips", vals, vals)
	traced := []Record{{Workload: "interp-corpus", Trace: true, Result: Summary{Metrics: map[string]Value{"sim_ips": {Value: 5}}}}}
	rows, err := Compare([]Bound{b}, append(oi, om...), append(traced, ni...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Workload != "interp-corpus" || rows[0].Verdict != "same" {
		t.Fatalf("rows %+v, want one interp-corpus row judged same", rows)
	}
	var buf bytes.Buffer
	WriteRows(&buf, rows)
	if !strings.Contains(buf.String(), "interp-corpus") || !strings.Contains(buf.String(), "same") || !strings.Contains(buf.String(), "0/10") {
		t.Errorf("table:\n%s", buf.String())
	}
}

package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "scheme", "cycles", "ratio")
	tb.AddRow("guarded", 100, 1.0)
	tb.AddRow("paging", 250, 2.5)
	s := tb.String()
	for _, want := range []string{"T1: demo", "scheme", "guarded", "250", "2.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), s)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("leading blank line for untitled table")
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(0.1234567)
	tb.AddRow(12.3456)
	tb.AddRow(12345.6)
	s := tb.String()
	for _, want := range []string{"0\n", "0.1235", "12.35", "12346"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	tb2 := NewTable("", "v")
	tb2.AddRow(float32(2.5))
	if !strings.Contains(tb2.String(), "2.50") {
		t.Error("float32 not formatted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if Summarize(nil).Count != 0 {
		t.Error("empty summary")
	}
	// Summarize must not mutate input.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.P90 < 85 || s.P90 > 95 || s.P99 < 95 {
		t.Errorf("percentiles: %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(0) // bucket -1
	h.Add(1) // bucket 0
	h.Add(2) // bucket 1
	h.Add(3) // bucket 1
	h.Add(1024)
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d", h.Bucket(1))
	}
	if h.Bucket(10) != 1 {
		t.Errorf("Bucket(10) = %d", h.Bucket(10))
	}
	if !strings.Contains(h.String(), "1024") {
		t.Errorf("histogram string:\n%s", h.String())
	}
	var empty Histogram
	if empty.String() != "(empty)" {
		t.Error("empty histogram rendering")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != "2.50x" {
		t.Errorf("Ratio = %s", Ratio(10, 4))
	}
	if Ratio(1, 0) != "inf" {
		t.Error("Ratio by zero")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize([]float64{}); s != (Summary{}) {
		t.Errorf("empty input: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.P50 != 7 || s.P99 != 7 {
		t.Errorf("single sample: %+v", s)
	}
	// Non-finite samples are dropped, not propagated.
	s = Summarize([]float64{math.NaN(), 2, math.Inf(1), 4, math.Inf(-1)})
	if s.Count != 2 || s.Min != 2 || s.Max != 4 || s.Mean != 3 {
		t.Errorf("non-finite filtering: %+v", s)
	}
	if s := Summarize([]float64{math.NaN(), math.Inf(1)}); s != (Summary{}) {
		t.Errorf("all non-finite should summarize as empty: %+v", s)
	}
}

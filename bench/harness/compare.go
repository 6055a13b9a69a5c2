package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Value is one metric as printed: its number and unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the one-line result every run prints last.
type Summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Summary condenses r into the printed result line.
func (r *Result) Summary() Summary {
	s := Summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Value{}}
	for _, m := range r.Metrics {
		s.Metrics[m.Name] = Value{m.Value, m.Unit}
	}
	return s
}

// Record is one run as appended to a results file (JSON Lines): the
// printed summary plus what it was measured on.
type Record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Start    time.Time      `json:"start"` // process start; orders runs into pairs
	Jobs     map[string]int `json:"jobs"`
	Host     Host           `json:"host"`
	Errors   []string       `json:"errors,omitempty"`
	Result   Summary        `json:"result"`
}

// ReadRecords reads a results file.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r Record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// Bound is one end-to-end metric's regression rule from BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadBounds reads the end-to-end metrics of a BENCHMARK.json.
func ReadBounds(path string) ([]Bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// minPairs is the fewest interleaved pairs of runs compare judges; with
// fewer, every row is unresolved.
const minPairs = 10

// Row is one compared workload and metric.
type Row struct {
	Workload, Metric string
	Old, New         float64 // medians
	Change           float64 // (New-Old)/Old, positive when New is better
	Spread           float64 // quartile spread of the per-pair ratios New/Old, as a share of their median
	OldSpread        float64 // quartile spread of the old runs, as a share of their median
	Bound            float64
	Pairs, Wins      int    // pairs compared, and those the new run won
	Losses           int    // pairs the old run won
	Verdict          string // better, worse, same or unresolved
}

// Compare judges every end-to-end metric of every workload that both
// sides ran untraced. The runs must come in interleaved pairs: taken in
// start order, each two consecutive runs of a workload are one old and
// one new run, so a host whose speed drifts while they run slows
// both runs of a pair alike. Judging a metric over n pairs:
//
//   - unresolved when n < minPairs;
//   - worse when the new median is worse than the old by more than the
//     bound, and either the per-pair ratios spread no wider than the
//     bound or the old run won at least nine pairs in ten;
//   - better when the new run won at least nine pairs in ten, the
//     medians differ by more than the old runs' quartile spread, and, if
//     the per-pair ratios spread wider than the bound, by more than the
//     bound too;
//   - otherwise unresolved when the per-pair ratios spread wider than
//     the bound or the new median is better by more than the bound, and
//     same when neither holds.
func Compare(bounds []Bound, old, new []Record) ([]Row, error) {
	byWorkload := func(rs []Record) map[string][]Record {
		m := map[string][]Record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	om, nm := byWorkload(old), byWorkload(new)
	var rows []Row
	for _, w := range Workloads {
		o, n := om[w.Name], nm[w.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		if err := checkInterleaved(o, n); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, b := range bounds {
			ov, nv := values(o, b.Name), values(n, b.Name)
			if len(ov) != len(o) || len(nv) != len(n) {
				continue
			}
			rows = append(rows, judge(w.Name, b, ov, nv))
		}
	}
	return rows, nil
}

// checkInterleaved sorts both sides by start time and checks that they
// form interleaved pairs: pair i, o[i] and n[i], starts after pair i-1
// has started both its runs, and the old run goes first in half the
// pairs (within one).
func checkInterleaved(o, n []Record) error {
	if len(o) != len(n) {
		return fmt.Errorf("%d old runs and %d new runs; compare needs interleaved pairs", len(o), len(n))
	}
	byStart := func(rs []Record) {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
	}
	byStart(o)
	byStart(n)
	oldFirst := 0
	var prevSecond time.Time
	for i := range o {
		first, second := o[i].Start, n[i].Start
		if first.Before(second) {
			oldFirst++
		} else {
			first, second = second, first
		}
		if i > 0 && first.Before(prevSecond) {
			return fmt.Errorf("runs are not interleaved in pairs: pair %d starts before pair %d has run both sides", i+1, i)
		}
		prevSecond = second
	}
	if d := 2*oldFirst - len(o); d > 1 || d < -1 {
		return fmt.Errorf("the old run goes first in %d of %d pairs; alternate which side runs first", oldFirst, len(o))
	}
	return nil
}

func values(rs []Record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies Compare's rules to pair i = (ov[i], nv[i]).
func judge(workload string, b Bound, ov, nv []float64) Row {
	sign := 1.0
	if b.Better == "lower" {
		sign = -1
	}
	row := Row{Workload: workload, Metric: b.Name, Old: median(ov), New: median(nv), Bound: b.Bound, Pairs: len(ov)}
	row.Change = sign * ratio(row.New-row.Old, row.Old)
	if row.Pairs < minPairs {
		row.Verdict = "unresolved"
		return row
	}
	ratios := make([]float64, len(ov))
	for i := range ov {
		ratios[i] = ratio(nv[i], ov[i])
		switch d := sign * (nv[i] - ov[i]); {
		case d > 0:
			row.Wins++
		case d < 0:
			row.Losses++
		}
	}
	row.Spread = spread(ratios)
	row.OldSpread = spread(ov)
	noisy := row.Spread > b.Bound
	mostly := func(k int) bool { return 10*k >= 9*row.Pairs }
	switch {
	case row.Change < -b.Bound && (!noisy || mostly(row.Losses)):
		row.Verdict = "worse"
	case mostly(row.Wins) && row.Change > row.OldSpread && (!noisy || row.Change > b.Bound):
		row.Verdict = "better"
	case noisy || row.Change > b.Bound:
		row.Verdict = "unresolved"
	default:
		row.Verdict = "same"
	}
	return row
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method); xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], median(xs))
}

// WriteRows prints a comparison table.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %7s %7s %6s %6s  %s\n",
		"workload", "metric", "old", "new", "change", "spread", "old-sp", "bound", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%% %6s  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.OldSpread, 100*r.Bound,
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}

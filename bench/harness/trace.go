package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans are kept in memory and written as JSON Lines when the run ends.
// A nil *tracer records nothing, so the untraced path pays one nil
// check per call site.
type tracer struct {
	epoch time.Time
	job   int
	spans []span
	open  []int // stack of open span indices
	notes map[string][]float64
}

// span is one recorded interval. Parent is the index of the enclosing
// span, or -1.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), notes: make(map[string][]float64)}
}

// setJob stamps spans begun from now on with job id.
func (t *tracer) setJob(id int) {
	if t != nil {
		t.job = id
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// note records one sample of a derived quantity that is not a span of
// its own (the store-write share of a capture, a migration's
// stop-the-world cycles).
func (t *tracer) note(name string, v float64) {
	if t != nil {
		t.notes[name] = append(t.notes[name], v)
	}
}

// durations returns the durations in microseconds of every span called
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfNanos sums the self time (duration minus the time its child spans
// cover) of every span called name.
func (t *tracer) selfNanos(name string) int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var self int64
	for i, s := range t.spans {
		if s.Name == name {
			self += s.End - s.Start - child[i]
		}
	}
	return self
}

// write saves the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			span
		}{i, s}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package experiments regenerates every figure and quantitative claim
// of the paper as a printed table. Each experiment is a pure function
// returning a rendered report; the registry maps experiment ids (E1 …
// E30, as indexed in DESIGN.md and EXPERIMENTS.md; E22 is retired) to
// runners so cmd/experiments and the tests share one implementation.
//
// The paper has no measured tables — its evaluation is Figures 1–5 plus
// quantitative claims embedded in the text — so each experiment either
// animates a figure on the simulator (E1–E5) or measures a claim
// against the competing schemes of Sec 5 (E6–E13). EXPERIMENTS.md
// records the paper-claim vs measured-shape comparison for each.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	// Run produces the rendered report.
	Run func() (string, error)
}

// registry in id order.
var registry []Experiment

func register(id, title string, run func() (string, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in id order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(strings.TrimPrefix(id, "E"), "%d", &n)
	return n
}

// Lookup finds an experiment by id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment serially and concatenates the
// reports in id order.
func RunAll() (string, error) { return RunAllParallel(1) }

// RunAllParallel executes every experiment on a pool of workers
// (0 means GOMAXPROCS) and concatenates the reports in id order, so the
// rendered output is byte-identical to a serial run: experiments are
// independent — each builds its own machines — and only the scheduling
// changes. On error the reports preceding the first failing experiment
// (in id order) are returned, matching the serial contract.
func RunAllParallel(workers int) (string, error) {
	return Render(All(), workers)
}

// RunList executes the given experiments on a pool of workers (0 means
// GOMAXPROCS, 1 means serial on the calling goroutine) and returns the
// per-experiment outputs and errors in input order. A serial run stops
// at the first error; a parallel run may populate later slots, but
// Render ignores everything after the first error, preserving the
// serial contract.
func RunList(list []Experiment, workers int) ([]string, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(list) {
		workers = len(list)
	}
	outs := make([]string, len(list))
	errs := make([]error, len(list))
	if workers <= 1 {
		for i, e := range list {
			outs[i], errs[i] = e.Run()
			if errs[i] != nil {
				break
			}
		}
		return outs, errs
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(list) {
					return
				}
				outs[i], errs[i] = list[i].Run()
			}
		}()
	}
	wg.Wait()
	return outs, errs
}

// Render runs the experiments via RunList and concatenates the reports
// in input order.
func Render(list []Experiment, workers int) (string, error) {
	outs, errs := RunList(list, workers)
	var b strings.Builder
	for i, e := range list {
		if errs[i] != nil {
			return b.String(), fmt.Errorf("%s: %w", e.ID, errs[i])
		}
		fmt.Fprintf(&b, "=== %s: %s ===\n%s\n", e.ID, e.Title, outs[i])
	}
	return b.String(), nil
}

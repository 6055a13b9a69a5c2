package experiments

import (
	"errors"
	"strings"
	"testing"
)

// deterministicSubset picks experiments whose reports depend only on
// simulated state — E26 is excluded because it prints host wall-clock
// timings. The subset keeps the test fast while still covering real
// simulator runs on every worker.
func deterministicSubset(t *testing.T) []Experiment {
	t.Helper()
	var list []Experiment
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
		list = append(list, e)
	}
	return list
}

// TestParallelRenderByteIdentical: running experiments on a worker pool
// must concatenate to exactly the serial output — experiments are
// independent, ordering is restored at render time. The Makefile race
// gate runs this under -race.
func TestParallelRenderByteIdentical(t *testing.T) {
	list := deterministicSubset(t)
	serial, err := Render(list, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		parallel, err := Render(list, workers)
		if err != nil {
			t.Fatal(err)
		}
		if parallel != serial {
			t.Errorf("workers=%d output differs from serial (%d vs %d bytes)",
				workers, len(parallel), len(serial))
		}
	}
	for _, e := range list {
		if !strings.Contains(serial, "=== "+e.ID+": ") {
			t.Errorf("output missing section for %s", e.ID)
		}
	}
}

// TestRenderErrorContract: an error surfaces as "<id>: <err>" with the
// reports preceding it (in input order) already rendered — identical
// for serial and parallel pools.
func TestRenderErrorContract(t *testing.T) {
	boom := errors.New("boom")
	list := []Experiment{
		{ID: "X1", Title: "ok", Run: func() (string, error) { return "fine\n", nil }},
		{ID: "X2", Title: "fails", Run: func() (string, error) { return "", boom }},
		{ID: "X3", Title: "after", Run: func() (string, error) { return "later\n", nil }},
	}
	for _, workers := range []int{1, 3} {
		out, err := Render(list, workers)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "X2") {
			t.Errorf("workers=%d: err = %v, want X2: boom", workers, err)
		}
		if want := "=== X1: ok ===\nfine\n\n"; out != want {
			t.Errorf("workers=%d: partial output %q, want %q", workers, out, want)
		}
	}
}

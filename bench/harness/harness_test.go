package harness

import (
	"strings"
	"testing"
	"time"

	"repro/bench/golden"
)

// TestSmoke runs every workload for a zero-length timed phase, which
// still runs one job after the set-ups and their warm-up jobs, against
// the committed seed-1 digests: none may fail, and every end-to-end
// metric is reported and non-zero.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range Workloads {
		gold, err := golden.Load(1, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if gold == nil {
			t.Fatalf("%s: no golden digests for seed 1", w.Name)
		}
		res, err := Run(Options{Workload: w.Name, Seed: 1, Start: time.Now(), OutDir: t.TempDir(), Golden: gold})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 1 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		if len(res.Metrics) != len(e2eMetrics) {
			t.Fatalf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(e2eMetrics))
		}
		for _, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
}

// TestInterpreterAndJITDigestsAgree runs one program of every corpus
// family on both tiers: architectural state and every statistic must be
// identical, and the committed golden files must agree too.
func TestInterpreterAndJITDigestsAgree(t *testing.T) {
	dir := t.TempDir()
	ci, err := prepare(Workloads[0], 1, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := prepare(Workloads[1], 1, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a, b := ci.jobs[i].run(nil), cj.jobs[i].run(nil)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", ci.jobs[i].name(), a.err, b.err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: interpreter digest %016x, JIT %016x", ci.jobs[i].name(), a.digest, b.digest)
		}
	}
	for _, seed := range []uint64{1, 2} {
		gi, _ := golden.Load(seed, "interp-corpus")
		gj, _ := golden.Load(seed, "jit-corpus")
		if len(gi) == 0 || len(gi) != len(gj) {
			t.Fatalf("seed %d: %d interp and %d jit golden digests", seed, len(gi), len(gj))
		}
		for i := range gi {
			if gi[i] != gj[i] {
				t.Errorf("seed %d entry %d: golden interp %016x, jit %016x", seed, i, gi[i], gj[i])
			}
		}
	}
}

// TestMeshOnInterpreter runs a mesh job with the translator off: it must
// halt with its model's results and the same digest as with it on,
// since mesh nodes run the translator paced.
func TestMeshOnInterpreter(t *testing.T) {
	c, err := prepare(Workloads[3], 1, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := c.jobs[0].(*meshJob)
	on := j.run(nil)
	off := *j
	off.withJIT = false
	interp := off.run(nil)
	if on.err != nil || interp.err != nil {
		t.Fatalf("jit: %v, interpreter: %v", on.err, interp.err)
	}
	if on.digest != interp.digest {
		t.Errorf("mesh digest %016x with the translator, %016x without", on.digest, interp.digest)
	}
}

// TestCorruptGoldenFails corrupts the golden digest of the second corpus
// entry and runs two jobs after set-up: the run must count the second
// as failed.
func TestCorruptGoldenFails(t *testing.T) {
	gold, err := golden.Load(1, "interp-corpus")
	if err != nil || gold == nil {
		t.Fatalf("golden: %v", err)
	}
	gold = append([]uint64(nil), gold...)
	gold[1] ^= 1
	r := newRunner(gold)
	if err := r.setUp(Workloads[0], 1, nil, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	r.phase(0, nil)
	r.phase(0, nil)
	res := r.res
	if res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("attempted=%d failed=%d, want one failure in two jobs", res.Attempted, res.Failed)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "digest") {
		t.Fatalf("errors %v, want one digest mismatch", res.Errors)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "outer", Parent: -1, Start: 0, End: 100},
		{Name: "inner", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Parent: 0, Start: 50, End: 60},
		{Name: "outer", Parent: -1, Start: 200, End: 210},
	}
	if got := tr.selfNanos("outer"); got != 60+10 {
		t.Errorf("outer self time %d, want 70", got)
	}
	if got := tr.selfNanos("inner"); got != 40 {
		t.Errorf("inner self time %d, want 40", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // a nil tracer records nothing and must not panic
}

func TestParseTop(t *testing.T) {
	report := `File: mmbench
Type: cpu
Duration: 6.67s, Total samples = 2s (29.99%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      1.20s 60.00%  repro/internal/machine.(*Machine).execute
     0.40s 20.00% 60.00%      0.40s 20.00%  runtime.memclrNoHeapPointers
     0.30s 15.00% 75.00%      0.30s 15.00%  repro/internal/vm.(*Space).Translate
     0.20s 10.00% 85.00%      0.20s 10.00%  internal/runtime/syscall.Syscall6
     0.10s  5.00% 90.00%      0.10s  5.00%  hash/crc32.ieeeCLMUL
     0.10s  5.00% 95.00%      0.10s  5.00%  repro/bench/harness.(*runner).phase
     0.10s  5.00%   100%      0.10s  5.00%  repro/internal/stats.Summarize
`
	shares, total, err := parseTop(report)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("total %v s, want 2", total)
	}
	want := map[string]float64{"machine": 0.4, "runtime": 0.3, "vm": 0.15, "stdlib": 0.05, "bench": 0.05, "other": 0.05}
	for k, v := range want {
		if d := shares[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", k, shares[k], v)
		}
	}
}

// Package harness runs the mmbench workloads: it sets each workload up
// from a seed, runs its jobs in a closed loop for a fixed time, checks
// every job, and reports end-to-end metrics (untraced) or per-layer
// metrics (traced).
package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// Options configure one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Start is when the process started; the first set-up is timed
	// from it.
	Start time.Time
	// OutDir holds the run's checkpoint stores and, when tracing, its
	// spans, CPU profile and pprof report.
	OutDir string
	// Golden holds the committed digest of every corpus entry, or nil
	// when the seed has none; entries are then checked against their own
	// first run.
	Golden []uint64
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is the outcome of one run.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// Errors holds the first few failures, for the log.
	Errors []string
	// Jobs counts the jobs of each phase: "timed" (untraced), and in
	// traced runs "untraced" and "traced".
	Jobs map[string]int
	// TraceDir is where a traced run left its spans and profile.
	TraceDir string
}

// runner carries one run's state.
type runner struct {
	c      *corpus
	golden []uint64
	ref    map[int]uint64 // corpus entry -> expected digest
	next   int
	res    *Result
}

// newRunner starts a run whose corpus entries are checked against gold,
// or, with gold nil, against their own first run.
func newRunner(gold []uint64) *runner {
	r := &runner{golden: gold, ref: map[int]uint64{}, res: &Result{Jobs: map[string]int{}}}
	for j, d := range gold {
		r.ref[j] = d
	}
	return r
}

// setUp generates, assembles and verifies the workload's programs, then
// runs the first corpus entry once as an untimed warm-up job, checked
// like any other.
func (r *runner) setUp(w Workload, seed uint64, tr *tracer, storeDir string) error {
	c, err := prepare(w, seed, tr, storeDir)
	if err != nil {
		return err
	}
	if r.golden != nil && len(r.golden) != len(c.jobs) {
		return fmt.Errorf("golden file has %d digests for %d jobs", len(r.golden), len(c.jobs))
	}
	r.c = c
	if out := c.jobs[0].run(nil); !r.check(0, out) {
		return fmt.Errorf("warm-up job %s failed: %s", c.jobs[0].name(), r.res.Errors[len(r.res.Errors)-1])
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	jobs, failed int
	ms           []float64 // host ms per job
	rssMB        []float64 // peak RSS of each job
	busy         time.Duration
	passIPS      []float64 // sim-instr/s of each complete pass over the corpus
	c            counters
	alloc        uint64
	gcs          uint32
}

// Run sets the workload up setupRepeats times and then runs its jobs in
// a closed loop for opts.Seconds.
func Run(opts Options) (*Result, error) {
	w, ok := Lookup(opts.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.Workload)
	}
	storeDir := filepath.Join(opts.OutDir, "store", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(storeDir)
	r := newRunner(opts.Golden)
	var tr *tracer
	if opts.Trace {
		tr = newTracer()
	}

	setups := make([]float64, setupRepeats)
	for i := range setups {
		// Every set-up after the first starts from a collected heap, as
		// the first does at process start.
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = opts.Start
		}
		if err := r.setUp(w, opts.Seed, tr, storeDir); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}

	if !opts.Trace {
		p := r.phase(seconds(opts.Seconds), nil)
		r.res.Jobs["timed"] = p.jobs
		r.endToEnd(p, setups)
	} else {
		// The first third runs untraced, so the traced phase's throughput
		// can be set against it (trace_overhead).
		a := r.phase(seconds(opts.Seconds/3), nil)
		dir := filepath.Join(opts.OutDir, "trace", fmt.Sprintf("%s-seed%d", opts.Workload, opts.Seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r.res.TraceDir = dir
		prof := filepath.Join(dir, "cpu.pprof")
		b, err := r.profiledPhase(seconds(opts.Seconds*2/3), tr, prof)
		if err != nil {
			return nil, err
		}
		r.res.Jobs["untraced"] = a.jobs
		r.res.Jobs["traced"] = b.jobs
		if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
			return nil, err
		}
		shares, cpuSeconds, err := cpuShares(prof, filepath.Join(dir, "top.txt"))
		if err != nil {
			return nil, err
		}
		if err := r.perLayer(a, b, tr, shares, cpuSeconds, storeDir); err != nil {
			return nil, err
		}
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	return r.res, nil
}

// Digests runs every corpus entry of the workload once and returns
// their digests, failing on any job that fails its checks.
func Digests(workload string, seed uint64, outDir string) ([]uint64, error) {
	w, ok := Lookup(workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	storeDir := filepath.Join(outDir, "store", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(storeDir)
	c, err := prepare(w, seed, nil, storeDir)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(c.jobs))
	for i, j := range c.jobs {
		o := j.run(nil)
		if o.err != nil {
			return nil, o.err
		}
		out[i] = o.digest
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// check compares one job's outcome with the reference digest of its
// corpus entry and counts a failure.
func (r *runner) check(idx int, out outcome) bool {
	err := out.err
	want, known := r.ref[idx]
	if err == nil && known && out.digest != want {
		err = fmt.Errorf("%s: digest %016x, want %016x", r.c.jobs[idx].name(), out.digest, want)
	}
	if err != nil {
		if len(r.res.Errors) < 8 {
			r.res.Errors = append(r.res.Errors, err.Error())
		}
		return false
	}
	if !known {
		r.ref[idx] = out.digest
	}
	return true
}

// phase runs jobs round-robin over the corpus until d has passed, and
// at least one.
//
// Every job starts from a collected heap, as a fresh mmsim process does,
// and the collector runs inside the job as in any program: a job's time
// includes every collection its own allocation triggers, but not the
// collection of the previous job's garbage. Each job's peak RSS is
// measured on its own, from a high-water mark reset just before it.
func (r *runner) phase(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var passInstr uint64
	var passBusy time.Duration
	for p.jobs == 0 || time.Since(start) < d {
		idx := r.next % len(r.c.jobs)
		r.next++
		tr.setJob(r.next)
		runtime.GC()
		resetPeakRSS()
		out := r.c.jobs[idx].run(tr)
		p.rssMB = append(p.rssMB, maxRSSMB())
		p.jobs++
		p.busy += out.elapsed
		p.ms = append(p.ms, float64(out.elapsed.Nanoseconds())/1e6)
		p.c.add(out.c)
		if !r.check(idx, out) {
			p.failed++
		}
		passInstr += out.c.instr
		passBusy += out.elapsed
		if p.jobs%len(r.c.jobs) == 0 {
			p.passIPS = append(p.passIPS, ratio(float64(passInstr), passBusy.Seconds()))
			passInstr, passBusy = 0, 0
		}
	}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC - uint32(p.jobs) // less the collections between jobs
	r.res.Attempted += p.jobs
	r.res.Failed += p.failed
	return p
}

// profiledPhase is phase with the CPU profiler writing to path.
func (r *runner) profiledPhase(d time.Duration, tr *tracer, path string) (*phase, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := r.phase(d, tr)
	pprof.StopCPUProfile()
	return p, f.Close()
}

// e2eMetrics names the untraced metrics, in report order, with units.
var e2eMetrics = []struct{ Name, Unit string }{
	{"sim_ips", "instr/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p95", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"alloc_b_per_kinstr", "B/kinstr"},
}

// endToEnd fills the untraced metrics.
func (r *runner) endToEnd(p *phase, setups []float64) {
	vals := map[string]float64{
		"sim_ips":            p.ips(),
		"job_ms_p50":         percentile(p.ms, 0.50),
		"job_ms_p95":         percentile(p.ms, 0.95),
		"setup_s":            percentile(setups, 0.50),
		"max_rss_mb":         percentile(p.rssMB, 0.50),
		"alloc_b_per_kinstr": ratio(float64(p.alloc), float64(p.c.instr)/1e3),
	}
	for _, m := range e2eMetrics {
		r.res.Metrics = append(r.res.Metrics, Metric{m.Name, vals[m.Name], m.Unit})
	}
}

// ips is the median throughput of the phase's complete corpus passes,
// or of the whole phase when it made none.
func (p *phase) ips() float64 {
	if len(p.passIPS) == 0 {
		return ratio(float64(p.c.instr), p.busy.Seconds())
	}
	return median(p.passIPS)
}

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Command mmbench is the repository's benchmark: seeded MAP programs
// run on the default machine through the public APIs of every layer,
// each job checked against golden architectural digests and its
// program's Go model.
//
// Usage:
//
//	mmbench --workload interp-corpus [--seed 1] [--seconds 20] [--trace 0|1]
//	mmbench -write-golden [-seed 1]
//	mmbench compare old.jsonl new.jsonl
//
// A run prints every metric by name and unit, then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. It also
// appends a record with the host it ran on to the results file (-out).
// compare judges interleaved pairs of runs of two commits, as
// bench/pairs.sh makes them. bench/README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/bench/golden"
	"repro/bench/harness"
)

func main() {
	start := time.Now()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	var names []string
	for _, w := range harness.Workloads {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed (1 is the default, 2 is held out)")
	secs := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
	dir := fs.String("dir", filepath.Join(".bench_build", "mmbench"), "scratch directory for checkpoint stores and traces")
	out := fs.String("out", "", "results file to append this run's record to (default <dir>/results.jsonl)")
	writeGolden := fs.Bool("write-golden", false, "run every corpus entry of every workload once and write bench/golden/seed<N>.json (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden {
		return writeGoldenFile(*seed, *dir, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "mmbench: -trace must be 0 or 1")
		return 2
	}
	gold, err := golden.Load(*seed, *workload)
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	res, err := harness.Run(harness.Options{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace == 1,
		Start: start, OutDir: *dir, Golden: gold,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "mmbench: job failed:", e)
	}
	fmt.Fprintf(stdout, "mmbench %s seed=%d trace=%d jobs=%v golden=%v\n", *workload, *seed, *trace, res.Jobs, gold != nil)
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if res.TraceDir != "" {
		fmt.Fprintf(stdout, "  spans, CPU profile and pprof report in %s\n", res.TraceDir)
	}
	sum := res.Summary()
	rec := harness.Record{
		Workload: *workload, Seed: *seed, Trace: *trace == 1, Seconds: *secs, Start: start,
		Jobs: res.Jobs, Host: harness.HostRecord(*dir), Errors: res.Errors, Result: sum,
	}
	if *out == "" {
		*out = filepath.Join(*dir, "results.jsonl")
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// appendRecord adds one JSON line to the results file.
func appendRecord(path string, rec harness.Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGoldenFile records every workload's digests for seed. The
// interpreter and JIT corpora run the same programs, so their digests
// must agree entry for entry.
func writeGoldenFile(seed uint64, dir string, stdout, stderr io.Writer) int {
	f := golden.File{Seed: seed, Workloads: map[string][]string{}}
	var digests [][]uint64
	for _, w := range harness.Workloads {
		ds, err := harness.Digests(w.Name, seed, dir)
		if err != nil {
			fmt.Fprintf(stderr, "mmbench: %s: %v\n", w.Name, err)
			return 1
		}
		digests = append(digests, ds)
		for _, d := range ds {
			f.Workloads[w.Name] = append(f.Workloads[w.Name], fmt.Sprintf("%016x", d))
		}
	}
	if fmt.Sprint(digests[0]) != fmt.Sprint(digests[1]) {
		fmt.Fprintln(stderr, "mmbench: interp-corpus and jit-corpus digests differ")
		return 1
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	path := filepath.Join("bench", "golden", golden.FileName(seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "mmbench: wrote", path)
	return 0
}

// compare judges two results files of interleaved pairs of runs against
// BENCHMARK.json's bounds and exits 1 when any metric got worse.
func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mmbench compare [-benchmark BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	bounds, err := harness.ReadBounds(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	old, err := harness.ReadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	cur, err := harness.ReadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	rows, err := harness.Compare(bounds, old, cur)
	if err != nil {
		fmt.Fprintln(stderr, "mmbench:", err)
		return 1
	}
	harness.WriteRows(stdout, rows)
	for _, r := range rows {
		if r.Verdict == "worse" {
			return 1
		}
	}
	return 0
}

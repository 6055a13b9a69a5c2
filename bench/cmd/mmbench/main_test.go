package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLastLineIsTheSummary checks the output contract: the last line of
// standard output is one JSON object with exactly the keys correct,
// attempted, failed and metrics, and the run appends a record with the
// host to the results file.
func TestLastLineIsTheSummary(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "jit-corpus", "--seed", "1", "--seconds", "0", "--trace", "0", "-dir", dir}, time.Now(), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
		t.Fatalf("summary keys %v", sum)
	}
	if string(sum["correct"]) != "true" || string(sum["attempted"]) != "1" {
		t.Fatalf("summary %s", lines[len(lines)-1])
	}
	rec, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc"`, `"gomaxprocs"`, `"cpu_model"`, `"go_version"`, `"commit"`, `"store_fs"`, `"seed":1`, `"jobs"`, `"start"`} {
		if !bytes.Contains(rec, []byte(key)) {
			t.Errorf("results record lacks %s: %s", key, rec)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "-dir", t.TempDir()}, time.Now(), &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), "{") {
		t.Fatalf("printed a result: %s", out.String())
	}
}

// TestCompareCommand writes ten interleaved pairs in which the new side
// is 30% slower in every pair: compare must call it worse and exit 1.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"sim_ips","unit":"instr/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(v float64, minute int) string {
		return fmt.Sprintf(`{"workload":"mesh8","trace":false,"start":"2026-01-01T00:%02d:00Z","result":{"metrics":{"sim_ips":{"value":%g,"unit":"instr/s"}}}}`+"\n", minute, v)
	}
	var olds, news strings.Builder
	for i := 0; i < 10; i++ {
		v := 100 + float64(i%3)
		first, second := 2*i, 2*i+1
		if i%2 == 1 {
			first, second = second, first
		}
		olds.WriteString(line(v, first))
		news.WriteString(line(0.7*v, second))
	}
	old, cur := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	if err := os.WriteFile(old, []byte(olds.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, []byte(news.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"compare", "-benchmark", spec, old, cur}, time.Now(), &out, &errb); code != 1 {
		t.Fatalf("exit %d for a regression, want 1: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "mesh8") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}

package harness

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// cpuShares aggregates a CPU profile with `go tool pprof -top`, saving
// the report to topPath, and returns the share of samples whose leaf
// function lies in each cpuBuckets package plus the profile's total
// CPU seconds.
func cpuShares(profPath, topPath string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", profPath)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	if err := os.WriteFile(topPath, out.Bytes(), 0o644); err != nil {
		return nil, 0, err
	}
	return parseTop(out.String())
}

// parseTop reads pprof's -top table: the "Total samples = X" header and
// one "flat flat% sum% cum cum% function" row per function.
func parseTop(report string) (map[string]float64, float64, error) {
	shares := make(map[string]float64)
	total := -1.0
	rows := false
	for _, line := range strings.Split(report, "\n") {
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) > 0 {
				total = seconds64(f[0])
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %v", line, err)
		}
		shares[bucketOf(strings.Join(f[5:], " "))] += pct / 100
	}
	if total < 0 {
		return nil, 0, fmt.Errorf("pprof report has no sample total")
	}
	return shares, total, nil
}

// seconds64 parses a pprof duration such as "9.80s", "740ms" or "1.5mins".
func seconds64(s string) float64 {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0
			}
			return v * u.scale
		}
	}
	return 0
}

// bucketOf maps a symbol such as "repro/internal/machine.(*Machine).Step"
// to its cpuBuckets entry, or "other" for an internal package without
// one.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other" // not a bucket: lowers cpu_share_covered

	case strings.HasPrefix(pkg, "repro/bench"), pkg == "main":
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

package capverify_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/faultinject"
)

// diagGoldenPath pins the rendered text of every diagnostic the
// verifier emits over its corpus, with the per-class counts. A check
// records its message as data and Diag.Msg is rendered from it (msg.go);
// mmlint, mmasm -verify and E25/E30 print that text, so it must not
// change by accident. Edit the file only together with a deliberate
// change to the analysis or its messages.
const diagGoldenPath = "testdata/diag.golden"

// diagCorpus is every program the golden covers, keyed by a stable
// name: the shipped programs, the fault-campaign workloads, the crafted
// violations of TestBadProgramsDifferential, the FuzzVerify seeds (the
// flow and leak scenarios plus the committed seed corpus) and the
// BenchmarkVerify mesh programs under testdata.
func diagCorpus(t testing.TB) map[string]*asm.Program {
	t.Helper()
	out := make(map[string]*asm.Program)
	for name, prog := range shippedPrograms(t) {
		out["programs/"+name] = prog
	}
	add := func(kind, name, src string) {
		prog, err := asm.AssembleNamed(name+".s", src)
		if err != nil {
			t.Fatalf("%s/%s: %v", kind, name, err)
		}
		out[kind+"/"+name] = prog
	}
	for name, src := range faultinject.WorkloadSources() {
		add("workload", name, src)
	}
	for _, bp := range badPrograms {
		add("bad", bp.name, bp.src)
	}
	for _, fp := range flowPrograms {
		add("flow", fp.name, fp.src)
	}
	for _, lp := range leakPrograms {
		add("leak", lp.name, lp.src)
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzVerify", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzVerify seed files: %v", err)
	}
	for _, f := range seeds {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a one-string fuzz seed", f)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add("seed", filepath.Base(f), src)
	}
	for _, name := range meshProgramFiles {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		add("mesh", strings.TrimSuffix(name, ".s"), string(src))
	}
	return out
}

// renderDiagGolden verifies every corpus program under each
// configuration FuzzVerify uses, plus the register-only analysis, and
// renders the reports: the per-class summary, every Diag and every Leak.
func renderDiagGolden(t *testing.T) string {
	corpus := diagCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	configs := []struct {
		name string
		cfg  capverify.Config
	}{
		{"default", capverify.Config{}},
		{"privileged", capverify.Config{Privileged: true}},
		{"data64", capverify.Config{DataBytes: 64}},
		{"registers-only", capverify.Config{RegistersOnly: true}},
	}
	var b strings.Builder
	for _, name := range names {
		for _, c := range configs {
			rep := capverify.Verify(corpus[name], c.cfg)
			fmt.Fprintf(&b, "== %s [%s] reachable=%d abyss=%v\n", name, c.name, rep.ReachableWords, rep.Abyss)
			b.WriteString(rep.Summary())
			for _, d := range rep.Diags {
				fmt.Fprintf(&b, "%s | %s\n", d, d.Inst)
			}
			for _, l := range rep.Leaks {
				fmt.Fprintf(&b, "%s\n", l)
			}
		}
	}
	return b.String()
}

func TestDiagGolden(t *testing.T) {
	want, err := os.ReadFile(diagGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderDiagGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q", diagGoldenPath, i+1, g, w)
		}
	}
}

package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// E22 was folded into E26; its id stays retired.
	var want []int
	for id := 1; id <= 30; id++ {
		if id != 22 {
			want = append(want, id)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d (E1..E30 without E22)", len(all), len(want))
	}
	for i, e := range all {
		if idOrder(e.ID) != want[i] {
			t.Errorf("position %d holds %s, want E%d", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E6"); !ok {
		t.Error("E6 not found")
	}
	if _, ok := Lookup("e6"); !ok {
		t.Error("lookup not case-insensitive")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("E99 found")
	}
}

// runOne is a helper asserting an experiment produces a non-trivial
// report containing the given markers.
func runOne(t *testing.T, id string, markers ...string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(out) < 100 {
		t.Fatalf("%s: suspiciously short report:\n%s", id, out)
	}
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("%s: report missing %q:\n%s", id, m, out)
		}
	}
	return out
}

func TestE1(t *testing.T) {
	out := runOne(t, "E1", "2^54", "enter-priv", "385", "1.54%")
	if !strings.Contains(out, "read/write") {
		t.Error("rights matrix missing read/write row")
	}
}

func TestE2(t *testing.T) {
	runOne(t, "E2", "bounds fault", "64 accepted", "round trip")
}

func TestE3ShapeHolds(t *testing.T) {
	out := runOne(t, "E3", "enter pointer (minimal)", "kernel call gate")
	// The measured shape: the enter-pointer call must be at least an
	// order of magnitude cheaper than the trap gate.
	var enterCPC, gateCPC float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if strings.HasPrefix(l, "enter pointer (minimal)") {
			enterCPC = atofField(t, f[len(f)-2])
		}
		if strings.HasPrefix(l, "kernel call gate") {
			gateCPC = atofField(t, f[len(f)-2])
		}
	}
	if enterCPC == 0 || gateCPC == 0 {
		t.Fatalf("could not parse cycle columns:\n%s", out)
	}
	if gateCPC < 10*enterCPC {
		t.Errorf("gate %.1f vs enter %.1f: expected ≥10x gap", gateCPC, enterCPC)
	}
}

func atofField(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE4MonotoneInLivePointers(t *testing.T) {
	out := runOne(t, "E4", "live pointers saved", "return segment")
	// Parse cycles column for live = 0 and live = 6: must increase.
	var c0, c6 float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == "0" && strings.Contains(l, ".") {
			c0 = atofField(t, f[1])
		}
		if len(f) >= 3 && f[0] == "6" && strings.Contains(l, ".") {
			c6 = atofField(t, f[1])
		}
	}
	if c0 == 0 || c6 <= c0 {
		t.Errorf("two-way call cost not monotone: live0=%.1f live6=%.1f\n%s", c0, c6, out)
	}
}

func TestE5FourPerCycle(t *testing.T) {
	out := runOne(t, "E5", "staggered", "same-bank", "refs/cycle")
	if !strings.Contains(out, "4.00") {
		t.Errorf("staggered streams did not reach 4 refs/cycle:\n%s", out)
	}
	if !strings.Contains(out, "1.00") {
		t.Errorf("same-bank streams did not serialize to 1 ref/cycle:\n%s", out)
	}
}

func TestE6GuardedWins(t *testing.T) {
	out := runOne(t, "E6", "guarded-ptr", "page-noasid", "guarded-pointers")
	// Parse only the first (domain-count) table; the quantum-sweep
	// table reuses the same row labels.
	first := out
	if i := strings.Index(out, "switch quantum"); i >= 0 {
		first = out[:i]
	}
	lines := strings.Split(first, "\n")
	var guarded16, flush16 float64
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 6 && f[0] == "guarded-ptr" {
			guarded16 = atofField(t, f[len(f)-1])
		}
		if len(f) >= 6 && f[0] == "page-noasid" {
			flush16 = atofField(t, f[len(f)-1])
		}
	}
	if guarded16 == 0 || flush16 < 3*guarded16 {
		t.Errorf("at 16 domains: guarded %.2f vs flush %.2f — shape broken", guarded16, flush16)
	}
}

func TestE7(t *testing.T) {
	runOne(t, "E7", "1.56%", "n×m", "65544 B")
}

func TestE8(t *testing.T) {
	out := runOne(t, "E8", "uniform-log", "pow2-exact")
	if !strings.Contains(out, "0.0%") {
		t.Errorf("pow2 requests should show zero internal fragmentation:\n%s", out)
	}
}

func TestE9SweepScalesUnmapDoesNot(t *testing.T) {
	runOne(t, "E9", "unmap", "sweep", "131584x")
}

func TestE10(t *testing.T) {
	out := runOne(t, "E10", "guarded", "sfi", "overhead")
	if !strings.Contains(out, "1.27x") && !strings.Contains(out, "1.26x") && !strings.Contains(out, "1.28x") {
		t.Errorf("machine-level SFI overhead missing:\n%s", out)
	}
}

func TestE11(t *testing.T) {
	runOne(t, "E11", "guarded pointer increment", "segment base + offset")
}

func TestE12(t *testing.T) {
	out := runOne(t, "E12", "1024", "words scanned")
	if !strings.Contains(out, "1.00") {
		t.Errorf("scan/live-word ratio should be 1.00:\n%s", out)
	}
}

func TestE13(t *testing.T) {
	runOne(t, "E13", "cap-table", "2 (cap→VA, VA→PA)", "guarded-ptr")
}

func TestE14RemoteLatencyMonotone(t *testing.T) {
	out := runOne(t, "E14", "hops", "hot-spot")
	var lat []float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 4 && (f[0] == "0" || f[0] == "1" || f[0] == "2" || f[0] == "3") {
			lat = append(lat, atofField(t, f[2]))
		}
	}
	if len(lat) != 4 {
		t.Fatalf("parsed %d latency rows:\n%s", len(lat), out)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Errorf("latency not monotone in hops: %v", lat)
		}
	}
}

func TestE15AllConsumersSucceed(t *testing.T) {
	runOne(t, "E15", "7/7", "0 bytes")
}

func TestE16MultithreadingRecoversUtilization(t *testing.T) {
	out := runOne(t, "E16", "ILP-rich", "latency-bound", "4 threads")
	var rich1, poor1, poor4 float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) < 5 {
			continue
		}
		switch {
		case strings.HasPrefix(l, "ILP-rich"):
			rich1 = atofField(t, f[len(f)-2])
		case strings.HasPrefix(l, "latency-bound, single"):
			poor1 = atofField(t, f[len(f)-2])
		case strings.HasPrefix(l, "latency-bound, 4"):
			poor4 = atofField(t, f[len(f)-2])
		}
	}
	if rich1 < 1.5 {
		t.Errorf("ILP-rich IPC = %.2f, want > 1.5 (wide issue)", rich1)
	}
	if poor1 > 0.8 {
		t.Errorf("latency-bound single IPC = %.2f, want well under 1", poor1)
	}
	if poor4 < 1.5*poor1 {
		t.Errorf("multithreading did not recover utilization: %.2f vs %.2f", poor4, poor1)
	}
}

func TestE17EmulationCostsMoreButNoTrap(t *testing.T) {
	out := runOne(t, "E17", "hardware RESTRICT", "SETPTR", "no kernel trap")
	var hw, em float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if strings.HasPrefix(l, "hardware RESTRICT") {
			hw = atofField(t, f[len(f)-2])
		}
		if strings.HasPrefix(l, "enter-priv routine") {
			em = atofField(t, f[len(f)-2])
		}
	}
	if hw != 1 {
		t.Errorf("hardware restrict = %.2f cycles, want 1", hw)
	}
	if em < 5*hw || em > 200 {
		t.Errorf("emulated restrict = %.2f: expected 'costly but far below a trap'", em)
	}
}

func TestE18SparseCapabilities(t *testing.T) {
	runOne(t, "E18", "factor of 1024", "4/4", "forgery probability is 0")
}

func TestE19ProtectedIndirection(t *testing.T) {
	out := runOne(t, "E19", "DENIED", "read 1001", "relocate object")
	// After revoking B, A must still read while B is denied — the
	// single-process revocation bare capabilities cannot do.
	lines := strings.Split(out, "\n")
	found := false
	for _, l := range lines {
		if strings.Contains(l, "revoke B") && strings.Contains(l, "read 1001") && strings.Contains(l, "DENIED") {
			found = true
		}
	}
	if !found {
		t.Errorf("per-process revocation row missing:\n%s", out)
	}
}

func TestE20PagingThrashCurve(t *testing.T) {
	out := runOne(t, "E20", "demand-zero", "swap-ins", "clock")
	// The starved configuration must be slower than the ample one and
	// must actually page.
	var rows [][]string
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 6 && (f[0] == "64" || f[0] == "8") {
			rows = append(rows, f)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("could not parse ample/starved rows:\n%s", out)
	}
	if rows[0][3] != "0" {
		t.Errorf("ample memory swapped in %s pages", rows[0][3])
	}
	if rows[1][3] == "0" {
		t.Error("starved memory did not swap")
	}
}

func TestE21SoftwareSwitch(t *testing.T) {
	out := runOne(t, "E21", "register traffic", "conventional total")
	var sw float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if strings.HasPrefix(l, "guarded pointers: save/restore") {
			sw = atofField(t, f[len(f)-1])
		}
	}
	if sw < 5 || sw > 60 {
		t.Errorf("software switch = %.1f cycles, expected tens (register traffic only)", sw)
	}
}

func TestE26TelemetryLayers(t *testing.T) {
	out := runOne(t, "E26", "Metric namespace", "Cycle-stamped event trace", "Latency distributions",
		"Causal spans", "Simulator wall-clock cost", "node.7.cache.l1.accesses", "noc.msgs",
		"domain-swap", "span-begin", "<5% over baseline", "<=2% over baseline")
	// One overhead table: every workload under every mode, E22's tracer
	// modes and E26's introspection modes against one baseline.
	rows := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 4 && strings.HasSuffix(f[3], "x") {
			rows[f[0]+" "+f[1]] = true
		}
	}
	for _, wl := range []string{"fib", "sweep"} {
		for _, mode := range []string{"baseline", "disabled", "events", "full-trace", "histograms", "flight", "hist+flight"} {
			if !rows[wl+" "+mode] {
				t.Errorf("overhead table has no %s/%s row:\n%s", wl, mode, out)
			}
		}
	}
	// The namespace and event rows come from the same run as the
	// histograms and spans: every layer's counters are live in it.
	run, err := e26Instrumented()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node.0.machine.instructions", "node.0.vm.translations",
		"node.7.cache.l1.accesses", "multi.remote_reads", "noc.msgs"} {
		if run.snap.Get(name) <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, run.snap.Get(name))
		}
	}
	for _, kind := range []string{"instr", "domain-swap", "noc-msg", "span-begin", "span-end"} {
		if run.kinds[kind] == 0 {
			t.Errorf("no %s events in the trace: %v", kind, run.kinds)
		}
	}
	if run.spans["completed"] != 2400 {
		t.Errorf("completed spans = %d, want 2400 (800 remote ops, 3 spans each)", run.spans["completed"])
	}
	for name, h := range run.hists {
		if q := h.Quantile(0.99); q > h.Max() {
			t.Errorf("%s: p99 %d above max %d", name, q, h.Max())
		}
	}
}

func TestE23AuditZeroEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-injection campaign in -short mode")
	}
	out := runOne(t, "E23", "Fault-injection audit (seed 1,", "Outcome mechanisms",
		"mem-bit", "reg-bit", "ptr-field", "tlb-entry",
		"noc-drop", "node-kill", "escaped", "checkpoint recovery")
	// The totals row carries the audit contract: zero escapes. runE23
	// itself errors on any escape, so reaching here means the campaign
	// was clean; still, assert the recovery line reports a match.
	if !strings.Contains(out, "fingerprint-match=true") {
		t.Errorf("recovery line missing or diverged:\n%s", out)
	}
	if res, _ := e23Result(); res.Trials < 10000 {
		t.Errorf("audit ran %d injections, want >= 10000", res.Trials)
	}
}

// experimentsGoldenPath pins every table `go run ./cmd/experiments`
// prints: RunAll renders the same text as the CLI. Edit the file only
// together with a deliberate table change, and list the changed rows
// in CHANGES.md.
const experimentsGoldenPath = "testdata/experiments.golden"

// normalizeWallClock cuts E26's wall-clock overhead table down to its
// workload and configuration columns. Its ns/cycle and ratio columns
// are host timings that change on every run, and the column widths
// change with them; every other line is a pure function of the code.
func normalizeWallClock(out string) string {
	lines := strings.Split(out, "\n")
	in := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Simulator wall-clock cost of telemetry"):
			in = true
		case l == "":
			in = false
		case in:
			if f := strings.Fields(l); len(f) >= 2 {
				lines[i] = f[0] + " " + f[1]
			}
		}
	}
	return strings.Join(lines, "\n")
}

func TestRunAllSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run in -short mode")
	}
	out, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(normalizeWallClock(out), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q", experimentsGoldenPath, i+1, g, w)
		}
	}
}

func TestE27CompiledTierCensus(t *testing.T) {
	out := runOne(t, "E27", "Compiled-tier census", "fib.s", "elided", "wl:sweep-sum", "bit-identical")
	// runE27 itself gates on bit-exact interp/jit agreement and on the
	// translator actually engaging; here we pin the corpus and require
	// the hot programs to show compiled blocks with elided checks.
	for _, name := range []string{"sieve.s", "usemem.s", "crosscheck.s",
		"wl:ptr-chase", "wl:alu-mix", "wl:derive", "wl:byte-ops"} {
		if !strings.Contains(out, name) {
			t.Errorf("E27 report missing program %q", name)
		}
	}
}

func TestE25StaticDischarge(t *testing.T) {
	out := runOne(t, "E25", "fib.s", "discharged", "wl:sweep-sum")
	// runE25 itself errors if any program provably faults or hits the
	// abyss, and gates fib.s at >= 50% discharge; here we additionally
	// pin the corpus size: 4 shipped programs + 5 campaign workloads.
	for _, name := range []string{"sieve.s", "usemem.s", "crosscheck.s",
		"wl:ptr-chase", "wl:alu-mix", "wl:derive", "wl:byte-ops"} {
		if !strings.Contains(out, name) {
			t.Errorf("E25 report missing program %q", name)
		}
	}
}

func TestE28PersistentCheckpoints(t *testing.T) {
	out := runOne(t, "E28", "Delta-chain differential", "Fault-tolerance audit",
		"Tolerance-stack repair work", "Outcome mechanisms", "Capture cost",
		"persist-torn", "persist-missing", "match")
	// runE28 itself gates on every-generation fingerprint identity, zero
	// unrecovered/escaped persistence faults, and the >=5x byte win at
	// 10% dirty; here we pin the report shape.
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("E28 reports a diverged generation:\n%s", out)
	}
	res, err := e28Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.campaign.PersistFallbacks == 0 {
		t.Error("no damaged store recovered by falling back to an older generation")
	}
}

func TestE29LiveMigration(t *testing.T) {
	out := runOne(t, "E29", "Live-migration differential", "Committed pre-copy shape",
		"Dirty-rate sweep", "Fault-tolerance audit", "Tolerance-stack repair work",
		"Outcome mechanisms", "abort@cutover", "migrate-src-kill", "stop-the-world")
	// runE29 itself gates on outcome identity for the commit, exact
	// bit-identity for every abort, the >=5x STW win at <=10% dirty,
	// and a zero-unrecovered fault campaign; here we pin report shape.
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("E29 reports a diverged scenario:\n%s", out)
	}
}

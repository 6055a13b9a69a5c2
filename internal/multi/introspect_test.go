package multi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// TestNodeMetricsNamespaced: RegisterMetrics must publish every node's
// machine metrics under node.<id>.* — one snapshot of the shared
// registry shows all nodes side by side.
func TestNodeMetricsNamespaced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableHistograms()
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	snap := reg.Snapshot()
	for _, n := range s.Nodes {
		for _, suffix := range []string{
			"machine.instructions", "machine.cycles", "cache.l1.hits",
			"vm.tlb.hits", "machine.hist.remote_rt.count",
		} {
			name := fmt.Sprintf("node.%d.%s", n.ID, suffix)
			if _, ok := snap[name]; !ok {
				t.Errorf("snapshot missing %q", name)
			}
		}
	}
	// The un-namespaced system counters must still be there.
	for _, name := range []string{"multi.remote_reads", "recovery.restores", "noc.msgs"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing system counter %q", name)
		}
	}
}

// TestNodeMetricsSurviveRestore: after an auto-recovery the node.<id>.*
// samplers must read the restored kernels, not the discarded ones.
func TestNodeMetricsSurviveRestore(t *testing.T) {
	s, th, _ := watchdogSystem(t, 400)
	s.cfg.CheckpointEvery = 100
	s.cfg.AutoRecover = true
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	s.Run(100_000)
	if s.Restores() == 0 {
		t.Fatal("expected an auto-recovery")
	}
	if th.State != machine.Halted {
		// The original thread object belongs to the pre-restore kernel;
		// what matters below is that the samplers follow the swap.
		t.Logf("pre-restore thread: %v", th.State)
	}
	snap := reg.Snapshot()
	got := snap["node.0.machine.instructions"]
	want := float64(s.Nodes[0].K.M.Stats().Instructions)
	if got != want {
		t.Fatalf("node.0.machine.instructions = %v, want %v (restored kernel)", got, want)
	}
	if want == 0 {
		t.Fatal("restored kernel retired no instructions")
	}
}

// spanTrace renders the span events of a trace into a canonical string
// for comparison.
func spanTrace(tr *telemetry.Tracer) string {
	var b strings.Builder
	for _, ev := range tr.Events() {
		if ev.Kind != telemetry.EvSpanBegin && ev.Kind != telemetry.EvSpanEnd {
			continue
		}
		fmt.Fprintf(&b, "%d %v trace=%d span=%d parent=%d node=%d %s\n",
			ev.Cycle, ev.Kind, ev.Trace, ev.Span, ev.Parent, ev.Cluster, ev.Detail)
	}
	return b.String()
}

// TestSpansDeterministicAndFree: with spans enabled, (a) the machine
// fingerprint is byte-identical to the spans-off baseline — tracing
// must not change timing — and (b) two identical runs produce the
// identical span stream, ids included.
func TestSpansDeterministicAndFree(t *testing.T) {
	_, baseline, baseMem := runCrossNode(t, crossNodeCase{name: "baseline", trips: 4})
	spansOn := crossNodeCase{name: "spans", trips: 4, spans: true}
	x, traced, tracedMem := runCrossNode(t, spansOn)
	_, again, _ := runCrossNode(t, spansOn)

	if traced.spans == "" {
		t.Fatal("no span events recorded")
	}
	if traced.spans != again.spans {
		t.Errorf("span streams diverge between identical runs:\n%.600s\nvs\n%.600s", traced.spans, again.spans)
	}
	traced.spans = ""
	if d := diff(baseline, traced); d != "" {
		t.Errorf("enabling spans changed the run: %s", d)
	}
	if baseMem != tracedMem {
		t.Errorf("enabling spans changed memory:\n%s\nvs\n%s", baseMem, tracedMem)
	}

	// Structural checks: every root span that ended has matching ids,
	// every leg names a live parent.
	begun := map[uint64]telemetry.Event{}
	legs, roots, ended := 0, 0, 0
	for _, ev := range x.tr.Events() {
		switch ev.Kind {
		case telemetry.EvSpanBegin:
			begun[ev.Span] = ev
			if ev.Parent == 0 {
				roots++
			} else {
				legs++
				if _, ok := begun[ev.Parent]; !ok {
					t.Fatalf("leg span %d begins before its parent %d", ev.Span, ev.Parent)
				}
			}
		case telemetry.EvSpanEnd:
			ended++
			b, ok := begun[ev.Span]
			if !ok {
				t.Fatalf("span %d ends without beginning", ev.Span)
			}
			if ev.Cycle < b.Cycle {
				t.Fatalf("span %d ends at %d before it begins at %d", ev.Span, ev.Cycle, b.Cycle)
			}
		}
	}
	if roots == 0 || legs == 0 || ended == 0 {
		t.Fatalf("degenerate trace: roots=%d legs=%d ended=%d", roots, legs, ended)
	}
	// Two legs per completed root (request + reply).
	if legs != 2*roots {
		t.Errorf("legs=%d want 2×roots=%d", legs, 2*roots)
	}
}

// TestFlightDumpOnWatchdog: a hung run must fire OnFlightDump with a
// watchdog reason, and FlightDump must emit one parseable JSONL
// section per node plus the mesh section.
func TestFlightDumpOnWatchdog(t *testing.T) {
	s, _, _ := watchdogSystem(t, 300)
	s.EnableFlight(64)
	var reasons []string
	s.OnFlightDump = func(reason string) { reasons = append(reasons, reason) }
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	s.Run(50_000)
	if !s.Hung() {
		t.Fatal("expected the watchdog to trip")
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "watchdog") {
		t.Fatalf("OnFlightDump reasons = %q, want a watchdog escalation", reasons)
	}

	var buf strings.Builder
	if err := s.FlightDump(&buf, reasons[0]); err != nil {
		t.Fatal(err)
	}
	headers := 0
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("non-JSON flight line %q: %v", sc.Text(), err)
		}
		if f, ok := obj["flight"].(bool); ok && f {
			headers++
			if obj["reason"] != reasons[0] {
				t.Errorf("header reason = %v, want %q", obj["reason"], reasons[0])
			}
		}
	}
	want := len(s.Nodes) + 1 // every node + the mesh transport
	if headers != want {
		t.Fatalf("flight dump has %d section headers, want %d", headers, want)
	}
}

// TestFlightDumpDisabledIsNoop: FlightDump without EnableFlight writes
// nothing and reports no error.
func TestFlightDumpDisabledIsNoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.FlightDump(&buf, "nothing"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("disabled FlightDump wrote %q", buf.String())
	}
}

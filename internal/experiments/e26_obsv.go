package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/word"
)

func init() {
	register("E26",
		"Observability — telemetry and live introspection: metric namespace, event trace, latency histograms, causal NoC spans, flight recorder, and their cost",
		runE26)
}

// The two overhead workloads: a register-only fibonacci loop (pure
// issue bandwidth, no memory system) and a cache-line sweep (the memory
// path the TLB-refill histogram instruments). Both loop forever — the
// harness bounds them by cycle budget.
var e26FibSrc = `
fib:
	ldi r2, 1
	ldi r3, 0
	ldi r4, 32
inner:
	add  r5, r2, r3
	mov  r3, r2
	mov  r2, r5
	subi r4, r4, 1
	bnez r4, inner
	br fib
`

var e26SweepSrc = `
sweep:
	mov r4, r1
	ldi r3, 64
rd:
	ld   r5, r4, 0
	leai r4, r4, 8
	subi r3, r3, 1
	bnez r3, rd
	br sweep
`

// e26Workloads are the overhead loops in table order.
var e26Workloads = []struct{ name, src string }{{"fib", e26FibSrc}, {"sweep", e26SweepSrc}}

// e26Modes are the instrumentation configurations whose cost E26
// bounds, each against the bare machine: a tracer attached with every
// kind masked off (the <5% budget), every event kind but instructions,
// every event kind with disassembly, latency histograms, the flight
// ring, and histograms plus flight ring — the "always-on"
// configuration the 2% budget applies to.
var e26Modes = []string{"baseline", "disabled", "events", "full-trace", "histograms", "flight", "hist+flight"}

// e26Machine boots the 1×1 timing machine running prog with r1 holding
// a 4 KB segment, instrumented as mode says.
func e26Machine(prog *asm.Program, mode string) (*kernel.Kernel, error) {
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 1
	cfg.PhysBytes = 4 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		return nil, err
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		return nil, err
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	if _, err := k.Spawn(1, ip, map[int]word.Word{1: seg.Word()}); err != nil {
		return nil, err
	}
	switch mode {
	case "baseline":
	case "disabled":
		k.SetTracer(telemetry.NewTracer(1 << 10))
	case "events":
		tr := telemetry.NewTracer(1 << 10)
		tr.EnableAll()
		tr.Disable(telemetry.EvInstr)
		k.SetTracer(tr)
	case "full-trace":
		tr := telemetry.NewTracer(1 << 10)
		tr.EnableAll()
		k.SetTracer(tr)
	case "histograms":
		k.M.EnableHistograms()
	case "flight":
		k.M.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightSize)
	case "hist+flight":
		k.M.EnableHistograms()
		k.M.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightSize)
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	return k, nil
}

// e26Overhead times every (workload, mode) cell in wall nanoseconds per
// simulated cycle, best of four. Each repetition runs every cell once,
// so a drift in host speed during the measurement reaches all modes
// alike rather than whichever ran last.
func e26Overhead() (map[string]map[string]float64, error) {
	const cycles = 500_000
	progs := make([]*asm.Program, len(e26Workloads))
	out := map[string]map[string]float64{}
	for i, wl := range e26Workloads {
		p, err := asm.Assemble(wl.src)
		if err != nil {
			return nil, err
		}
		progs[i] = p
		out[wl.name] = map[string]float64{}
	}
	for rep := 0; rep < 4; rep++ {
		for i, wl := range e26Workloads {
			for _, mode := range e26Modes {
				k, err := e26Machine(progs[i], mode)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				k.Run(cycles)
				ns := float64(time.Since(start).Nanoseconds()) / cycles
				if best, ok := out[wl.name][mode]; !ok || ns < best {
					out[wl.name][mode] = ns
				}
			}
		}
	}
	return out, nil
}

// e26Run is what one instrumented mesh run leaves behind.
type e26Run struct {
	cycles uint64
	snap   telemetry.Snapshot
	kinds  map[string]uint64 // trace events of node 0 and the mesh
	hists  map[string]*telemetry.Histogram
	spans  map[string]uint64
	flight uint64 // events in all node rings
}

// e26Instrumented runs the 2×2×2 multicomputer with every telemetry
// surface live — a full event tracer on node 0 and the mesh, the
// metrics registry, histograms, causal spans, flight rings — under a
// remote-heavy workload: two domains on node 0 loading from and
// storing to a segment homed on node 7. Everything it returns is
// cycle-derived, so the tables are byte-identical run to run.
func e26Instrumented() (*e26Run, error) {
	cfg := multi.DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 4
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	s.EnableHistograms()
	s.EnableFlight(telemetry.DefaultFlightSize)
	tr := telemetry.NewTracer(1 << 16)
	tr.EnableAll()
	s.Nodes[0].K.SetTracer(tr)
	s.EnableSpans(tr)
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)

	remote, err := asm.Assemble(`
		ldi r3, 200
	loop:
		ld r2, r1, 0
		st r1, 8, r3
		subi r3, r3, 1
		bnez r3, loop
		halt
	`)
	if err != nil {
		return nil, err
	}
	far, err := s.Nodes[7].K.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	for domain := 1; domain <= 2; domain++ {
		ip, err := s.Nodes[0].K.LoadProgram(remote, false)
		if err != nil {
			return nil, err
		}
		if _, err := s.Nodes[0].K.Spawn(domain, ip, map[int]word.Word{1: far.Word()}); err != nil {
			return nil, err
		}
	}

	run := &e26Run{cycles: s.Run(10_000_000), kinds: map[string]uint64{}, spans: map[string]uint64{}}
	for _, th := range s.Nodes[0].K.M.Threads() {
		if th.State != machine.Halted {
			return nil, fmt.Errorf("thread %d: %v %v", th.ID, th.State, th.Fault)
		}
	}

	h := s.Nodes[0].K.M.Hists()
	run.hists = map[string]*telemetry.Histogram{
		"remote round-trip (node 0)": h.RemoteRT,
		"domain switch (node 0)":     h.DomainSwitch,
		// The refill cost lands on the home node's cache, where the
		// remote segment's pages are walked.
		"tlb refill (node 7)": s.Nodes[7].K.M.Cache.HistTLBRefill,
	}
	for _, ev := range tr.Events() {
		run.kinds[ev.Kind.String()]++
		switch ev.Kind {
		case telemetry.EvSpanBegin:
			if ev.Parent == 0 {
				run.spans["root ("+ev.Detail+")"]++
			} else {
				run.spans["leg ("+ev.Detail+")"]++
			}
		case telemetry.EvSpanEnd:
			run.spans["completed"]++
		}
	}
	for _, n := range s.Nodes {
		run.flight += n.K.M.Flight.Total()
	}
	run.snap = reg.Snapshot()
	return run, nil
}

// runE26 renders the telemetry report: the metric namespace and event
// trace of one instrumented run, the latency distributions and causal
// spans it recorded, and the wall-clock cost of each instrumentation
// mode — the <5% budget for an attached but disabled tracer and the
// ≤2% budget that justifies leaving histograms and the flight recorder
// always on.
func runE26() (string, error) {
	run, err := e26Instrumented()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	mt := stats.NewTable(
		fmt.Sprintf("Metric namespace after an instrumented 8-node run (%d cycles, node.<id>.* per node + mesh)", run.cycles),
		"metric", "value")
	for _, name := range []string{
		"node.0.machine.cycles", "node.0.machine.instructions", "node.0.machine.ipc",
		"node.0.machine.switches", "node.0.machine.domain_swaps",
		"node.0.vm.translations", "node.0.vm.tlb.hits", "node.0.vm.tlb.misses",
		"node.7.cache.l1.accesses", "node.7.cache.l1.misses",
		"multi.remote_reads", "multi.remote_writes", "noc.msgs", "noc.mean_latency",
	} {
		mt.AddRow(name, run.snap.Get(name))
	}
	b.WriteString(mt.String())

	et := stats.NewTable("\nCycle-stamped event trace of node 0 and the mesh, by kind", "kind", "events")
	var kinds []string
	for k := range run.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		et.AddRow(k, run.kinds[k])
	}
	b.WriteString(et.String())

	ht := stats.NewTable(
		fmt.Sprintf("\nLatency distributions after an instrumented 8-node run (%d cycles)", run.cycles),
		"histogram", "count", "mean", "p50", "p95", "p99", "max")
	for _, name := range []string{
		"remote round-trip (node 0)", "domain switch (node 0)", "tlb refill (node 7)",
	} {
		h := run.hists[name]
		ht.AddRow(name, h.Count(), fmt.Sprintf("%.1f", h.Mean()),
			h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
	b.WriteString(ht.String())

	st := stats.NewTable("\nCausal spans (one root per remote op, one leg per mesh crossing)", "span", "events")
	for _, k := range []string{
		"root (remote-read)", "root (remote-write)",
		"leg (read-req)", "leg (read-reply)", "leg (write-req)", "leg (write-ack)",
		"completed",
	} {
		if n, ok := run.spans[k]; ok {
			st.AddRow(k, n)
		}
	}
	b.WriteString(st.String())

	fmt.Fprintf(&b, "\nflight recorder: %d events captured across 8 node rings (bounded, always on)\n", run.flight)
	fmt.Fprintf(&b, "metrics endpoint: %d series exported, node.<id>.* namespaced per node\n", len(run.snap))

	over, err := e26Overhead()
	if err != nil {
		return "", err
	}
	ot := stats.NewTable("\nSimulator wall-clock cost of telemetry on a 1x1 cycle loop (best of 4, modes interleaved)",
		"workload", "configuration", "ns/cycle", "vs baseline")
	for _, wl := range e26Workloads {
		for _, mode := range e26Modes {
			ns := over[wl.name]
			ot.AddRow(wl.name, mode, ns[mode], stats.Ratio(ns[mode], ns["baseline"]))
		}
	}
	b.WriteString(ot.String())
	fmt.Fprintf(&b, "\nevery emit site is gated on Tracer.Enabled, so an attached but disabled tracer costs\n"+
		"one atomic mask load per potential event and is budgeted at <5%% over baseline; full\n"+
		"instruction tracing pays for Event construction and disassembly, which is why\n"+
		"-trace/-trace-out are opt-in flags. Observe is three atomic adds plus a CAS max and\n"+
		"the flight ring is a fixed-size copy under one uncontended mutex, so hist+flight is\n"+
		"budgeted at <=2%% over baseline (wall-clock rows vary with the host; the budgets are\n"+
		"the claim)\n")
	return b.String(), nil
}

package multi

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/noc"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/word"
)

// Run may one day skip cycles in which no node can issue, as
// machine.Run does for one machine. These tests hold it to the contract
// that makes such a change invisible: Run(n) must leave the mesh exactly
// where a plain Step loop leaves it.

// crossNodeProg hammers the segment in r1, homed on another node, with
// remote stores and loads for r2 trips.
const crossNodeProg = `
	ldi r3, 0          ; accumulator
loop:
	st  r1, 0, r2      ; remote store of the loop counter
	ld  r4, r1, 0      ; remote load back
	add r3, r3, r4
	st  r1, 8, r3      ; second remote word: the running sum
	subi r2, r2, 1
	bnez r2, loop
	halt
`

// crossNodeCase configures the cross-node workload: every node runs
// crossNodeProg against its ring successor's segment, so each cycle's
// delivery carries traffic from many nodes, and any change in delivery
// order or link contention shows up in the counters and final state.
type crossNodeCase struct {
	name     string
	trips    int  // node i runs trips + i%3 loop trips
	jit      bool // translator on, every program registered
	tolerant bool // reliable transport over a lossy fabric, CheckpointEvery, WatchdogCycles
	spans    bool // causal spans on
	kill     bool // node 3 killed before the run: node 2 hangs on it

	migrateAt uint64 // node 0 live-migrates at this cycle
	killAt    uint64 // node 3 killed at this cycle, under AutoRecover
}

// crossNode is one booted cross-node workload.
type crossNode struct {
	s    *System
	segs []core.Pointer
	tr   *telemetry.Tracer // nil unless spans are on
}

// dropEvery drops every nth message attempt entering the fabric, so the
// reliable transport retransmits on a fixed schedule.
type dropEvery struct{ n, seen int }

func (d *dropEvery) Intercept(noc.Kind, int, int, uint64) noc.Fate {
	d.seen++
	return noc.Fate{Drop: d.seen%d.n == 0}
}

func newCrossNode(t *testing.T, c crossNodeCase) *crossNode {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	cfg.JIT = c.jit
	if c.tolerant {
		cfg.Mesh.Transport.Enabled = true
		cfg.CheckpointEvery = 500
		cfg.WatchdogCycles = 2000
	}
	if c.migrateAt != 0 {
		cfg.MigrateAt = c.migrateAt
		cfg.Migrate = migrate.Config{Link: fastLink()}
	}
	if c.killAt != 0 {
		cfg.CheckpointEvery = 500
		cfg.AutoRecover = true
		cfg.WatchdogCycles = 2000
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := &crossNode{s: s}
	if c.tolerant {
		s.Net.Interceptor = &dropEvery{n: 5}
	}
	if c.spans {
		x.tr = telemetry.NewTracer(1 << 16)
		x.tr.Enable(telemetry.EvSpanBegin, telemetry.EvSpanEnd)
		s.EnableSpans(x.tr)
	}
	n := len(s.Nodes)
	for _, nd := range s.Nodes {
		p, err := nd.K.AllocSegment(4096)
		if err != nil {
			t.Fatal(err)
		}
		x.segs = append(x.segs, p)
	}
	prog := mustAssemble(crossNodeProg)
	for i, nd := range s.Nodes {
		ip, err := nd.K.LoadProgram(prog, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nd.K.Spawn(1, ip, map[int]word.Word{
			1: x.segs[(i+1)%n].Word(), // ring successor's segment
			2: word.FromInt(int64(c.trips + i%3)),
		}); err != nil {
			t.Fatal(err)
		}
		if c.jit {
			// The loader satisfies capverify's entry contract: r1 is an
			// RW pointer to a 4096-byte segment; everything else the
			// verifier treats as unknown.
			nd.K.M.JITRegister(prog, ip.Addr(), capverify.Config{DataBytes: 4096})
		}
	}
	if c.kill {
		if err := s.Kill(3); err != nil {
			t.Fatal(err)
		}
	}
	if c.killAt != 0 {
		s.OnCycle = func(cycle uint64) {
			if cycle == c.killAt {
				s.OnCycle = nil
				if err := s.Kill(3); err != nil {
					t.Error(err)
				}
			}
		}
	}
	return x
}

// nodePrint is one node's counters.
type nodePrint struct {
	cycle   uint64
	pending int
	m       machine.Stats
	cache   cache.Stats
	tlb     vm.TLBStats
	vm      vm.SpaceStats
}

// fingerprint captures everything observable about a multicomputer
// between cycles, short of memory contents: the cycle count and run
// status, the aggregate, mesh and per-node counters, every thread's
// architectural state and the span stream.
type fingerprint struct {
	cycles      uint64
	done, hung  bool
	checkpoints uint64
	sys         Stats
	net         noc.Stats
	nodes       []nodePrint
	threads     string
	spans       string
}

func (x *crossNode) print() fingerprint {
	s := x.s
	fp := fingerprint{cycles: s.Cycle(), done: s.Done(), hung: s.Hung(),
		checkpoints: s.Checkpoints(), sys: s.Stats(), net: s.Net.Stats()}
	var th strings.Builder
	for i, nd := range s.Nodes {
		m := nd.K.M
		fp.nodes = append(fp.nodes, nodePrint{cycle: m.Cycle(), pending: m.RemotePending(),
			m: m.Stats(), cache: m.Cache.Stats(), tlb: m.Space.TLB.Stats(), vm: m.Space.Stats()})
		for _, t := range m.Threads() {
			fmt.Fprintf(&th, "%d/%d: %v instret=%d ip=%#x fault=%v regs=%v\n",
				i, t.ID, t.State, t.Instret, t.IP.Addr(), t.Fault, t.Regs)
		}
	}
	fp.threads = th.String()
	if x.tr != nil {
		fp.spans = spanTrace(x.tr)
	}
	return fp
}

// memory reads the words the workload writes on every node. It goes
// through the Space, so it moves TLB counters: read it last.
func (x *crossNode) memory(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i, nd := range x.s.Nodes {
		for off := uint64(0); off < 16; off += 8 {
			w, err := nd.K.M.Space.ReadWord(x.segs[i].Base() + off)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%d+%d: %v\n", i, off, w)
		}
	}
	return b.String()
}

// diff names the first part of two fingerprints that differs, or
// returns "" when they agree.
func diff(a, b fingerprint) string {
	switch {
	case a.cycles != b.cycles || a.done != b.done || a.hung != b.hung || a.checkpoints != b.checkpoints:
		return fmt.Sprintf("cycles/done/hung/checkpoints %d/%v/%v/%d vs %d/%v/%v/%d",
			a.cycles, a.done, a.hung, a.checkpoints, b.cycles, b.done, b.hung, b.checkpoints)
	case a.sys != b.sys:
		return fmt.Sprintf("multi stats\n%+v\nvs\n%+v", a.sys, b.sys)
	case a.net != b.net:
		return fmt.Sprintf("noc stats\n%+v\nvs\n%+v", a.net, b.net)
	case a.threads != b.threads:
		return fmt.Sprintf("threads\n%s\nvs\n%s", a.threads, b.threads)
	case a.spans != b.spans:
		return fmt.Sprintf("span streams\n%.600s\nvs\n%.600s", a.spans, b.spans)
	}
	for i := range a.nodes {
		if !reflect.DeepEqual(a.nodes[i], b.nodes[i]) {
			return fmt.Sprintf("node %d\n%+v\nvs\n%+v", i, a.nodes[i], b.nodes[i])
		}
	}
	return ""
}

// stepLoop is the plain loop Run must match: Step until every thread is
// done, the watchdog trips or max cycles have run.
func stepLoop(s *System, max uint64) uint64 {
	var n uint64
	for n < max && !s.Done() && !s.Hung() {
		s.Step()
		n++
	}
	return n
}

func TestRunMatchesStepLoop(t *testing.T) {
	cases := []crossNodeCase{
		{name: "interp", trips: 40},
		{name: "jit", trips: 200, jit: true},
		{name: "tolerant", trips: 40, tolerant: true},
		{name: "spans", trips: 40, spans: true},
		{name: "killed-node", trips: 40, tolerant: true, kill: true},
	}
	const limit = 400_000
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// One Run call against one Step loop, both to the end.
			ref, run := newCrossNode(t, c), newCrossNode(t, c)
			want := stepLoop(ref.s, limit)
			if got := run.s.Run(limit); got != want {
				t.Fatalf("Run(%d) ran %d cycles, Step loop %d", uint64(limit), got, want)
			}
			if !run.s.Done() && !run.s.Hung() {
				t.Fatalf("workload did not finish in %d cycles", limit)
			}
			whole := run.print()
			if d := diff(ref.print(), whole); d != "" {
				t.Fatalf("whole run: %s", d)
			}
			if a, b := ref.memory(t), run.memory(t); a != b {
				t.Fatalf("whole run: memory\n%s\nvs\n%s", a, b)
			}

			// Chunked Run calls of seeded random length, each checked
			// against a Step loop with the same cap.
			ref, run = newCrossNode(t, c), newCrossNode(t, c)
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for !run.s.Done() && !run.s.Hung() && run.s.Cycle() < limit {
				k := 1 + uint64(rng.Intn(300))
				start := ref.s.Cycle()
				want := stepLoop(ref.s, k)
				if got := run.s.Run(k); got != want {
					t.Fatalf("Run(%d) at cycle %d ran %d cycles, Step loop %d", k, start, got, want)
				}
				if d := diff(ref.print(), run.print()); d != "" {
					t.Fatalf("chunk ending at cycle %d: %s", run.s.Cycle(), d)
				}
			}
			if d := diff(whole, run.print()); d != "" {
				t.Fatalf("chunked run ended elsewhere than the whole run: %s", d)
			}
			if a, b := ref.memory(t), run.memory(t); a != b {
				t.Fatalf("chunked run: memory\n%s\nvs\n%s", a, b)
			}

			// Each case must exercise what it names.
			switch {
			case c.kill:
				if !whole.hung {
					t.Fatal("killed node: watchdog never tripped")
				}
			case c.jit:
				for i, nd := range run.s.Nodes {
					if k := nd.K.M.JIT().Counters; k.Compiled == 0 || k.Entries == 0 {
						t.Fatalf("node %d: translator never engaged: %+v", i, k)
					}
				}
			case c.tolerant:
				if whole.net.Retransmits == 0 || whole.checkpoints == 0 {
					t.Fatalf("no retransmits or checkpoints: net %+v, %d checkpoints", whole.net, whole.checkpoints)
				}
			case c.spans:
				if whole.spans == "" {
					t.Fatal("no span events recorded")
				}
			}
		})
	}
}

// runCrossNode boots case c, runs it to completion and returns its
// fingerprint and memory words; every thread must halt.
func runCrossNode(t *testing.T, c crossNodeCase) (*crossNode, fingerprint, string) {
	t.Helper()
	x := newCrossNode(t, c)
	x.s.Run(400_000)
	for i, nd := range x.s.Nodes {
		for _, th := range nd.K.M.Threads() {
			if th.State != machine.Halted {
				t.Fatalf("%s: node %d thread %v fault=%v", c.name, i, th.State, th.Fault)
			}
		}
	}
	fp := x.print()
	return x, fp, x.memory(t)
}

// meshBenchNode computes locally and loads a word from its ring
// successor's segment (r2) every 16th iteration, forever.
const meshBenchNode = `
	ldi  r7, 15
loop:
	addi r3, r3, 1
	add  r5, r5, r3
	and  r6, r3, r7
	bnez r6, loop
	ld   r8, r2, 0
	br   loop
`

// BenchmarkRun measures Run on a 2×2×2 and a 4×4×4 mesh of 1 MB nodes,
// each node running meshBenchNode. One op is Run(1024) on a warm mesh;
// sim-instr/s and ns/mesh-cycle are the comparable figures.
func BenchmarkRun(b *testing.B) {
	b.Run("8nodes", func(b *testing.B) { benchRun(b, 2) })
	b.Run("64nodes", func(b *testing.B) { benchRun(b, 4) })
}

func benchRun(b *testing.B, dim int) {
	cfg := DefaultConfig()
	cfg.Mesh.DimX, cfg.Mesh.DimY, cfg.Mesh.DimZ = dim, dim, dim
	cfg.Node.PhysBytes = 1 << 20
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var segs []word.Word
	for _, n := range s.Nodes {
		seg, err := n.K.AllocSegment(4096)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg.Word())
	}
	prog := mustAssemble(meshBenchNode)
	for i, n := range s.Nodes {
		ip, err := n.K.LoadProgram(prog, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.K.Spawn(1, ip, map[int]word.Word{2: segs[(i+1)%len(segs)]}); err != nil {
			b.Fatal(err)
		}
	}
	s.Run(1 << 14) // warm the TLBs, caches and link table
	instr := func() (sum uint64) {
		for _, n := range s.Nodes {
			sum += n.K.M.Stats().Instructions
		}
		return sum
	}
	before, start := instr(), s.Cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(1024)
	}
	b.StopTimer()
	if s.Done() || s.Hung() {
		b.Fatalf("workload stopped at cycle %d", s.Cycle())
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instr()-before)/sec, "sim-instr/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Cycle()-start), "ns/mesh-cycle")
	}
}

// Booting the default 2×2×2 mesh allocates what its eight kernels touch:
// node memory pages appear on first write, and each cache's lines are
// one array.
func TestNewAllocatesLittle(t *testing.T) {
	boot := func() {
		if _, err := New(DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	boot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	boot()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Errorf("New(DefaultConfig()) allocates %d bytes, want under 4 MB", n)
	}
	if n := after.Mallocs - before.Mallocs; n >= 1000 {
		t.Errorf("New(DefaultConfig()) allocates %d objects, want under 1,000", n)
	}
}

// BenchmarkNew boots the default 2×2×2 mesh, the setup every mesh job
// pays before its first cycle.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

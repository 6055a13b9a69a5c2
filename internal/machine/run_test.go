package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/word"
)

// Run fast-forwards over cycles in which no thread can issue. These
// tests hold it to the contract that makes that invisible: Run(n) must
// leave the machine exactly where a plain Step loop leaves it — stats,
// cycle count, memory-system counters and every thread's state.

// runSegLog is each thread's data segment: 64 KB, so four or more
// threads streaming through their own segments overrun the 128 KB
// cache and keep the memory interface busy.
const runSegLog = 16

// runProgram emits a seeded loop that streams through the r1 segment
// 256 bytes per iteration, mixing ALU work on r6..r11, loads and
// stores at random in-bounds offsets, and occasional traps (each
// blocks the thread for TrapCost cycles). It always halts.
func runProgram(rng *rand.Rand) string {
	var b []byte
	app := func(f string, a ...interface{}) {
		b = append(b, fmt.Sprintf(f, a...)...)
		b = append(b, '\n')
	}
	reg := func() int { return 6 + rng.Intn(6) }
	off := func() int { return rng.Intn(64) * 8 }
	app("ldi r2, %d", 100+rng.Intn(100)) // ≤ 199 iterations × 256 B stays in 64 KB
	app("mov r5, r1")
	app("loop:")
	for i, n := 0, 4+rng.Intn(10); i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			app("addi r%d, r%d, %d", reg(), reg(), rng.Intn(1000)-500)
		case 1:
			app("add r%d, r%d, r%d", reg(), reg(), reg())
		case 2:
			app("mul r%d, r%d, r%d", reg(), reg(), reg())
		case 3:
			app("xor r%d, r%d, r%d", reg(), reg(), reg())
		case 4:
			if rng.Intn(2) == 0 {
				app("slt r%d, r%d, r%d", reg(), reg(), reg())
			} else {
				app("shli r%d, r%d, %d", reg(), reg(), rng.Intn(8))
			}
		case 5, 6:
			app("ld r%d, r5, %d", reg(), off())
		case 7, 8:
			app("st r5, %d, r%d", off(), reg())
		case 9:
			app("trap %d", rng.Intn(8))
		}
	}
	app("leai r5, r5, 256")
	app("subi r2, r2, 1")
	app("bnez r2, loop")
	app("halt")
	return string(b)
}

type runCase struct {
	name    string
	cfg     Config
	threads int
	jit     bool
}

// newRunMachine builds the case's machine with one seeded program per
// thread, each thread in its own protection domain.
func newRunMachine(t *testing.T, c runCase, seed int64) *Machine {
	t.Helper()
	m, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.ScrubEvery != 0 {
		m.Space.Phys.EnableECC()
	}
	if c.jit {
		m.EnableJIT(jit.DefaultConfig())
	}
	// The trap handler writes the cycle into r3, so any timing
	// difference between Run and a Step loop also shows up in
	// architectural state.
	m.OnTrap = func(m *Machine, th *Thread, code int64) error {
		th.SetReg(3, word.FromInt(int64(m.Cycle())+code))
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < c.threads; i++ {
		src := runProgram(rng)
		base := 0x10000 + uint64(i)*0x1000
		ip := loadAt(t, m, src, base, false)
		if c.jit {
			m.JITRegister(mustAssemble(src), base, capverify.Config{DataBytes: 1 << runSegLog})
		}
		seg := dataSeg(t, m, 0x100000+uint64(i)<<runSegLog, runSegLog)
		th, err := m.AddThread(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SetIP(ip); err != nil {
			t.Fatal(err)
		}
		th.SetReg(1, seg.Word())
	}
	return m
}

// refStep is one iteration of the plain Step loop Run must match: a
// Step, then the background scrubber's tick on every ScrubEvery-th
// cycle.
func refStep(m *Machine) {
	m.Step()
	if m.scrubEvery != 0 && m.cycle%m.scrubEvery == 0 {
		m.Space.Phys.ScrubStep(m.scrubWords)
	}
}

// sameMachine fails unless a and b agree on every counter and on
// every thread's architectural and scheduling state.
func sameMachine(t *testing.T, where string, a, b *Machine) {
	t.Helper()
	if a.Cycle() != b.Cycle() || a.now != b.now {
		t.Fatalf("%s: cycle/now %d/%d vs %d/%d", where, a.Cycle(), a.now, b.Cycle(), b.now)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats\n%+v\nvs\n%+v", where, a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.Cache.Stats(), b.Cache.Stats()) {
		t.Fatalf("%s: cache stats %+v vs %+v", where, a.Cache.Stats(), b.Cache.Stats())
	}
	if a.Space.TLB.Stats() != b.Space.TLB.Stats() || a.Space.Stats() != b.Space.Stats() {
		t.Fatalf("%s: vm stats %+v %+v vs %+v %+v", where,
			a.Space.TLB.Stats(), a.Space.Stats(), b.Space.TLB.Stats(), b.Space.Stats())
	}
	if a.Space.Phys.ECCStats() != b.Space.Phys.ECCStats() {
		t.Fatalf("%s: ecc stats %+v vs %+v", where, a.Space.Phys.ECCStats(), b.Space.Phys.ECCStats())
	}
	for i, x := range a.Threads() {
		y := b.Threads()[i]
		if x.Regs != y.Regs || x.IP != y.IP || x.State != y.State ||
			x.Instret != y.Instret || x.blockedUntil != y.blockedUntil ||
			fmt.Sprint(x.Fault) != fmt.Sprint(y.Fault) {
			t.Fatalf("%s: thread %d\n%+v\nvs\n%+v", where, i, x, y)
		}
	}
}

func TestRunMatchesStepLoop(t *testing.T) {
	flushTLB, flushAll := MMachine(), testConfig()
	flushTLB.Scheme = SchemeFlushTLB
	flushAll.Scheme = SchemeFlushAll
	wide := MMachine()
	wide.WideIssue = true
	scrub := testConfig()
	scrub.ScrubEvery = 37
	scrub.ScrubWords = 16
	cases := []runCase{
		{"mmachine-8", MMachine(), 8, false},
		{"mmachine-16", MMachine(), 16, false},
		{"test-2x2", testConfig(), 4, false},
		{"flush-tlb", flushTLB, 8, false},
		{"flush-all", flushAll, 4, false},
		{"wide", wide, 8, false},
		{"jit", MMachine(), 8, true},
		{"jit-2x2", testConfig(), 3, true},
		{"scrub", scrub, 4, false},
	}
	const limit = 2_000_000
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(1000 + ci)

			// One Run call against one Step loop, both to completion.
			ref, run := newRunMachine(t, c, seed), newRunMachine(t, c, seed)
			for !ref.Done() && ref.Cycle() < limit {
				refStep(ref)
			}
			run.Run(limit)
			if !run.Done() {
				t.Fatalf("workload did not finish in %d cycles", limit)
			}
			sameMachine(t, "whole run", ref, run)
			if ref.Stats().Traps == 0 || ref.Cache.Stats().Misses == 0 {
				t.Fatalf("workload lacks traps or misses: %+v", ref.Stats())
			}
			if c.jit && run.JIT().Counters.Entries == 0 {
				t.Fatalf("translator never engaged: %+v", run.JIT().Counters)
			}

			// Chunked Run calls of random length, each checked against
			// a Step loop with the same cap; count the chunks whose cap
			// fell where no thread could issue.
			ref, run = newRunMachine(t, c, seed), newRunMachine(t, c, seed)
			rng := rand.New(rand.NewSource(seed))
			idleCaps := 0
			for !run.Done() && run.Cycle() < limit {
				k := 1 + uint64(rng.Intn(300))
				start := ref.Cycle()
				for !ref.Done() && ref.Cycle()-start < k {
					refStep(ref)
				}
				if n := run.Run(k); n != ref.Cycle()-start {
					t.Fatalf("Run(%d) at cycle %d ran %d cycles, Step loop %d", k, start, n, ref.Cycle()-start)
				}
				sameMachine(t, fmt.Sprintf("chunk ending at cycle %d", run.Cycle()), ref, run)
				if !run.Done() && run.nextIssueCycle() > run.Cycle() {
					idleCaps++
				}
				// Now and then park every ready thread, as a kernel
				// may: Run must follow State written behind its back,
				// and under the flush schemes a cluster is then often
				// stalled with nothing to issue.
				if rng.Intn(4) == 0 {
					until := run.Cycle() + 1 + uint64(rng.Intn(200))
					for _, m := range []*Machine{ref, run} {
						for _, th := range m.Threads() {
							if th.State == Ready {
								th.State = Blocked
								th.BlockUntil(until)
							}
						}
					}
				}
			}
			if idleCaps == 0 {
				t.Fatal("no Run cap landed inside an idle span")
			}
		})
	}
}

// TestRoundRobinAcrossRemoveAndAdd pins the issue order of a cluster
// through RemoveThread and AddThread, which maintain the resident
// count pickThread relies on to skip empty clusters.
func TestRoundRobinAcrossRemoveAndAdd(t *testing.T) {
	const (
		spin  = "ldi r2, 1000\nl: subi r2, r2, 1\nbnez r2, l\nhalt\n"
		quick = "halt\n"
	)
	cfg := testConfig()
	cfg.SlotsPerCluster = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spinIP := loadAt(t, m, spin, 0x10000, false)
	quickIP := loadAt(t, m, quick, 0x11000, false)
	add := func(ip core.Pointer) *Thread {
		t.Helper()
		th, err := m.AddThread(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SetIP(ip); err != nil {
			t.Fatal(err)
		}
		return th
	}
	type issue struct{ cluster, slot int }
	var got []issue
	m.OnIssue = func(th *Thread, _ isa.Inst) { got = append(got, issue{th.cluster, th.slot}) }
	step := func(n int, want ...issue) {
		t.Helper()
		got = got[:0]
		for i := 0; i < n; i++ {
			m.Step()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: issued %v, want %v", m.Cycle(), got, want)
		}
	}

	// Cluster 0 holds quick/spin/quick/spin; cluster 1 one quick thread.
	q0, _, q2, _, q4 := add(quickIP), add(spinIP), add(quickIP), add(spinIP), add(quickIP)
	// rr starts at 0, so slot 1 issues first; the quick threads halt.
	step(4, issue{0, 1}, issue{1, 0}, issue{0, 2}, issue{0, 3}, issue{0, 0})
	step(2, issue{0, 1}, issue{0, 3})

	// Empty cluster 1 entirely and free slots 0 and 2 of cluster 0.
	for _, th := range []*Thread{q0, q2, q4} {
		if err := m.RemoveThread(th); err != nil {
			t.Fatal(err)
		}
	}
	if r0, r1 := m.clusters[0].resident, m.clusters[1].resident; r0 != 2 || r1 != 0 {
		t.Fatalf("resident counts %d, %d after removal, want 2, 0", r0, r1)
	}
	idle := m.Stats().IdleCycles
	step(2, issue{0, 1}, issue{0, 3})
	if d := m.Stats().IdleCycles - idle; d != 2 {
		t.Fatalf("empty cluster idled %d cycles over 2, want 2", d)
	}

	// New threads fill the first free slots: cluster 0 slots 0 and 2,
	// then cluster 1 slot 0. Cluster 0 resumes after slot 3.
	add(spinIP)
	add(spinIP)
	add(spinIP)
	step(5, issue{0, 0}, issue{1, 0}, issue{0, 1}, issue{1, 0}, issue{0, 2},
		issue{1, 0}, issue{0, 3}, issue{1, 0}, issue{0, 0}, issue{1, 0})
}

// runALU is a non-terminating ALU/branch loop.
const runALU = `
	ldi  r3, 0
	ldi  r4, 1
loop:
	add  r6, r3, r4
	mov  r3, r4
	mov  r4, r6
	br   loop
`

// runStream sweeps the 64 KB r1 segment a cache line per iteration,
// loading and storing, forever. Eight copies overrun the 128 KB cache.
const runStream = `
	mov  r5, r1
	ldi  r2, 2047
sweep:
	ld   r6, r5, 0
	st   r5, 8, r6
	leai r5, r5, 32
	subi r2, r2, 1
	bnez r2, sweep
	mov  r5, r1
	ldi  r2, 2047
	br   sweep
`

// runSweep walks a 2 KB window of the r1 segment with a store and a
// load per word, forever: the cache and translation paths dominate.
const runSweep = `
	mov  r5, r1
	ldi  r2, 256
sweep:
	st   r5, 0, r2
	ld   r6, r5, 0
	leai r5, r5, 8
	subi r2, r2, 1
	bnez r2, sweep
	mov  r5, r1
	ldi  r2, 256
	br   sweep
`

// BenchmarkRun measures Run on the default 4×4 machine: one thread in
// an ALU loop or a load/store sweep (fifteen empty slots, three empty
// clusters), and eight threads in eight domains streaming past the
// cache, where most cluster-cycles are idle. The -jit rows run the same
// programs under the translator: a lone thread runs whole compiled
// blocks per Step, the eight streams step through theirs one
// instruction per cycle. One op is Run(4096); sim-instr/s is the
// comparable figure. Run must not allocate.
func BenchmarkRun(b *testing.B) {
	b.Run("alu-1thread", func(b *testing.B) { benchRun(b, runALU, 1, false) })
	b.Run("sweep-1thread", func(b *testing.B) { benchRun(b, runSweep, 1, false) })
	b.Run("stream-8domains", func(b *testing.B) { benchRun(b, runStream, 8, false) })
	b.Run("alu-1thread-jit", func(b *testing.B) { benchRun(b, runALU, 1, true) })
	b.Run("sweep-1thread-jit", func(b *testing.B) { benchRun(b, runSweep, 1, true) })
	b.Run("stream-8domains-jit", func(b *testing.B) { benchRun(b, runStream, 8, true) })
}

func benchRun(b *testing.B, src string, threads int, useJIT bool) {
	m, err := New(MMachine())
	if err != nil {
		b.Fatal(err)
	}
	if useJIT {
		m.EnableJIT(jit.DefaultConfig())
	}
	ip := loadAt(b, m, src, 0x10000, false)
	if useJIT {
		// Every thread enters at the first word with only r1 set: the
		// verifier's entry contract.
		m.JITRegister(mustAssemble(src), 0x10000, capverify.Config{DataBytes: 1 << runSegLog})
	}
	for i := 0; i < threads; i++ {
		seg := dataSeg(b, m, 0x100000+uint64(i)<<runSegLog, runSegLog)
		th, err := m.AddThread(i)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.SetIP(ip); err != nil {
			b.Fatal(err)
		}
		th.SetReg(1, seg.Word())
	}
	m.Run(1 << 16) // warm the TLB and cache, and compile
	if a := testing.AllocsPerRun(100, func() { m.Run(4096) }); a != 0 {
		b.Fatalf("Run allocates %v times per call, want 0", a)
	}
	if useJIT && m.JIT().Counters.Entries == 0 {
		b.Fatalf("translator never engaged: %+v", m.JIT().Counters)
	}
	before := m.Stats().Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(4096)
	}
	b.StopTimer()
	if m.Done() {
		b.Fatalf("workload stopped: %+v", m.Threads()[0])
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(m.Stats().Instructions-before)/sec, "sim-instr/s")
	}
}

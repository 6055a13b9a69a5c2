// Benchmarks regenerating every reproduced figure/claim of the paper
// (one benchmark per experiment in DESIGN.md's index). Run with:
//
//	go test -bench=. -benchmem
//
// The cycle-level results these correspond to are printed by
// cmd/experiments; the benchmarks here measure the *simulator's* cost
// of regenerating each artifact, plus microbenchmarks of the core
// pointer operations (the combinational paths that a real MAP
// implements in hardware).
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/buddy"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/noc"
	"repro/internal/telemetry"
	"repro/internal/word"
	"repro/internal/workload"
)

// --- core pointer operations (Fig. 1 / Fig. 2 hardware paths) ---------

func BenchmarkE1_PointerDecode(b *testing.B) {
	w := mustMake(core.PermReadWrite, 12, 0x5a5a5a0).Word()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_CheckLoad(b *testing.B) {
	w := mustMake(core.PermReadWrite, 12, 0x5a5a000).Word()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckLoad(w, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_LEA(b *testing.B) {
	p := mustMake(core.PermReadWrite, 20, 1<<30)
	var sink core.Pointer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := core.LEA(p, int64(i&0xffff))
		if err != nil {
			b.Fatal(err)
		}
		sink = q
	}
	_ = sink
}

func BenchmarkE2_LEAFaultPath(b *testing.B) {
	p := mustMake(core.PermReadWrite, 6, 0x1000)
	for i := 0; i < b.N; i++ {
		if _, err := core.LEA(p, 1<<20); err == nil {
			b.Fatal("expected fault")
		}
	}
}

func BenchmarkE2_Restrict(b *testing.B) {
	p := mustMake(core.PermReadWrite, 12, 0x4000)
	for i := 0; i < b.N; i++ {
		if _, err := core.Restrict(p, core.PermReadOnly); err != nil {
			b.Fatal(err)
		}
	}
}

// --- machine-level artifacts -------------------------------------------

// benchMachineLoop builds and runs a kernel workload once per
// iteration.
func benchKernelProgram(b *testing.B, src string, segBytes uint64) {
	b.Helper()
	prog := mustAssemble(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := machine.MMachine()
		cfg.Clusters = 1
		cfg.SlotsPerCluster = 1
		cfg.PhysBytes = 4 << 20
		k, err := kernel.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ip, err := k.LoadProgram(prog, false)
		if err != nil {
			b.Fatal(err)
		}
		regs := map[int]word.Word{}
		if segBytes > 0 {
			seg, err := k.AllocSegment(segBytes)
			if err != nil {
				b.Fatal(err)
			}
			regs[1] = seg.Word()
		}
		th, err := k.Spawn(1, ip, regs)
		if err != nil {
			b.Fatal(err)
		}
		k.Run(10_000_000)
		if th.State != machine.Halted {
			b.Fatalf("%v: %v", th.State, th.Fault)
		}
	}
}

func BenchmarkE3_ProtectedCall(b *testing.B) {
	prog := mustAssemble("entry: jmp r14")
	caller := mustAssemble(`
		ldi r15, 100
	loop:
		jmpl r14, r1
		subi r15, r15, 1
		bnez r15, loop
		halt
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := machine.MMachine()
		cfg.Clusters = 1
		cfg.SlotsPerCluster = 1
		cfg.PhysBytes = 4 << 20
		k, err := kernel.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		enter, err := k.InstallSubsystem(prog, "entry", nil)
		if err != nil {
			b.Fatal(err)
		}
		ip, err := k.LoadProgram(caller, false)
		if err != nil {
			b.Fatal(err)
		}
		th, err := k.Spawn(1, ip, map[int]word.Word{1: enter.Word()})
		if err != nil {
			b.Fatal(err)
		}
		k.Run(1_000_000)
		if th.State != machine.Halted {
			b.Fatalf("%v: %v", th.State, th.Fault)
		}
	}
}

func BenchmarkE4_TwoWayCall(b *testing.B) {
	e, _ := experiments.Lookup("E4")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_CacheBanks(b *testing.B) {
	e, _ := experiments.Lookup("E5")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_ContextSwitch_Guarded(b *testing.B) {
	benchSwitchTrace(b, baseline.NewGuarded(baseline.DefaultCosts()))
}

func BenchmarkE6_ContextSwitch_PageFlush(b *testing.B) {
	benchSwitchTrace(b, baseline.NewPageNoASID(baseline.DefaultCosts()))
}

func BenchmarkE6_ContextSwitch_DomainPage(b *testing.B) {
	benchSwitchTrace(b, baseline.NewDomainPage(baseline.DefaultCosts()))
}

func benchSwitchTrace(b *testing.B, m baseline.Model) {
	b.Helper()
	tr := workload.Interleaved(8, 500, 1, 2, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.Run(tr)
		if res.Refs == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkE7_TagMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if baseline.TagOverheadBytes(8<<20) == 0 {
			b.Fatal("no overhead computed")
		}
	}
}

func BenchmarkE8_Buddy(b *testing.B) {
	rng := workload.NewRNG(9)
	sizes := workload.Sizes(rng, workload.SizesSmallObjects, 4096, 4, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := buddy.New(0, 22, 3)
		if err != nil {
			b.Fatal(err)
		}
		var live []uint64
		for _, sz := range sizes {
			if len(live) > 64 {
				a.Free(live[0])
				live = live[1:]
			}
			addr, _, err := a.AllocBytes(sz)
			if err != nil {
				continue
			}
			live = append(live, addr)
		}
	}
}

func BenchmarkE9_Revocation_Unmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := mustKernel(b)
		victim, err := k.AllocSegment(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Revoke(victim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9_Revocation_Sweep(b *testing.B) {
	k := mustKernel(b)
	victim, err := k.AllocSegment(4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := k.AllocSegment(4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.SweepRevoke(victim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_SFI(b *testing.B) {
	tr := workload.ArraySweep(0, 1<<30, 4096, 8, false)
	m := baseline.NewSFI(baseline.DefaultCosts())
	for i := 0; i < b.N; i++ {
		m.Run(tr)
	}
}

func BenchmarkE11_LoopAddressing(b *testing.B) {
	benchKernelProgram(b, `
		ldi r3, 256
	loop:
		ld   r5, r1, 0
		leai r1, r1, 8
		subi r3, r3, 1
		bnez r3, loop
		halt
	`, 4096)
}

func BenchmarkE12_VASGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := mustKernel(b)
		var first core.Pointer
		var prev core.Pointer
		for j := 0; j < 128; j++ {
			p, err := k.AllocSegment(256)
			if err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				first = p
			} else {
				if err := k.M.Space.WriteWord(prev.Base(), p.Word()); err != nil {
					b.Fatal(err)
				}
			}
			prev = p
		}
		st, err := k.CollectAddressSpace([]word.Word{first.Word()})
		if err != nil {
			b.Fatal(err)
		}
		if st.LiveSegments != 128 {
			b.Fatalf("live = %d", st.LiveSegments)
		}
	}
}

func BenchmarkE13_Translation_Guarded(b *testing.B) {
	benchTranslate(b, baseline.NewGuarded(baseline.DefaultCosts()))
}

func BenchmarkE13_Translation_CapTable(b *testing.B) {
	benchTranslate(b, baseline.NewCapTable(baseline.DefaultCosts()))
}

func benchTranslate(b *testing.B, m baseline.Model) {
	b.Helper()
	tr := workload.ArraySweep(0, 1<<30, 4096, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(tr)
	}
}

// --- simulator throughput ------------------------------------------------

// BenchmarkSimulatorIPS measures simulated instructions per second of
// the full machine (useful to size experiment budgets).
func BenchmarkSimulatorIPS(b *testing.B) {
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 1
	cfg.PhysBytes = 4 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog := mustAssemble(`
	loop:
		addi r2, r2, 1
		br loop
	`)
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := k.Spawn(1, ip, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	k.Run(uint64(b.N))
	b.StopTimer()
	if k.M.Stats().Instructions == 0 {
		b.Fatal("no instructions executed")
	}
}

// The telemetry variants of the IPS benchmark size the observability
// tax: an attached-but-disabled tracer must stay within a few percent
// of the tracer-free loop (every emit site gates on Tracer.Enabled
// before constructing an event), while full instruction tracing is
// allowed to be expensive — it is opt-in via -trace/-trace-out.
func benchSimulatorIPS(b *testing.B, attach func(k *kernel.Kernel)) {
	b.Helper()
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 1
	cfg.PhysBytes = 4 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog := mustAssemble(`
	loop:
		addi r2, r2, 1
		br loop
	`)
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := k.Spawn(1, ip, nil); err != nil {
		b.Fatal(err)
	}
	if attach != nil {
		attach(k)
	}
	b.ResetTimer()
	k.Run(uint64(b.N))
	b.StopTimer()
	if k.M.Stats().Instructions == 0 {
		b.Fatal("no instructions executed")
	}
}

func BenchmarkSimulatorIPS_TelemetryDisabled(b *testing.B) {
	benchSimulatorIPS(b, func(k *kernel.Kernel) {
		k.SetTracer(telemetry.NewTracer(1 << 10)) // attached, all kinds masked off
	})
}

func BenchmarkSimulatorIPS_EventsNoInstr(b *testing.B) {
	benchSimulatorIPS(b, func(k *kernel.Kernel) {
		tr := telemetry.NewTracer(1 << 10)
		tr.EnableAll()
		tr.Disable(telemetry.EvInstr)
		k.SetTracer(tr)
	})
}

func BenchmarkSimulatorIPS_FullTrace(b *testing.B) {
	benchSimulatorIPS(b, func(k *kernel.Kernel) {
		tr := telemetry.NewTracer(1 << 10)
		tr.EnableAll()
		k.SetTracer(tr)
	})
}

func BenchmarkSimulatorIPS_Profiler(b *testing.B) {
	benchSimulatorIPS(b, func(k *kernel.Kernel) {
		k.M.Profiler = telemetry.NewProfiler(1)
	})
}

func mustKernel(b *testing.B) *kernel.Kernel {
	b.Helper()
	cfg := machine.MMachine()
	cfg.PhysBytes = 16 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// --- multicomputer (Sec 3) ----------------------------------------------

func BenchmarkE14_RemoteAccess(b *testing.B) {
	cfg := multi.DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	prog := mustAssemble(`
		ldi r3, 100
	loop:
		ld r2, r1, 0
		subi r3, r3, 1
		bnez r3, loop
		halt
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := multi.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		seg, err := s.Nodes[7].K.AllocSegment(4096)
		if err != nil {
			b.Fatal(err)
		}
		ip, err := s.Nodes[0].K.LoadProgram(prog, false)
		if err != nil {
			b.Fatal(err)
		}
		th, err := s.Nodes[0].K.Spawn(1, ip, map[int]word.Word{1: seg.Word()})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(1_000_000)
		if th.State != machine.Halted {
			b.Fatalf("%v: %v", th.State, th.Fault)
		}
	}
}

func BenchmarkE15_MeshSend(b *testing.B) {
	n, err := noc.New(noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		arr, err := n.Send(i%8, (i+3)%8, now)
		if err != nil {
			b.Fatal(err)
		}
		now = arr
	}
}

// --- design ablation: masked comparator vs bounds recompute ------------

// leaRecompute is the conventional alternative to Fig. 2's masked
// comparator: recompute segment base and limit, then range-check. Same
// semantics, more datapath work — the bench quantifies the hardware
// argument for the comparator.
func leaRecompute(p core.Pointer, off int64) (core.Pointer, bool) {
	base := p.Base()
	limit := base + p.SegSize()
	na := p.Addr() + uint64(off)
	if na < base || na >= limit {
		return core.Pointer{}, false
	}
	q, err := core.LEA(p, off) // reuse the committed path for the result
	return q, err == nil
}

func BenchmarkAblation_LEAMaskedComparator(b *testing.B) {
	p := mustMake(core.PermReadWrite, 20, 1<<30)
	for i := 0; i < b.N; i++ {
		if _, err := core.LEA(p, int64(i&0xffff)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_LEARecomputeBounds(b *testing.B) {
	p := mustMake(core.PermReadWrite, 20, 1<<30)
	for i := 0; i < b.N; i++ {
		if _, ok := leaRecompute(p, int64(i&0xffff)); !ok {
			b.Fatal("unexpected bounds failure")
		}
	}
}

// --- wide issue ----------------------------------------------------------

func BenchmarkE16_WideIssue(b *testing.B) {
	e, _ := experiments.Lookup("E16")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20_DemandPaging(b *testing.B) {
	e, _ := experiments.Lookup("E20")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE21_SoftwareSwitch(b *testing.B) {
	e, _ := experiments.Lookup("E21")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hot-path benchmarks (BENCH_hotpath.json) ----------------------------
//
// These measure the simulator's raw cycle-loop throughput, reported as
// simulated instructions per host-second. BenchmarkMachine_CycleLoop
// steps a single-cluster machine through a non-terminating workload so
// the steady-state fetch/decode/execute path is isolated (0 allocs/op
// is the hit-path contract). The mesh's row is BenchmarkRun in
// internal/multi.

// hotpathFib is an ALU/branch loop: fetch + decode dominate.
const hotpathFib = `
	ldi  r3, 0
	ldi  r4, 1
loop:
	add  r6, r3, r4
	mov  r3, r4
	mov  r4, r6
	br   loop
`

// hotpathSweep walks a 2KB window of the scratch segment with paired
// store/load traffic: the banked cache and translation paths dominate.
const hotpathSweep = `
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

func benchCycleLoop(b *testing.B, src string, segBytes uint64, useJIT bool) {
	b.Helper()
	prog := mustAssemble(src)
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 1
	cfg.PhysBytes = 4 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if useJIT {
		k.M.EnableJIT(jit.DefaultConfig())
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		b.Fatal(err)
	}
	regs := map[int]word.Word{}
	if segBytes > 0 {
		seg, err := k.AllocSegment(segBytes)
		if err != nil {
			b.Fatal(err)
		}
		regs[1] = seg.Word()
	}
	th, err := k.Spawn(1, ip, regs)
	if err != nil {
		b.Fatal(err)
	}
	if useJIT {
		k.M.JITRegister(prog, ip.Addr(), capverify.Config{DataBytes: segBytes})
	}
	k.Run(4096) // warm the demand pager, TLB, caches and block heat
	if th.State == machine.Faulted {
		b.Fatalf("workload faulted: %v", th.Fault)
	}
	before := k.M.Stats().Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.M.Step()
	}
	b.StopTimer()
	instr := k.M.Stats().Instructions - before
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instr)/sec, "sim-instr/s")
	}
	if useJIT {
		eng := k.M.JIT()
		if eng.Counters.Compiled == 0 || eng.Counters.Entries == 0 {
			b.Fatalf("translator never engaged: %+v", eng.Counters)
		}
	}
}

func BenchmarkMachine_CycleLoop(b *testing.B) {
	b.Run("fib", func(b *testing.B) { benchCycleLoop(b, hotpathFib, 0, false) })
	b.Run("sweep", func(b *testing.B) { benchCycleLoop(b, hotpathSweep, 4096, false) })
}

// BenchmarkMachine_CycleLoopJIT is the same workload pair with the
// check-eliding superblock translator enabled (BENCH_jit.json): one
// k.M.Step() call executes a whole compiled block, so sim-instr/s is
// the honest cross-tier metric, not ns/op.
func BenchmarkMachine_CycleLoopJIT(b *testing.B) {
	b.Run("fib", func(b *testing.B) { benchCycleLoop(b, hotpathFib, 0, true) })
	b.Run("sweep", func(b *testing.B) { benchCycleLoop(b, hotpathSweep, 4096, true) })
}

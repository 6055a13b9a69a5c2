// Benchmarks of the simulator's cost to run each experiment's
// mechanism (E3, E6–E14 in DESIGN.md's index), plus the checkpoint and
// migration pipelines (bench_persist_test.go, bench_migrate_test.go).
// The cycle-level results these correspond to are printed by
// cmd/experiments. Each layer's hot-entry row lives in its own package
// (internal/core, internal/noc, internal/machine, ...); `make bench`
// runs every row in the module.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/word"
	"repro/internal/workload"
)

// --- machine-level artifacts -------------------------------------------

// benchKernelProgram builds and runs a kernel workload once per
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

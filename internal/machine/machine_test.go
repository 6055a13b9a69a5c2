package machine

import (
	"strings"
	"testing"

	"repro/internal/buddy"
	"repro/internal/core"
)

// testConfig is a small machine: 2 clusters × 2 slots, tiny cache.
func testConfig() Config {
	cfg := MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 1 << 20
	cfg.TrapCost = 10
	cfg.SwitchPenalty = 8
	return cfg
}

// loadAt assembles src into the machine at base and returns an execute
// pointer (user or privileged) for it.
func loadAt(t testing.TB, m *Machine, src string, base uint64, priv bool) core.Pointer {
	t.Helper()
	p := mustAssemble(src)
	if err := m.Space.EnsureMapped(base, p.ByteSize()); err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		if err := m.Space.WriteWord(base+uint64(i)*8, w); err != nil {
			t.Fatal(err)
		}
	}
	logLen := buddy.CeilLog2(p.ByteSize())
	if base&(1<<logLen-1) != 0 {
		t.Fatalf("code base %#x not aligned for 2^%d segment", base, logLen)
	}
	perm := core.PermExecuteUser
	if priv {
		perm = core.PermExecutePriv
	}
	return mustMake(perm, logLen, base)
}

// dataSeg maps a 2^logLen segment at base and returns a read/write
// pointer to it.
func dataSeg(t testing.TB, m *Machine, base uint64, logLen uint) core.Pointer {
	t.Helper()
	if err := m.Space.EnsureMapped(base, 1<<logLen); err != nil {
		t.Fatal(err)
	}
	return mustMake(core.PermReadWrite, logLen, base)
}

// runOne loads src as a single user thread and runs it to completion.
func runOne(t *testing.T, src string, setup func(*Machine, *Thread)) (*Machine, *Thread) {
	t.Helper()
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ip := loadAt(t, m, src, 0x10000, false)
	th, err := m.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetIP(ip); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m, th)
	}
	m.Run(100000)
	return m, th
}

func TestArithmeticProgram(t *testing.T) {
	_, th := runOne(t, `
		ldi  r1, 6
		ldi  r2, 7
		mul  r3, r1, r2
		addi r3, r3, 1
		halt
	`, nil)
	if th.State != Halted {
		t.Fatalf("state = %v fault = %v", th.State, th.Fault)
	}
	if got := th.Reg(3).Int(); got != 43 {
		t.Errorf("r3 = %d, want 43", got)
	}
	if th.Instret != 5 {
		t.Errorf("instret = %d, want 5", th.Instret)
	}
}

func TestLoopSum(t *testing.T) {
	_, th := runOne(t, `
		ldi r1, 10   ; i
		ldi r2, 0    ; sum
	loop:
		add  r2, r2, r1
		subi r1, r1, 1
		bnez r1, loop
		halt
	`, nil)
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if got := th.Reg(2).Int(); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestLoadStoreThroughPointer(t *testing.T) {
	_, th := runOne(t, `
		ldi r2, 1234
		st  r1, 16, r2
		ld  r3, r1, 16
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if got := th.Reg(3).Int(); got != 1234 {
		t.Errorf("r3 = %d, want 1234", got)
	}
}

func TestStoreThroughReadOnlyFaults(t *testing.T) {
	_, th := runOne(t, `
		ldi r2, 1
		st  r1, 0, r2
		halt
	`, func(m *Machine, th *Thread) {
		ro, _ := core.Restrict(dataSeg(t, m, 0x40000, 12), core.PermReadOnly)
		th.SetReg(1, ro.Word())
	})
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultPerm {
		t.Errorf("state=%v fault=%v, want perm fault", th.State, th.Fault)
	}
}

func TestLoadThroughIntegerFaults(t *testing.T) {
	_, th := runOne(t, `
		ldi r1, 0x40000
		ld  r2, r1, 0
		halt
	`, nil)
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultTag {
		t.Errorf("state=%v fault=%v, want tag fault", th.State, th.Fault)
	}
}

func TestOutOfBoundsDisplacementFaults(t *testing.T) {
	_, th := runOne(t, `
		ld r2, r1, 4096
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultBounds {
		t.Errorf("fault = %v, want bounds", th.Fault)
	}
}

func TestPointerArithmeticClearsTag(t *testing.T) {
	// Using a pointer in ADD produces an integer; dereferencing it
	// must then tag-fault. This is the anti-forgery rule of Sec 2.2.
	_, th := runOne(t, `
		add r2, r1, r0   ; r2 = integer image of the pointer
		isptr r3, r2
		ld r4, r2, 0     ; faults: r2 is no longer a pointer
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.Reg(3).Int() != 0 {
		t.Errorf("isptr after arithmetic = %d, want 0", th.Reg(3).Int())
	}
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultTag {
		t.Errorf("fault = %v, want tag", th.Fault)
	}
}

func TestSetPtrPrivileged(t *testing.T) {
	// User mode: SETPTR faults.
	_, th := runOne(t, `
		ldi r1, 0x40000
		setptr r2, r1
		halt
	`, nil)
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultPriv {
		t.Errorf("user setptr fault = %v, want priv", th.Fault)
	}

	// Privileged mode: SETPTR succeeds and the result is a usable
	// pointer.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ip := loadAt(t, m, `
		setptr r2, r1
		getperm r3, r2
		halt
	`, 0x10000, true)
	dataSeg(t, m, 0x40000, 12)
	pt := mustMake(core.PermReadWrite, 12, 0x40000)
	thp, _ := m.AddThread(0)
	thp.SetIP(ip)
	thp.SetReg(1, pt.Word().Untag())
	m.Run(1000)
	if thp.State != Halted {
		t.Fatalf("priv thread fault: %v", thp.Fault)
	}
	if got := thp.Reg(3).Int(); got != int64(core.PermReadWrite) {
		t.Errorf("getperm = %d", got)
	}
	if !thp.Reg(2).Tag {
		t.Error("setptr result untagged")
	}
}

func TestRestrictAndSubsegInstructions(t *testing.T) {
	_, th := runOne(t, `
		ldi r2, 2        ; PermReadOnly
		restrict r3, r1, r2
		getperm r4, r3
		ldi r5, 6
		subseg r6, r1, r5
		getlen r7, r6
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if th.Reg(4).Int() != int64(core.PermReadOnly) {
		t.Errorf("restricted perm = %d", th.Reg(4).Int())
	}
	if th.Reg(7).Int() != 6 {
		t.Errorf("subseg len = %d", th.Reg(7).Int())
	}
}

func TestJMPLAndReturn(t *testing.T) {
	_, th := runOne(t, `
		ldi  r1, 0
		movip r2
		leai r2, r2, 32   ; pointer to 'func' (4 instructions ahead)
		jmpl r14, r2
		halt              ; returns here? no — jmpl goes to func, func returns to after jmpl
	func:
		ldi r1, 77
		jmp r14
	`, nil)
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if th.Reg(1).Int() != 77 {
		t.Errorf("r1 = %d, want 77 (function ran)", th.Reg(1).Int())
	}
}

func TestEnterPointerCall(t *testing.T) {
	// The caller holds only an ENTER pointer to the subsystem segment.
	// Jumping through it must convert to execute; the caller cannot
	// read the segment directly beforehand.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	subIP := loadAt(t, m, `
		ldi r5, 999
		jmp r14
	`, 0x20000, false)
	enter, err := core.Restrict(subIP, core.PermEnterUser)
	if err != nil {
		t.Fatal(err)
	}
	mainIP := loadAt(t, m, `
		ld r6, r1, 0     ; try to read subsystem through enter ptr: faults
		halt
	`, 0x10000, false)
	th, _ := m.AddThread(0)
	th.SetIP(mainIP)
	th.SetReg(1, enter.Word())
	m.Run(1000)
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultPerm {
		t.Fatalf("reading through enter pointer: %v", th.Fault)
	}

	// Now the call path.
	m2, _ := New(testConfig())
	subIP2 := loadAt(t, m2, `
		ldi r5, 999
		jmp r14
	`, 0x20000, false)
	enter2, _ := core.Restrict(subIP2, core.PermEnterUser)
	mainIP2 := loadAt(t, m2, `
		jmpl r14, r1
		halt
	`, 0x10000, false)
	th2, _ := m2.AddThread(0)
	th2.SetIP(mainIP2)
	th2.SetReg(1, enter2.Word())
	m2.Run(1000)
	if th2.State != Halted {
		t.Fatalf("enter call fault: %v", th2.Fault)
	}
	if th2.Reg(5).Int() != 999 {
		t.Errorf("subsystem did not run: r5 = %d", th2.Reg(5).Int())
	}
}

func TestJumpToDataPointerFaults(t *testing.T) {
	_, th := runOne(t, `
		jmp r1
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultPerm {
		t.Errorf("fault = %v, want perm", th.Fault)
	}
}

func TestBranchCannotLeaveSegment(t *testing.T) {
	_, th := runOne(t, `
		br 100000
		halt
	`, nil)
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultBounds {
		t.Errorf("fault = %v, want bounds", th.Fault)
	}
}

func TestRunningOffSegmentEndFaults(t *testing.T) {
	_, th := runOne(t, `nop`, nil) // no halt: falls off the end
	if th.State != Faulted {
		t.Errorf("state = %v, want faulted", th.State)
	}
}

func TestTrapHandler(t *testing.T) {
	var gotCode int64
	m, th := runOne(t, `
		trap 42
		ldi r1, 5
		halt
	`, func(m *Machine, th *Thread) {
		m.OnTrap = func(m *Machine, t *Thread, code int64) error {
			gotCode = code
			return nil
		}
	})
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if gotCode != 42 {
		t.Errorf("trap code = %d", gotCode)
	}
	if th.Reg(1).Int() != 5 {
		t.Error("execution did not resume after trap")
	}
	if m.Stats().Traps != 1 {
		t.Errorf("traps = %d", m.Stats().Traps)
	}
}

func TestTrapWithoutHandlerFaults(t *testing.T) {
	_, th := runOne(t, `trap 1
		halt`, nil)
	if th.State != Faulted {
		t.Error("trap without handler did not fault")
	}
}

func TestTrapCostCharged(t *testing.T) {
	// A trap must cost ~TrapCost cycles; the same program without the
	// trap is much faster.
	mTrap, _ := runOne(t, `
		trap 0
		halt
	`, func(m *Machine, th *Thread) {
		m.OnTrap = func(*Machine, *Thread, int64) error { return nil }
	})
	mPlain, _ := runOne(t, `
		nop
		halt
	`, nil)
	d := mTrap.Stats().Cycles - mPlain.Stats().Cycles
	if d < testConfig().TrapCost-2 {
		t.Errorf("trap cost only %d cycles, want ≈%d", d, testConfig().TrapCost)
	}
}

func TestFaultHandlerCanRepairAndRetry(t *testing.T) {
	// Demand paging through the fault hook: the load hits an unmapped
	// page, the handler maps it, the instruction retries and succeeds.
	repairs := 0
	_, th := runOne(t, `
		ld r2, r1, 0
		halt
	`, func(m *Machine, th *Thread) {
		// Hand the thread a pointer to an unmapped segment.
		th.SetReg(1, mustMake(core.PermReadWrite, 12, 0x80000).Word())
		m.OnFault = func(m *Machine, t *Thread, err error) bool {
			if repairs++; repairs > 3 {
				return false
			}
			if strings.Contains(err.Error(), "page fault") {
				m.Space.EnsureMapped(0x80000, 4096)
				return true
			}
			return false
		}
	})
	if th.State != Halted {
		t.Fatalf("fault: %v (repairs=%d)", th.Fault, repairs)
	}
	if repairs != 1 {
		t.Errorf("repairs = %d, want 1", repairs)
	}
}

func TestMultithreadInterleaving(t *testing.T) {
	// Four threads (two clusters × two slots) all make progress.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `
		ldi r1, 100
	loop:
		subi r1, r1, 1
		bnez r1, loop
		halt
	`
	for i := 0; i < 4; i++ {
		base := uint64(0x10000 + i*0x1000)
		ip := loadAt(t, m, src, base, false)
		th, err := m.AddThread(i)
		if err != nil {
			t.Fatal(err)
		}
		th.SetIP(ip)
	}
	m.Run(100000)
	for _, th := range m.Threads() {
		if th.State != Halted {
			t.Errorf("thread %d: %v %v", th.ID, th.State, th.Fault)
		}
	}
	// Two threads share each cluster: runtime ≈ 2 × single-thread
	// instruction count, far less than 4× (they interleave, not
	// serialize across clusters).
	if c := m.Stats().Cycles; c > 1000 {
		t.Errorf("4 threads took %d cycles", c)
	}
}

func TestZeroCostDomainSwitchGuarded(t *testing.T) {
	m := interleavedDomains(t, SchemeGuarded)
	if m.Stats().StallCycles != 0 {
		t.Errorf("guarded scheme stalled %d cycles", m.Stats().StallCycles)
	}
	if m.Stats().DomainSwaps == 0 {
		t.Error("no domain swaps recorded — test not exercising switches")
	}
	if m.Space.TLB.Stats().Flushes != 0 {
		t.Error("guarded scheme flushed the TLB")
	}
}

func TestFlushTLBSchemeStalls(t *testing.T) {
	m := interleavedDomains(t, SchemeFlushTLB)
	if m.Stats().StallCycles == 0 {
		t.Error("flush scheme did not stall")
	}
	if m.Space.TLB.Stats().Flushes == 0 {
		t.Error("flush scheme did not flush")
	}
	mg := interleavedDomains(t, SchemeGuarded)
	if m.Stats().Cycles <= mg.Stats().Cycles {
		t.Errorf("flush (%d cycles) not slower than guarded (%d)",
			m.Stats().Cycles, mg.Stats().Cycles)
	}
}

func TestFlushAllAlsoPurgesCache(t *testing.T) {
	m := interleavedDomains(t, SchemeFlushAll)
	if m.Cache.Stats().Misses <= interleavedDomains(t, SchemeFlushTLB).Cache.Stats().Misses {
		t.Error("cache purge did not increase misses")
	}
}

// interleavedDomains runs two threads from different domains on one
// cluster, each doing memory work, under the given scheme.
func interleavedDomains(t *testing.T, s Scheme) *Machine {
	t.Helper()
	cfg := testConfig()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 2
	cfg.Scheme = s
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		ldi r3, 50
	loop:
		ld r2, r1, 0
		ld r2, r1, 8
		subi r3, r3, 1
		bnez r3, loop
		halt
	`
	for i := 0; i < 2; i++ {
		base := uint64(0x10000 + i*0x1000)
		ip := loadAt(t, m, src, base, false)
		th, err := m.AddThread(i) // distinct domains
		if err != nil {
			t.Fatal(err)
		}
		th.SetIP(ip)
		th.SetReg(1, dataSeg(t, m, uint64(0x40000+i*0x1000), 12).Word())
	}
	m.Run(1000000)
	for _, th := range m.Threads() {
		if th.State != Halted {
			t.Fatalf("thread %d: %v %v", th.ID, th.State, th.Fault)
		}
	}
	return m
}

func TestAddThreadOverflowAndRemove(t *testing.T) {
	m, _ := New(testConfig()) // 4 slots
	var ths []*Thread
	for i := 0; i < 4; i++ {
		th, err := m.AddThread(0)
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, th)
	}
	if _, err := m.AddThread(0); err == nil {
		t.Error("5th thread accepted on 4-slot machine")
	}
	if err := m.RemoveThread(ths[0]); err == nil {
		t.Error("removed a live thread")
	}
	ths[0].State = Halted
	if err := m.RemoveThread(ths[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddThread(9); err != nil {
		t.Errorf("slot not recycled: %v", err)
	}
	if err := m.RemoveThread(ths[0]); err == nil {
		t.Error("double remove accepted")
	}
}

func TestMOVIPLoadsFromCodeSegment(t *testing.T) {
	// The Fig. 3 idiom: code reads pointers embedded in its own
	// segment via the execute pointer (execute pointers can load).
	_, th := runOne(t, `
		movip r2
		leab  r3, r2, r0   ; base of code segment (r0 = 0)
		ld    r4, r3, =datum
		halt
	datum:
		.word 4242
	`, nil)
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if th.Reg(4).Int() != 4242 {
		t.Errorf("r4 = %d, want 4242", th.Reg(4).Int())
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range []Scheme{SchemeGuarded, SchemeFlushTLB, SchemeFlushAll, Scheme(9)} {
		if s.String() == "" {
			t.Errorf("empty name for scheme %d", int(s))
		}
	}
	for _, st := range []ThreadState{Ready, Blocked, Halted, Faulted, ThreadState(9)} {
		if st.String() == "" {
			t.Errorf("empty name for state %d", int(st))
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	m, th := runOne(t, `
		ldi r1, 1
		halt
	`, nil)
	if th.State != Halted {
		t.Fatal(th.Fault)
	}
	st := m.Stats()
	if st.Instructions != 2 {
		t.Errorf("instructions = %d, want 2", st.Instructions)
	}
	if st.Cycles == 0 {
		t.Error("no cycles counted")
	}
	// One cluster ran the thread; the other idled.
	if st.IdleCycles == 0 {
		t.Error("idle cluster not counted")
	}
}

func TestSeqComparesTags(t *testing.T) {
	// SEQ on two words compares full tagged identity — a pointer and
	// its integer image differ.
	_, th := runOne(t, `
		add r2, r1, r0  ; integer image
		seq r3, r1, r2
		mov r4, r1
		seq r5, r1, r4
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.Reg(3).Int() != 0 {
		t.Error("pointer == its integer image")
	}
	if th.Reg(5).Int() != 1 {
		t.Error("pointer != its copy")
	}
}

func TestKeyPointerComparableNotUsable(t *testing.T) {
	// Keys: comparable identity, nothing else (Sec 2.1).
	_, th := runOne(t, `
		seq r3, r1, r2
		ld  r4, r1, 0   ; faults
		halt
	`, func(m *Machine, th *Thread) {
		key := mustMake(core.PermKey, 0, 0x12345)
		th.SetReg(1, key.Word())
		th.SetReg(2, key.Word())
	})
	if th.Reg(3).Int() != 1 {
		t.Error("equal keys not equal")
	}
	if th.State != Faulted || core.CodeOf(th.Fault) != core.FaultPerm {
		t.Errorf("key deref fault = %v, want perm", th.Fault)
	}
}

func TestWordTaggedMemoryRoundTripThroughMachine(t *testing.T) {
	// A pointer stored to memory and loaded back is still a pointer —
	// no special capability storage exists (Sec 5.3).
	_, th := runOne(t, `
		st r1, 0, r1     ; store the pointer through itself
		ld r2, r1, 0
		isptr r3, r2
		ld r4, r2, 0     ; and it still works as an address
		halt
	`, func(m *Machine, th *Thread) {
		th.SetReg(1, dataSeg(t, m, 0x40000, 12).Word())
	})
	if th.State != Halted {
		t.Fatalf("fault: %v", th.Fault)
	}
	if th.Reg(3).Int() != 1 {
		t.Error("pointer lost its tag through memory")
	}
}

func TestConfigAndCycleAccessors(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Clusters != testConfig().Clusters {
		t.Error("Config accessor mismatch")
	}
	if m.Cycle() != 0 {
		t.Error("fresh machine cycle != 0")
	}
	m.Step()
	if m.Cycle() != 1 {
		t.Errorf("Cycle = %d after one step", m.Cycle())
	}
}

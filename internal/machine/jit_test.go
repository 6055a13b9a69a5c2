package machine

import (
	"fmt"
	"testing"

	"repro/internal/capverify"
	"repro/internal/jit"
	"repro/internal/word"
)

// These tests extend the self-modifying-code contract of
// hotpath_test.go (decoded-instruction cache shootdown) to the compiled
// tier: a store into a compiled superblock must invalidate it, and
// re-execution — now through the interpreter, since a write into
// registered code voids the verifier's proofs for good — must produce
// the same architectural results.

// smcLoop runs a countdown loop hot enough to cross the compile
// threshold (64) and then reports through r1.
const smcLoop = `
	ldi  r2, 200
loop:
	subi r2, r2, 1
	bnez r2, loop
	ldi  r1, 111
	halt
`

// jitLoadAt is loadAt plus translator registration: program words are
// written first (stores into unregistered space are not SMC), then the
// region is handed to the verifier.
func jitLoadAt(t *testing.T, m *Machine, src string, base uint64) *jit.Engine {
	t.Helper()
	eng := m.EnableJIT(jit.DefaultConfig())
	ip := loadAt(t, m, src, base, false)
	m.JITRegister(mustAssemble(src), base, capverify.Config{})
	th, err := m.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetIP(ip); err != nil {
		t.Fatal(err)
	}
	return eng
}

// runInterp runs the same source on a translator-free machine and
// returns r1, instret and the stats, the reference for post-patch
// re-execution.
func runInterp(t *testing.T, src string, base uint64, patch func(m *Machine)) (int64, uint64, Stats) {
	t.Helper()
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ip := loadAt(t, m, src, base, false)
	th, _ := m.AddThread(0)
	if err := th.SetIP(ip); err != nil {
		t.Fatal(err)
	}
	m.Run(100000)
	if patch != nil {
		patch(m)
	}
	rerun(t, m, th, ip)
	return th.Reg(1).Int(), th.Instret, m.Stats()
}

// TestJITBlockInvalidatedOnWrite: a word store into a compiled
// superblock must invalidate it; the rerun executes the patched code
// with results identical to a never-compiled machine.
func TestJITBlockInvalidatedOnWrite(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := jitLoadAt(t, m, smcLoop, 0x10000)
	th := m.threads[0]
	ip := th.IP
	m.Run(100000)
	if th.State != Halted || th.Reg(1).Int() != 111 {
		t.Fatalf("first run: %v r1=%d", th.State, th.Reg(1).Int())
	}
	if eng.Counters.Compiled == 0 || eng.Counters.Entries == 0 {
		t.Fatalf("loop never compiled/entered: %+v", eng.Counters)
	}
	// Patch `ldi r1, 111` (word 3, inside the compiled superblock) to
	// load 222.
	patched := mustAssemble("ldi r1, 222").Words[0]
	if err := m.Space.WriteWord(0x10000+3*8, patched); err != nil {
		t.Fatal(err)
	}
	if eng.Counters.Invalidated == 0 {
		t.Fatalf("store into compiled code did not invalidate: %+v", eng.Counters)
	}
	if !eng.Dead() {
		t.Error("store into registered code must retire the translator (proofs void)")
	}
	rerun(t, m, th, ip)
	if th.State != Halted {
		t.Fatalf("second run: %v %v", th.State, th.Fault)
	}
	if got := th.Reg(1).Int(); got != 222 {
		t.Errorf("r1 = %d after patch, want 222 (stale compiled block executed)", got)
	}
	// The patched rerun must match a machine that never compiled.
	wantR1, wantInstret, _ := runInterp(t, smcLoop, 0x10000, func(m *Machine) {
		if err := m.Space.WriteWord(0x10000+3*8, patched); err != nil {
			t.Fatal(err)
		}
	})
	if th.Reg(1).Int() != wantR1 || th.Instret != wantInstret {
		t.Errorf("post-patch divergence: jit r1=%d instret=%d, interp r1=%d instret=%d",
			th.Reg(1).Int(), th.Instret, wantR1, wantInstret)
	}
}

// TestJITBlockInvalidatedOnByteStore: byte stores rewrite instruction
// words too; the containing compiled block must go the same way.
func TestJITBlockInvalidatedOnByteStore(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := jitLoadAt(t, m, smcLoop, 0x10000)
	th := m.threads[0]
	ip := th.IP
	m.Run(100000)
	if th.State != Halted || th.Reg(1).Int() != 111 {
		t.Fatalf("first run: %v r1=%d", th.State, th.Reg(1).Int())
	}
	if eng.Counters.Compiled == 0 {
		t.Fatalf("loop never compiled: %+v", eng.Counters)
	}
	patched := mustAssemble("ldi r1, 222").Words[0]
	for i := uint64(0); i < word.BytesPerWord; i++ {
		if err := m.Space.SetByteAt(0x10000+3*8+i, byte(patched.Bits>>(i*8))); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Counters.Invalidated == 0 || !eng.Dead() {
		t.Fatalf("byte store into compiled code did not retire the translator: %+v dead=%v",
			eng.Counters, eng.Dead())
	}
	rerun(t, m, th, ip)
	if th.State != Halted {
		t.Fatalf("second run: %v %v", th.State, th.Fault)
	}
	if got := th.Reg(1).Int(); got != 222 {
		t.Errorf("r1 = %d after byte patch, want 222", got)
	}
}

// TestJITBlockFlushedOnUnmap: unmapping a compiled code range must
// shoot down its blocks mid-flight — the spinning thread escapes to the
// recycled page's NOPs instead of replaying the stale compiled branch.
func TestJITBlockFlushedOnUnmap(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two words: a single-instruction loop is below the block minimum.
	eng := jitLoadAt(t, m, "loop: addi r3, r3, 1\nbr loop", 0x10000)
	th := m.threads[0]
	for i := 0; i < 256; i++ { // spin long enough to compile the branch
		m.Step()
	}
	if th.State != Ready || th.IP.Addr() != 0x10000 {
		t.Fatalf("loop not spinning: %v ip=%#x", th.State, th.IP.Addr())
	}
	if eng.Counters.Compiled == 0 {
		t.Fatalf("spin loop never compiled: %+v", eng.Counters)
	}
	if _, err := m.Space.UnmapRange(0x10000, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.Space.EnsureMapped(0x10000, 16); err != nil {
		t.Fatal(err)
	}
	if eng.Counters.Invalidated == 0 {
		t.Errorf("unmap did not invalidate the compiled block: %+v", eng.Counters)
	}
	if eng.Dead() {
		t.Error("unmap must drop regions, not retire the translator")
	}
	if eng.Regions() != 0 {
		t.Errorf("unmapped region still registered: %d", eng.Regions())
	}
	for i := 0; i < 8 && th.State == Ready; i++ {
		m.Step()
	}
	if th.State == Ready && th.IP.Addr() == 0x10000 {
		t.Error("stale compiled branch survived unmap: thread still looping at 0x10000")
	}
}

// TestJITMatchesInterpreterStats: with no SMC at all, a full run with
// the translator must leave identical architectural state and identical
// cycle/instruction/idle accounting.
func TestJITMatchesInterpreterStats(t *testing.T) {
	run := func(useJIT bool) (int64, uint64, Stats) {
		m, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ip := loadAt(t, m, smcLoop, 0x10000, false)
		if useJIT {
			m.EnableJIT(jit.DefaultConfig())
			m.JITRegister(mustAssemble(smcLoop), 0x10000, capverify.Config{})
		}
		th, _ := m.AddThread(0)
		if err := th.SetIP(ip); err != nil {
			t.Fatal(err)
		}
		m.Run(100000)
		if th.State != Halted {
			t.Fatalf("state %v fault %v", th.State, th.Fault)
		}
		return th.Reg(1).Int(), th.Instret, m.Stats()
	}
	r1i, ii, si := run(false)
	r1j, ij, sj := run(true)
	if r1i != r1j || ii != ij || si != sj {
		t.Errorf("divergence:\ninterp r1=%d instret=%d %+v\njit    r1=%d instret=%d %+v",
			r1i, ii, si, r1j, ij, sj)
	}
}

// TestJITStepIsOneCycle: outside Run a Step is one cycle on either
// tier. A lone thread spinning through a compiled block issues one step
// per Step and resumes from its cursor on the next.
func TestJITStepIsOneCycle(t *testing.T) {
	m, err := New(MMachine())
	if err != nil {
		t.Fatal(err)
	}
	eng := jitLoadAt(t, m, "loop: addi r3, r3, 1\nbr loop", 0x10000)
	th := m.threads[0]
	for i := 0; i < 256; i++ { // spin long enough to compile the branch
		m.Step()
	}
	if eng.Counters.Entries == 0 {
		t.Fatalf("spin loop never entered a compiled block: %+v", eng.Counters)
	}
	for i := 0; i < 100; i++ {
		if th.jblk == nil {
			t.Fatalf("step %d: thread not inside a compiled block", i)
		}
		cycle, instret := m.Cycle(), th.Instret
		m.Step()
		if m.Cycle() != cycle+1 || th.Instret != instret+1 {
			t.Fatalf("one Step at cycle %d ran %d cycles and %d instructions, want 1 and 1",
				cycle, m.Cycle()-cycle, th.Instret-instret)
		}
	}
	if s := m.Stats(); s.Cycles != m.Cycle() || s.Instructions != m.Cycle() {
		t.Errorf("stats count %d cycles and %d instructions over %d cycles", s.Cycles, s.Instructions, m.Cycle())
	}
}

// TestJITWideIssueMatchesInterpreter: under wide issue each Step builds
// one packet, so a lone thread's compiled blocks must not go on issuing
// on later cycles inside it. Runs with the translator on and off agree
// on every counter and on the thread's state.
func TestJITWideIssueMatchesInterpreter(t *testing.T) {
	wide := MMachine()
	wide.WideIssue = true
	for _, seed := range []int64{12, 16} {
		interp := newRunMachine(t, runCase{cfg: wide, threads: 1, seed: seed})
		comp := newRunMachine(t, runCase{cfg: wide, threads: 1, jit: true, seed: seed})
		interp.Run(2_000_000)
		comp.Run(2_000_000)
		if !interp.Done() {
			t.Fatalf("seed %d: workload did not finish", seed)
		}
		sameMachine(t, fmt.Sprintf("seed %d", seed), interp, comp)
		if comp.JIT().Counters.Entries == 0 {
			t.Fatalf("seed %d: translator never engaged: %+v", seed, comp.JIT().Counters)
		}
		if s := interp.Stats(); s.Instructions <= s.IssuePackets {
			t.Fatalf("seed %d: no packet issued two instructions: %+v", seed, s)
		}
	}
}

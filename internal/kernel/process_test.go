package kernel

import (
	"testing"

	"repro/internal/capverify"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

func TestProcessBasics(t *testing.T) {
	k := testKernel(t)
	p := k.NewProcess()
	q := k.NewProcess()
	if p.ID == q.ID || p.Domain == q.Domain {
		t.Error("processes share identity")
	}
	if len(k.Processes()) != 2 {
		t.Errorf("Processes = %d", len(k.Processes()))
	}
	seg, err := p.AllocSegment(256)
	if err != nil {
		t.Fatal(err)
	}
	if seg.SegSize() != 256 {
		t.Errorf("size = %d", seg.SegSize())
	}
}

func TestProcessRunAndExit(t *testing.T) {
	k := testKernel(t)
	p := k.NewProcess()
	ip, err := p.LoadProgram(mustAssemble(`
		ldi r2, 9
		mul r2, r2, r2
		halt
	`))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(ip, nil); err != nil {
		t.Fatal(err)
	}
	if p.Live() != 1 {
		t.Errorf("Live = %d", p.Live())
	}
	k.RunScheduled(10000)
	if p.Live() != 0 {
		t.Errorf("Live = %d after completion", p.Live())
	}
	if p.Instret != 3 {
		t.Errorf("Instret = %d, want 3", p.Instret)
	}
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Error("not exited")
	}
	if k.Segments() != 0 {
		t.Errorf("segments leaked: %d", k.Segments())
	}
	// Post-exit use is rejected.
	if _, err := p.AllocSegment(64); err == nil {
		t.Error("alloc after exit")
	}
	if err := p.Start(ip, nil); err == nil {
		t.Error("start after exit")
	}
	if err := p.Exit(); err != nil {
		t.Error("double exit should be idempotent")
	}
}

func TestExitRefusesWithLiveThreads(t *testing.T) {
	k := testKernel(t)
	p := k.NewProcess()
	ip, _ := p.LoadProgram(mustAssemble("loop: br loop"))
	p.Start(ip, nil)
	if err := p.Exit(); err == nil {
		t.Error("exit with live thread accepted")
	}
}

func TestSchedulerOversubscription(t *testing.T) {
	// 12 processes on a 4-slot machine: the scheduler must run them
	// all to completion by recycling slots.
	k := testKernel(t) // 2 clusters × 2 slots
	prog := mustAssemble(`
		ldi r3, 20
	loop:
		st r1, 0, r3
		subi r3, r3, 1
		bnez r3, loop
		halt
	`)
	var procs []*Process
	for i := 0; i < 12; i++ {
		p := k.NewProcess()
		ip, err := p.LoadProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := p.AllocSegment(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(ip, map[int]word.Word{1: seg.Word()}); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	queued := 0
	for _, p := range procs {
		queued += p.Pending()
	}
	if queued != 8 {
		t.Errorf("pending = %d, want 8 (12 procs, 4 slots)", queued)
	}
	k.RunScheduled(1_000_000)
	for _, p := range procs {
		if p.Live() != 0 || p.Pending() != 0 {
			t.Errorf("process %d: live=%d pending=%d", p.ID, p.Live(), p.Pending())
		}
		if p.Instret == 0 {
			t.Errorf("process %d never ran", p.ID)
		}
		if err := p.Exit(); err != nil {
			t.Errorf("exit %d: %v", p.ID, err)
		}
	}
	if k.Segments() != 0 {
		t.Errorf("segments leaked: %d", k.Segments())
	}
}

func TestProcessExitRevokesItsCapabilities(t *testing.T) {
	// After a process exits, capabilities it handed out are dead: its
	// segments were freed (zeroed, pages reclaimed when unshared).
	k := testKernel(t)
	p := k.NewProcess()
	seg, _ := p.AllocSegment(4096)
	k.WriteWords(seg, []word.Word{word.FromInt(7)})
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadWord(seg); err == nil {
		t.Error("capability into exited process's segment still works")
	}
}

func TestSchedulerMixedWithRawThreads(t *testing.T) {
	// Raw Spawn threads (no owning process) coexist with scheduled
	// ones; reap must not touch them (they stay resident when Done).
	k := testKernel(t)
	ipRaw, _ := k.LoadProgram(mustAssemble("halt"), false)
	raw, _ := k.Spawn(0, ipRaw, nil)

	p := k.NewProcess()
	ip, _ := p.LoadProgram(mustAssemble("ldi r1, 1\nhalt"))
	p.Start(ip, nil)
	k.RunScheduled(10000)
	if raw.State != machine.Halted {
		t.Errorf("raw thread state: %v", raw.State)
	}
	// Raw thread still resident; process thread reaped.
	found := false
	for _, th := range k.M.Threads() {
		if th == raw {
			found = true
		}
	}
	if !found {
		t.Error("reap removed a non-process thread")
	}
}

func TestRunScheduledStopsAtBudget(t *testing.T) {
	k := testKernel(t)
	p := k.NewProcess()
	ip, _ := p.LoadProgram(mustAssemble("loop: br loop"))
	p.Start(ip, nil)
	c := k.RunScheduled(500)
	if c != 500 {
		t.Errorf("ran %d cycles, want budget 500", c)
	}
}

// TestRunScheduledStopsAtBudgetJIT: RunScheduled steps one cycle at a
// time with the translator on too, so a lone thread looping inside a
// compiled block advances the machine by exactly the count returned.
func TestRunScheduledStopsAtBudgetJIT(t *testing.T) {
	k := testKernel(t)
	k.M.EnableJIT(jit.DefaultConfig())
	prog := mustAssemble("loop: addi r2, r2, 1\nbr loop")
	p := k.NewProcess()
	ip, err := p.LoadProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	k.M.JITRegister(prog, ip.Addr(), capverify.Config{})
	if err := p.Start(ip, nil); err != nil {
		t.Fatal(err)
	}
	start := k.M.Cycle()
	c := k.RunScheduled(500)
	if c != 500 || k.M.Cycle()-start != 500 {
		t.Errorf("RunScheduled(500) returned %d and ran the machine %d cycles, want 500 and 500",
			c, k.M.Cycle()-start)
	}
	if e := k.M.JIT().Counters.Entries; e == 0 {
		t.Fatalf("translator never engaged: %+v", k.M.JIT().Counters)
	}
}

func TestProcessLazySegmentOwnership(t *testing.T) {
	k := testKernel(t)
	k.EnableDemandPaging(0)
	p := k.NewProcess()
	seg, err := p.AllocSegmentLazy(4 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	_ = seg
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	if k.Segments() != 0 {
		t.Errorf("lazy segment leaked: %d live", k.Segments())
	}
	if _, err := p.AllocSegmentLazy(64); err == nil {
		t.Error("lazy alloc after exit accepted")
	}
}

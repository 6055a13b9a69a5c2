package multi

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/word"
)

// watchdogSystem boots a 2×1×1 system: node 0 runs one thread doing
// dependent remote loads from a segment homed on node 1.
func watchdogSystem(t *testing.T, watchdog uint64) (*System, *machine.Thread, machine.Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 1
	cfg.WatchdogCycles = watchdog
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	far, err := s.Nodes[1].K.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble(`
		ldi r3, 50
	loop:
		ld   r2, r1, 0
		add  r5, r5, r2
		subi r3, r3, 1
		bnez r3, loop
		halt
	`)
	ip, err := s.Nodes[0].K.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.Nodes[0].K.Spawn(1, ip, map[int]word.Word{1: far.Word()})
	if err != nil {
		t.Fatal(err)
	}
	return s, th, cfg.Node
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	s, th, _ := watchdogSystem(t, 2000)
	s.Run(200_000)
	if s.Hung() {
		t.Fatal("watchdog tripped on a healthy run")
	}
	if th.State != machine.Halted {
		t.Fatalf("%v %v", th.State, th.Fault)
	}
}

// TestWatchdogDetectsKilledHomeNode: killing the home node parks the
// issuing thread forever (its reply is never coming); the cycle-
// deadline watchdog must convert that silent spin into a detected hang.
func TestWatchdogDetectsKilledHomeNode(t *testing.T) {
	s, th, _ := watchdogSystem(t, 2000)
	s.Run(50) // let the workload get going
	s.Kill(1)
	s.Run(500_000)
	if !s.Hung() {
		t.Fatal("killed home node not detected")
	}
	if th.Done() {
		t.Fatalf("thread finished without its home node: %v", th.State)
	}
	if c := s.Cycle(); c > 50+10*2000 {
		t.Fatalf("watchdog let the system spin %d cycles", c)
	}
}

func TestWatchdogDetectsKilledIssuer(t *testing.T) {
	s, _, _ := watchdogSystem(t, 2000)
	s.Run(50)
	s.Kill(0)
	s.Run(500_000)
	if !s.Hung() {
		t.Fatal("killed issuing node not detected")
	}
}

// TestStallIsTransient: a bounded stall must lose time, not state — the
// run completes with the watchdog quiet.
func TestStallIsTransient(t *testing.T) {
	ref, thRef, _ := watchdogSystem(t, 5000)
	ref.Run(200_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	s, th, _ := watchdogSystem(t, 5000)
	s.Run(50)
	s.Stall(0, s.Cycle()+1500)
	s.Run(200_000)
	if s.Hung() {
		t.Fatal("watchdog tripped on a bounded stall")
	}
	if th.State != machine.Halted {
		t.Fatalf("stalled run: %v %v", th.State, th.Fault)
	}
	if th.Instret != thRef.Instret {
		t.Fatalf("instret %d != reference %d", th.Instret, thRef.Instret)
	}
	for r := 0; r < 16; r++ {
		if th.Reg(r) != thRef.Reg(r) {
			t.Errorf("r%d: %v != reference %v", r, th.Reg(r), thRef.Reg(r))
		}
	}
}

// TestReviveFromCheckpointResumes: kill node 0 mid-run, detect via
// watchdog, rebuild its kernel from a checkpoint taken earlier, revive,
// and finish — final architectural state equals an uninterrupted run.
func TestReviveFromCheckpointResumes(t *testing.T) {
	ref, thRef, _ := watchdogSystem(t, 2000)
	ref.Run(200_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	s, _, nodeCfg := watchdogSystem(t, 2000)
	var cp *kernel.Checkpoint
	s.OnCycle = func(c uint64) {
		if c == 40 {
			var err error
			if cp, err = s.Nodes[0].K.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
		if c == 120 {
			s.Kill(0)
		}
	}
	s.Run(500_000)
	if !s.Hung() {
		t.Fatal("kill not detected")
	}
	if cp == nil {
		t.Fatal("checkpoint never taken")
	}
	s.OnCycle = nil
	k2, err := kernel.Restore(nodeCfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	s.Revive(0, k2)
	s.Run(500_000)
	if s.Hung() || !s.Done() {
		t.Fatalf("revived system did not finish (hung=%v)", s.Hung())
	}
	th2 := s.Nodes[0].K.M.Threads()[0]
	if th2.State != machine.Halted {
		t.Fatalf("revived thread: %v %v", th2.State, th2.Fault)
	}
	if th2.Instret != thRef.Instret {
		t.Fatalf("instret %d != reference %d", th2.Instret, thRef.Instret)
	}
	for r := 0; r < 16; r++ {
		if th2.Reg(r) != thRef.Reg(r) {
			t.Errorf("r%d: %v != reference %v", r, th2.Reg(r), thRef.Reg(r))
		}
	}
}

// TestRecoverReleasesLinks: auto-recovery restarts every node's clock
// at cycle 0, so it must release the links the old timeline reserved.
// Otherwise each restored node's first remote accesses wait until the
// cycle of the restore, the watchdog (2,000 cycles here) trips again,
// and the run spends every restore it has on the same checkpoint.
func TestRecoverReleasesLinks(t *testing.T) {
	x, _, _ := runCrossNode(t, crossNodeCase{name: "recover", trips: 400, killAt: 2500})
	if n := x.s.Restores(); n != 1 {
		t.Fatalf("%d restores after one kill, want 1", n)
	}
}

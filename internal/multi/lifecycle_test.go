package multi

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
)

// Node-lifecycle misuse must surface as typed errors, not silent
// success or an index panic.
func TestLifecycleMisuse(t *testing.T) {
	cases := []struct {
		name string
		op   func(s *System) error
		want error
	}{
		{"kill-negative", func(s *System) error { return s.Kill(-1) }, ErrNodeID},
		{"kill-past-end", func(s *System) error { return s.Kill(2) }, ErrNodeID},
		{"kill-huge", func(s *System) error { return s.Kill(1 << 20) }, ErrNodeID},
		{"double-kill", func(s *System) error {
			if err := s.Kill(1); err != nil {
				return err
			}
			return s.Kill(1)
		}, ErrNodeDead},
		{"stall-negative", func(s *System) error { return s.Stall(-1, 100) }, ErrNodeID},
		{"stall-past-end", func(s *System) error { return s.Stall(7, 100) }, ErrNodeID},
		{"stall-dead", func(s *System) error {
			if err := s.Kill(0); err != nil {
				return err
			}
			return s.Stall(0, 100)
		}, ErrNodeDead},
		{"revive-negative", func(s *System) error { return s.Revive(-1, nil) }, ErrNodeID},
		{"revive-past-end", func(s *System) error { return s.Revive(2, nil) }, ErrNodeID},
		{"revive-live", func(s *System) error { return s.Revive(0, nil) }, ErrNodeAlive},
		{"revive-twice", func(s *System) error {
			if err := s.Kill(1); err != nil {
				return err
			}
			if err := s.Revive(1, nil); err != nil {
				return err
			}
			return s.Revive(1, nil)
		}, ErrNodeAlive},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _, _ := watchdogSystem(t, 0)
			if err := c.op(s); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// The happy path still works and returns nil errors.
func TestLifecycleHappyPath(t *testing.T) {
	s, _, _ := watchdogSystem(t, 0)
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Revive(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stall(0, 100); err != nil {
		t.Fatal(err)
	}
}

// Auto-recovery closed loop: with periodic coordinated checkpoints and
// AutoRecover armed, a killed node is detected by the watchdog,
// every node is restored from the newest consistent generation, and the
// run completes with final architectural state equal to an
// uninterrupted reference — no caller intervention at all.
func TestAutoRecoverFromKilledNode(t *testing.T) {
	for _, victim := range []int{0, 1} {
		ref, thRef, _ := watchdogSystem(t, 2000)
		ref.Run(200_000)
		if thRef.State != machine.Halted {
			t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
		}

		s, _, _ := watchdogSystem(t, 2000)
		s.cfg.CheckpointEvery = 40
		s.cfg.AutoRecover = true
		s.OnCycle = func(c uint64) {
			if c == 100 {
				if err := s.Kill(victim); err != nil {
					t.Errorf("kill: %v", err)
				}
				s.OnCycle = nil
			}
		}
		s.Run(500_000)
		if s.Hung() {
			t.Fatalf("victim=%d: auto-recovery left the system hung", victim)
		}
		if !s.Done() {
			t.Fatalf("victim=%d: system did not finish", victim)
		}
		if s.Restores() == 0 {
			t.Fatalf("victim=%d: no restore performed", victim)
		}
		if s.Checkpoints() == 0 {
			t.Fatalf("victim=%d: no checkpoints captured", victim)
		}
		th := s.Nodes[0].K.M.Threads()[0]
		if th.State != machine.Halted {
			t.Fatalf("victim=%d: recovered thread %v %v", victim, th.State, th.Fault)
		}
		if th.Instret != thRef.Instret {
			t.Fatalf("victim=%d: instret %d != reference %d", victim, th.Instret, thRef.Instret)
		}
		for r := 0; r < 16; r++ {
			if th.Reg(r) != thRef.Reg(r) {
				t.Errorf("victim=%d r%d: %v != %v", victim, r, th.Reg(r), thRef.Reg(r))
			}
		}
	}
}

// The restore budget bounds livelock: a node killed over and over
// eventually surfaces as Hung instead of cycling through the same
// checkpoint forever.
func TestAutoRecoverBudgetBounds(t *testing.T) {
	s, _, _ := watchdogSystem(t, 1000)
	s.cfg.CheckpointEvery = 40
	s.cfg.AutoRecover = true
	s.cfg.MaxRestores = 2
	s.OnCycle = func(c uint64) {
		// Re-kill node 1 forever: no recovery can stick.
		if !s.dead[1] && c > 100 {
			if err := s.Kill(1); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	}
	s.Run(500_000)
	if !s.Hung() {
		t.Fatal("persistent failure never surfaced as Hung")
	}
	if got := s.Restores(); got != 2 {
		t.Fatalf("Restores = %d, want exactly the budget of 2", got)
	}
}

// CheckpointNow seeds generation zero before any periodic boundary, so
// a fault in the first interval is still recoverable.
func TestCheckpointNowSeedsRing(t *testing.T) {
	s, _, _ := watchdogSystem(t, 2000)
	s.cfg.AutoRecover = true // no CheckpointEvery: only the manual seed
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if s.Checkpoints() != 1 {
		t.Fatalf("Checkpoints = %d, want 1", s.Checkpoints())
	}
	s.OnCycle = func(c uint64) {
		if c == 100 {
			if err := s.Kill(1); err != nil {
				t.Errorf("kill: %v", err)
			}
			s.OnCycle = nil
		}
	}
	s.Run(500_000)
	if s.Hung() || !s.Done() {
		t.Fatalf("recovery from the seeded generation failed (hung=%v)", s.Hung())
	}
	if s.Restores() != 1 {
		t.Fatalf("Restores = %d, want 1", s.Restores())
	}
	// A dead node blocks a consistent capture.
	if err := s.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("CheckpointNow with dead node: %v, want ErrNodeDead", err)
	}
}

// A generation with one image that fails to restore is refused whole:
// recoverAll rebuilds every kernel before installing any, so no node is
// rewound to a cut the others never return to.
func TestRecoverAllIsAllOrNothing(t *testing.T) {
	s, _, _ := watchdogSystem(t, 2000)
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	before := []*kernel.Kernel{s.Nodes[0].K, s.Nodes[1].K}
	cycles := s.Nodes[0].K.M.Cycle()
	// Node 1's image now names a frame past the end of its memory.
	bad := *s.ckpts[len(s.ckpts)-1].cps[1]
	bad.Resident = append([]kernel.PageImage(nil), bad.Resident...)
	bad.Resident[0].Frame = s.cfg.Node.PhysBytes
	s.ckpts[len(s.ckpts)-1].cps[1] = &bad

	if s.recoverAll() {
		t.Fatal("recoverAll succeeded with an unrestorable image")
	}
	if s.Restores() != 0 {
		t.Errorf("Restores = %d, want 0", s.Restores())
	}
	for i, k := range before {
		if s.Nodes[i].K != k {
			t.Errorf("node %d was swapped to a checkpointed kernel", i)
		}
	}
	if got := s.Nodes[0].K.M.Cycle(); got != cycles {
		t.Errorf("node 0 at cycle %d after the failed recovery, want %d", got, cycles)
	}
}

package multi

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/noc"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// fastLink keeps pre-copy transfers to a few dozen stepped cycles so
// the workload is still live at cutover.
func fastLink() migrate.LinkConfig {
	return migrate.LinkConfig{LatencyCycles: 4, BytesPerCycle: 1024, RetransmitTimeout: 16}
}

// migrateSystem boots a 2-node mesh whose node-0 thread hammers node
// 1's segment remotely — the migrating node holds live cross-node
// state, the hardest case for a role swap.
func migrateSystem(t *testing.T, mut func(*Config)) (*System, *machine.Thread) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	far, err := s.Nodes[1].K.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Nodes[0].K.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble(`
		ldi r3, 120
	loop:
		ld   r2, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
		st   r6, 0, r5
		ld   r7, r6, 0
		add  r5, r5, r7
		subi r3, r3, 1
		bnez r3, loop
		halt
	`)
	ip, err := s.Nodes[0].K.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.Nodes[0].K.Spawn(1, ip, map[int]word.Word{1: far.Word(), 6: local.Word()})
	if err != nil {
		t.Fatal(err)
	}
	return s, th
}

// migrateOutcome is the timing-excluded architectural outcome of a
// finished run: every thread's state, retired instructions and
// registers, read through whatever kernel each node currently holds —
// the migrated node's kernel is a different object after the swap, so
// pre-swap thread handles are stale.
func migrateOutcome(t *testing.T, s *System) string {
	t.Helper()
	var out string
	for id, n := range s.Nodes {
		for _, th := range n.K.M.Threads() {
			if th.State != machine.Halted {
				t.Fatalf("node %d thread did not halt: %v fault=%v", id, th.State, th.Fault)
			}
			out += fmt.Sprintf("node%d: instret=%d regs=%v\n", id, th.Instret, th.Regs)
		}
	}
	return out
}

// fullFingerprint is the EXACT run fingerprint — cycles and stats
// included — for the abort-invariance gate, where the aborted run must
// be bit-identical to the never-migrated one.
func fullFingerprint(t *testing.T, s *System, cycles uint64) string {
	t.Helper()
	fp := fmt.Sprintf("cycles=%d syscycle=%d stats=%+v net=%+v\n", cycles, s.cycle, s.Stats(), s.Net.Stats())
	fp += migrateOutcome(t, s)
	for _, n := range s.Nodes {
		st := n.K.M.Stats()
		fp += fmt.Sprintf("node: %+v\n", st)
	}
	return fp
}

// readStoreBytes snapshots every file in a persist dir.
func readStoreBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestMigrateSwapsNodeAndPreservesOutcome: a migration armed mid-run
// commits, swaps node 0's kernel, and the run completes with the
// never-migrated architectural outcome.
func TestMigrateSwapsNodeAndPreservesOutcome(t *testing.T) {
	ref, _ := migrateSystem(t, nil)
	ref.Run(300_000)
	want := migrateOutcome(t, ref)

	s, _ := migrateSystem(t, func(c *Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: fastLink()}
	})
	before := s.Nodes[0].K
	s.Run(300_000)
	rep := s.MigrateReport()
	if rep == nil || !rep.Committed {
		t.Fatalf("migration did not commit: %+v", rep)
	}
	if s.Nodes[0].K == before {
		t.Fatal("kernel not swapped")
	}
	if len(rep.Rounds) < 2 {
		t.Fatalf("no iterative pre-copy: %d rounds", len(rep.Rounds))
	}
	if got := migrateOutcome(t, s); got != want {
		t.Errorf("outcome diverged after migration:\n got %s\nwant %s", got, want)
	}
	if s.migrateMetrics.Committed != 1 || s.migrateMetrics.STW.Count() != 1 {
		t.Fatalf("metrics not recorded: %+v", s.migrateMetrics)
	}
}

// TestMigrateAbortInvarianceSystem aborts the armed migration at every
// round boundary and mid-cutover; each aborted run must be
// bit-identical — cycles, stats, registers, memory, AND the on-disk
// persist store — to a run that never migrated.
func TestMigrateAbortInvarianceSystem(t *testing.T) {
	// Reference: never migrated, persist armed.
	refDir := t.TempDir()
	ref, _ := migrateSystem(t, func(c *Config) {
		c.CheckpointEvery = 150
		c.PersistDir = refDir
	})
	refCycles := ref.Run(300_000)
	want := fullFingerprint(t, ref, refCycles)
	wantStore := readStoreBytes(t, refDir)

	// Probe: how many rounds does a committed migration take here?
	probe, _ := migrateSystem(t, func(c *Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: fastLink()}
	})
	probe.Run(300_000)
	probeRep := probe.MigrateReport()
	if probeRep == nil || !probeRep.Committed {
		t.Fatalf("probe migration failed: %+v", probeRep)
	}

	abortCfgs := map[string]migrate.Config{}
	for r := 1; r <= len(probeRep.Rounds); r++ {
		abortCfgs[fmt.Sprintf("round-%d", r)] = migrate.Config{Link: fastLink(), AbortAtRound: r}
	}
	abortCfgs["mid-cutover"] = migrate.Config{Link: fastLink(), AbortAtCutover: true}

	for name, mcfg := range abortCfgs {
		dir := t.TempDir()
		s, _ := migrateSystem(t, func(c *Config) {
			c.CheckpointEvery = 150
			c.PersistDir = dir
			c.MigrateAt = 200
			c.MigrateNode = 0
			c.Migrate = mcfg
		})
		cycles := s.Run(300_000)
		rep := s.MigrateReport()
		if rep == nil || rep.Committed {
			t.Fatalf("%s: expected aborted migration, got %+v", name, rep)
		}
		if got := fullFingerprint(t, s, cycles); got != want {
			t.Errorf("%s: aborted run diverged from never-migrated run:\n got %s\nwant %s", name, got, want)
		}
		gotStore := readStoreBytes(t, dir)
		if len(gotStore) != len(wantStore) {
			t.Fatalf("%s: store shape differs: %d files vs %d", name, len(gotStore), len(wantStore))
		}
		for f, b := range wantStore {
			if gotStore[f] != b {
				t.Errorf("%s: store file %s differs after aborted migration", name, f)
			}
		}
	}
}

// TestMigrateRunReturnsCyclesRun: Run reports the cycles it stepped,
// not the wire time an armed migration asked for. On a 1 B/cycle link
// the pre-copy rounds ask for more cycles than the workload has left,
// and the step hook stops once every thread is done. A round cannot
// pause, so a small budget runs past its cap.
func TestMigrateRunReturnsCyclesRun(t *testing.T) {
	for _, budget := range []uint64{1_000_000, 200} {
		s, _ := migrateSystem(t, func(c *Config) {
			c.MigrateAt = 50
			c.Migrate = migrate.Config{Link: migrate.LinkConfig{BytesPerCycle: 1}}
		})
		got := s.Run(budget)
		rep := s.MigrateReport()
		if rep == nil || !s.Done() {
			t.Fatalf("Run(%d): migration report %+v, done=%v", budget, rep, s.Done())
		}
		if rep.SteppedCycles <= s.Cycle() {
			t.Fatalf("Run(%d): pre-copy asked for %d cycles, no more than the %d run, so the case tests nothing",
				budget, rep.SteppedCycles, s.Cycle())
		}
		if got != s.Cycle() {
			t.Errorf("Run(%d) returned %d, but the system ran %d cycles", budget, got, s.Cycle())
		}
		if budget == 200 && s.Cycle() <= budget {
			t.Errorf("Run(200) stopped at cycle %d: pre-copy no longer steps past the budget", s.Cycle())
		}
	}
}

// TestMigrateSourceKilledMidRoundAborts: killing the source during
// pre-copy aborts the migration instead of committing a stale image.
func TestMigrateSourceKilledMidRoundAborts(t *testing.T) {
	s, _ := migrateSystem(t, func(c *Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: fastLink()}
		c.WatchdogCycles = 2000
	})
	killed := false
	s.OnCycle = func(cycle uint64) {
		// Fires inside the migration's step hook (pre-copy overlaps
		// execution), so the kill lands mid-round.
		if cycle > 210 && !killed {
			killed = true
			if err := s.Kill(0); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	}
	s.Run(300_000)
	rep := s.MigrateReport()
	if rep == nil {
		t.Fatal("migration never ran")
	}
	if rep.Committed {
		t.Fatalf("migration committed after source death: %+v", rep)
	}
	if rep.Reason != "source-failed" {
		t.Fatalf("reason = %q", rep.Reason)
	}
}

// TestMigrateLossyWireCommits: the armed migration rides a wire that
// loses every fifth frame and still commits via retransmission.
func TestMigrateLossyWireCommits(t *testing.T) {
	ref, _ := migrateSystem(t, nil)
	ref.Run(300_000)
	want := migrateOutcome(t, ref)

	s, _ := migrateSystem(t, func(c *Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: fastLink()}
	})
	s.OnMigrate = func(link *migrate.Link, recv *migrate.Receiver) {
		link.Intercept = func(f *migrate.Frame, attempt int) migrate.Fate {
			return migrate.Fate{Drop: attempt == 0 && f.Seq%5 == 0}
		}
	}
	s.Run(300_000)
	rep := s.MigrateReport()
	if rep == nil || !rep.Committed {
		t.Fatalf("lossy wire did not commit: %+v", rep)
	}
	if rep.Link.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if got := migrateOutcome(t, s); got != want {
		t.Errorf("lossy migration diverged:\n got %s\nwant %s", got, want)
	}
}

// TestMigrateMetricsRegistered: arming a migration publishes migrate.*
// counters and the STW histogram in the registry.
func TestMigrateMetricsRegistered(t *testing.T) {
	s, _ := migrateSystem(t, func(c *Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: fastLink()}
	})
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	s.Run(300_000)
	snap := reg.Snapshot()
	if snap.Get("migrate.committed") != 1 {
		t.Fatalf("migrate.committed = %v", snap.Get("migrate.committed"))
	}
	if snap.Get("migrate.rounds") < 2 {
		t.Fatalf("migrate.rounds = %v", snap.Get("migrate.rounds"))
	}
	hists := reg.Histograms()
	h, ok := hists["migrate.stw_window"]
	if !ok || h.Count() != 1 {
		t.Fatalf("stw histogram missing or empty: %v", hists)
	}
}

package multi

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// persistSystem is watchdogSystem with a durable checkpoint store: the
// config must carry PersistDir before New, since New opens the store.
func persistSystem(t *testing.T, mut func(*Config)) (*System, *machine.Thread) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 1
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
	prog := mustAssemble(`
		ldi r3, 50
	loop:
		ld   r2, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
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
	return s, th
}

// TestPersistWritesIncrementalGenerations: periodic barriers write a
// base followed by deltas, re-basing every PersistBaseEvery, and the
// deltas are materially smaller than the bases.
func TestPersistWritesIncrementalGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = dir
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 40
		cfg.CheckpointKeep = 100 // keep everything for inspection
	})
	s.Run(200_000)
	if !s.Done() {
		t.Fatal("workload did not finish")
	}
	descs, err := s.Store().Describe()
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) < 6 {
		t.Fatalf("only %d generations on disk", len(descs))
	}
	if uint64(len(descs)) != s.Checkpoints() {
		t.Fatalf("%d generations vs %d checkpoints counted", len(descs), s.Checkpoints())
	}
	var baseBytes, deltaBytes, deltas uint64
	for i, d := range descs {
		if d.Gen != uint64(i+1) {
			t.Fatalf("generation numbering: %+v at index %d", d, i)
		}
		wantBase := i%3 == 0
		if d.Delta == wantBase {
			t.Errorf("generation %d: delta=%v, want base=%v", d.Gen, d.Delta, wantBase)
		}
		if d.Delta {
			deltaBytes += d.Bytes
			deltas++
		} else if baseBytes == 0 {
			baseBytes = d.Bytes
		}
	}
	// The workload only spans a handful of pages, so the honest claim is
	// strictly-smaller, not an order of magnitude (E28 measures the big
	// ratio on a wide footprint).
	if deltas == 0 || deltaBytes/deltas >= baseBytes {
		t.Errorf("mean delta %d bytes vs base %d bytes — not incremental",
			deltaBytes/deltas, baseBytes)
	}
	st := s.Store().Stats()
	if st.Captures != s.Checkpoints() || st.BytesWritten == 0 {
		t.Errorf("store stats %+v", st)
	}
	// Every generation — base or delta — materializes and loads.
	for _, d := range descs {
		if _, _, err := s.Store().LoadGeneration(d.Gen); err != nil {
			t.Errorf("generation %d unloadable: %v", d.Gen, err)
		}
	}
}

// TestPersistAutoRecoverFromDisk is the durable twin of
// TestAutoRecoverFromKilledNode: the restore source is the on-disk
// store, and the final state still matches an uninterrupted reference.
func TestPersistAutoRecoverFromDisk(t *testing.T) {
	ref, thRef := persistSystem(t, nil)
	ref.Run(200_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = t.TempDir()
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 40
		cfg.WatchdogCycles = 2000
		cfg.AutoRecover = true
	})
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
		t.Fatalf("disk recovery failed (hung=%v done=%v)", s.Hung(), s.Done())
	}
	if s.Restores() == 0 || s.Store().Stats().Restores == 0 {
		t.Fatal("no restore performed through the store")
	}
	th := s.Nodes[0].K.M.Threads()[0]
	for r := 0; r < 16; r++ {
		if th.Reg(r) != thRef.Reg(r) {
			t.Errorf("r%d: %v != reference %v", r, th.Reg(r), thRef.Reg(r))
		}
	}
}

// TestPersistRecoveryFallsBackPastDamage: recovery with a bit-rotted
// newest generation restores from an older intact one instead of
// failing.
func TestPersistRecoveryFallsBackPastDamage(t *testing.T) {
	dir := t.TempDir()
	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = dir
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 40
		cfg.CheckpointKeep = 100
		cfg.WatchdogCycles = 2000
		cfg.AutoRecover = true
	})
	var killed bool
	s.OnCycle = func(c uint64) {
		if c == 250 && !killed {
			killed = true
			// Damage the newest generation's node-0 image on disk, then
			// kill a node: the watchdog's restore must fall back.
			gen, err := s.Store().MaxGen()
			if err != nil || gen < 2 {
				t.Errorf("MaxGen = %d, %v — need ≥ 2 generations by cycle 250", gen, err)
				return
			}
			path := filepath.Join(dir, fmt.Sprintf("gen%08d-node%02d.ckpt", gen, 0))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("read image: %v", err)
				return
			}
			data[len(data)/3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Errorf("write image: %v", err)
				return
			}
			if err := s.Kill(1); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	}
	s.Run(500_000)
	if s.Hung() || !s.Done() {
		t.Fatalf("fallback recovery failed (hung=%v done=%v)", s.Hung(), s.Done())
	}
	st := s.Store().Stats()
	if st.Fallbacks == 0 || st.CorruptDetected == 0 {
		t.Fatalf("store stats %+v: damage was not detected and skipped", st)
	}
	th := s.Nodes[0].K.M.Threads()[0]
	if th.State != machine.Halted {
		t.Fatalf("recovered thread %v %v", th.State, th.Fault)
	}
}

// TestPersistPruneRetainsChains: CheckpointKeep prunes the store each
// barrier, but a delta generation inside the window pins its base
// outside it — everything still on disk must load.
func TestPersistPruneRetainsChains(t *testing.T) {
	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = t.TempDir()
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 40
		cfg.CheckpointKeep = 2
	})
	s.Run(200_000)
	if s.Checkpoints() < 6 {
		t.Fatalf("only %d generations captured", s.Checkpoints())
	}
	gens, err := s.Store().Generations()
	if err != nil {
		t.Fatal(err)
	}
	// At most the 2 retained plus one pinned base.
	if len(gens) == 0 || len(gens) > 3 {
		t.Fatalf("after pruning: %v generations on disk", gens)
	}
	newest := gens[len(gens)-1]
	if newest != s.Checkpoints() {
		t.Fatalf("newest on disk is %d, captured %d", newest, s.Checkpoints())
	}
	for _, g := range gens {
		if _, _, err := s.Store().LoadGeneration(g); err != nil {
			t.Errorf("retained generation %d unloadable: %v", g, err)
		}
	}
	if _, _, _, err := s.Store().LoadNewestIntact(); err != nil {
		t.Errorf("newest intact: %v", err)
	}
}

// TestPersistDeadNodeWindowSkipsCapture: while any node is dead the
// barrier writes nothing (the set would be inconsistent); capture
// resumes after Revive and the chain stays restorable.
func TestPersistDeadNodeWindowSkipsCapture(t *testing.T) {
	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = t.TempDir()
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 20
		cfg.CheckpointKeep = 100
	})
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // five barriers with a dead node
		s.Step()
	}
	if s.Checkpoints() != 0 {
		t.Fatalf("%d generations captured across a dead-node window", s.Checkpoints())
	}
	if gens, _ := s.Store().Generations(); len(gens) != 0 {
		t.Fatalf("generations on disk during dead window: %v", gens)
	}
	if err := s.Revive(1, nil); err != nil {
		t.Fatal(err)
	}
	// The issuing thread may be parked on the access the dead node ate;
	// capture resumption doesn't need it — just cross more barriers.
	for i := 0; i < 200; i++ {
		s.Step()
	}
	if s.Checkpoints() == 0 {
		t.Fatal("capture did not resume after revive")
	}
	cps, _, _, err := s.Store().LoadNewestIntact()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 {
		t.Fatalf("restored %d node images, want 2", len(cps))
	}
}

// TestPersistSurvivesReboot: a second System opened on the same
// directory resumes generation numbering, and — the crash-safety
// story — can auto-recover state written by the first boot before
// capturing anything itself.
func TestPersistSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	ref, thRef := persistSystem(t, nil)
	ref.Run(200_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	s1, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = dir
		cfg.PersistBaseEvery = 3
		cfg.CheckpointEvery = 40
		cfg.CheckpointKeep = 100
	})
	for i := 0; i < 200; i++ {
		s1.Step()
	}
	first := s1.Checkpoints()
	if first == 0 {
		t.Fatal("first boot captured nothing")
	}

	// "Reboot": a fresh system on the same directory. Its workload is
	// never started — recovery must come entirely from disk.
	s2, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = dir
		cfg.PersistBaseEvery = 3
		cfg.WatchdogCycles = 500
		cfg.AutoRecover = true
	})
	// Numbering resumes: the next generation extends the old line.
	if err := s2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	gens, err := s2.Store().Generations()
	if err != nil {
		t.Fatal(err)
	}
	if gens[len(gens)-1] != first+1 {
		t.Fatalf("reboot wrote generation %d, want %d", gens[len(gens)-1], first+1)
	}

	// Recover the FIRST boot's machine state on the second boot: kill
	// the fresh workload's home node; the watchdog restores from disk.
	s3, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = dir
		cfg.WatchdogCycles = 500
		cfg.AutoRecover = true
	})
	if err := s3.Kill(1); err != nil {
		t.Fatal(err)
	}
	s3.Run(500_000)
	if s3.Hung() || !s3.Done() {
		t.Fatalf("cross-boot recovery failed (hung=%v done=%v)", s3.Hung(), s3.Done())
	}
	th := s3.Nodes[0].K.M.Threads()[0]
	if th.State != machine.Halted {
		t.Fatalf("cross-boot thread %v %v", th.State, th.Fault)
	}
	for r := 0; r < 16; r++ {
		if th.Reg(r) != thRef.Reg(r) {
			t.Errorf("cross-boot r%d: %v != reference %v", r, th.Reg(r), thRef.Reg(r))
		}
	}
}

// TestPersistMetricsPublished: the persist.* namespace appears in the
// registry when (and only when) a store is attached.
func TestPersistMetricsPublished(t *testing.T) {
	s, _ := persistSystem(t, func(cfg *Config) {
		cfg.PersistDir = t.TempDir()
		cfg.CheckpointEvery = 40
	})
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	s.Run(200_000)
	snap := reg.Snapshot()
	if snap["persist.captures"] == 0 || snap["persist.bytes_written"] == 0 {
		t.Fatalf("persist counters missing or zero: captures=%v bytes=%v",
			snap["persist.captures"], snap["persist.bytes_written"])
	}

	plain, _ := persistSystem(t, nil)
	reg2 := telemetry.NewRegistry()
	plain.RegisterMetrics(reg2)
	if _, ok := reg2.Snapshot()["persist.captures"]; ok {
		t.Fatal("persist namespace registered without a store")
	}
}

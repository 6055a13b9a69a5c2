package migrate

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/word"
)

// testWorkload boots a store-heavy loop (the E28 chain workload's
// shape) that keeps dirtying its data segment, so pre-copy rounds have
// real deltas to converge on.
func testWorkload(t testing.TB) (*kernel.Kernel, machine.Config) {
	t.Helper()
	prog, err := asm.Assemble(`
		ldi r2, 400
		ldi r4, 0
	loop:
		ld   r5, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
		add  r4, r4, r5
		st   r1, 8, r4
		leai r6, r1, 16
		st   r6, 0, r6
		subi r2, r2, 1
		bnez r2, loop
		halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	k, err := kernel.New(cfg)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if _, err := k.Spawn(3, ip, map[int]word.Word{1: seg.Word()}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	return k, cfg
}

// fast wire so pre-copy rounds step the source only a few dozen cycles.
func testLinkCfg() LinkConfig {
	return LinkConfig{LatencyCycles: 4, BytesPerCycle: 1024, RetransmitTimeout: 16}
}

const testWarmup = 200

// referenceFP runs the workload uninterrupted to completion.
func referenceFP(t *testing.T) uint64 {
	t.Helper()
	k, _ := testWorkload(t)
	k.Run(10_000_000)
	if !k.M.Done() {
		t.Fatal("reference run did not finish")
	}
	return machine.FingerprintThreads(k.M.Threads())
}

// TestMigrateCommit is the tentpole differential: a node migrated
// mid-run onto a standby completes on the standby with the
// architectural fingerprint of the run that never migrated.
func TestMigrateCommit(t *testing.T) {
	refFP := referenceFP(t)

	k, cfg := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	link := NewLink(testLinkCfg())
	link.Deliver = recv.Deliver
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg()})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !rep.Committed || rep.Image == nil {
		t.Fatalf("not committed: %+v", rep)
	}
	if len(rep.Rounds) < 2 {
		t.Fatalf("expected iterative pre-copy, got %d rounds", len(rep.Rounds))
	}
	// Deltas must shrink: the final round is smaller than the base.
	if rep.Rounds[len(rep.Rounds)-1].Pages >= rep.Rounds[0].Pages {
		t.Fatalf("delta did not shrink: %+v", rep.Rounds)
	}
	if rep.STWCycles == 0 || rep.STWCycles >= rep.Rounds[0].WireCycles {
		t.Fatalf("STW window %d vs base transfer %d", rep.STWCycles, rep.Rounds[0].WireCycles)
	}

	k2, err := kernel.Restore(cfg, rep.Image)
	if err != nil {
		t.Fatalf("restore on standby: %v", err)
	}
	k2.Run(10_000_000)
	if !k2.M.Done() {
		t.Fatal("standby run did not finish")
	}
	if got := machine.FingerprintThreads(k2.M.Threads()); got != refFP {
		t.Fatalf("standby fingerprint %016x != reference %016x", got, refFP)
	}
}

// TestMigrateAbortInvariance aborts at every round boundary and
// mid-cutover; after each abort the source must be architecturally
// identical to a twin that never migrated but executed the same
// schedule, and must still complete with the reference fingerprint.
func TestMigrateAbortInvariance(t *testing.T) {
	refFP := referenceFP(t)

	// Learn how many rounds a clean migration of this workload takes, so
	// the abort sweep covers every boundary that actually occurs.
	probe, _ := testWorkload(t)
	probe.Run(testWarmup)
	probeRecv := NewReceiver()
	probeLink := NewLink(testLinkCfg())
	probeLink.Deliver = probeRecv.Deliver
	probeRep, err := Run(probe, probeLink, probeRecv, func(n uint64) { probe.Run(n) }, Config{Link: testLinkCfg()})
	if err != nil || !probeRep.Committed {
		t.Fatalf("probe migration failed: %v %+v", err, probeRep)
	}

	for round := 1; round <= len(probeRep.Rounds); round++ {
		k, _ := testWorkload(t)
		k.Run(testWarmup)
		recv := NewReceiver()
		link := NewLink(testLinkCfg())
		link.Deliver = recv.Deliver
		rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg(), AbortAtRound: round})
		if err != nil {
			t.Fatalf("round %d: abort returned error: %v", round, err)
		}
		if rep.Committed {
			t.Fatalf("round %d: committed despite abort", round)
		}
		if !recv.Aborted() {
			t.Fatalf("round %d: standby not torn down", round)
		}
		if _, ok := recv.Committed(); ok {
			t.Fatalf("round %d: standby holds an image after abort", round)
		}

		// Twin: same schedule, no migration.
		twin, _ := testWorkload(t)
		twin.Run(testWarmup + rep.SteppedCycles)
		cpK, err := k.Checkpoint()
		if err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		cpT, err := twin.Checkpoint()
		if err != nil {
			t.Fatalf("round %d: twin checkpoint: %v", round, err)
		}
		if FingerprintImage(cpK) != FingerprintImage(cpT) {
			t.Fatalf("round %d: aborted source diverged from never-migrated twin", round)
		}
		k.Run(10_000_000)
		if !k.M.Done() || machine.FingerprintThreads(k.M.Threads()) != refFP {
			t.Fatalf("round %d: aborted source did not complete with reference fingerprint", round)
		}
	}

	// Mid-cutover abort: final delta and fingerprint already on the
	// standby, commit withheld.
	k, _ := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	link := NewLink(testLinkCfg())
	link.Deliver = recv.Deliver
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg(), AbortAtCutover: true})
	if err != nil {
		t.Fatalf("cutover abort returned error: %v", err)
	}
	if rep.Committed || !recv.Aborted() {
		t.Fatalf("cutover abort: committed=%v standbyAborted=%v", rep.Committed, recv.Aborted())
	}
	k.Run(10_000_000)
	if !k.M.Done() || machine.FingerprintThreads(k.M.Threads()) != refFP {
		t.Fatal("mid-cutover abort: source did not complete with reference fingerprint")
	}
}

// TestMigrateLossyLinkRecovers commits through a wire that drops,
// corrupts, truncates and duplicates frames — recovery is retransmit,
// never restart.
func TestMigrateLossyLinkRecovers(t *testing.T) {
	refFP := referenceFP(t)

	k, cfg := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	link := NewLink(testLinkCfg())
	link.Deliver = recv.Deliver
	link.Intercept = func(f *Frame, attempt int) Fate {
		if attempt > 0 {
			return Fate{} // retry always clean: loss is transient
		}
		switch f.Seq % 5 {
		case 0:
			return Fate{Drop: true}
		case 1:
			return Fate{Corrupt: true}
		case 2:
			return Fate{Truncate: true}
		case 3:
			return Fate{Duplicate: true}
		}
		return Fate{}
	}
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg()})
	if err != nil {
		t.Fatalf("migrate over lossy link: %v", err)
	}
	if !rep.Committed {
		t.Fatalf("lossy link did not commit: %s", rep.Reason)
	}
	if rep.Link.Retransmits == 0 || rep.Link.CorruptDetected == 0 || rep.Link.DupSuppressed == 0 {
		t.Fatalf("loss not exercised: %+v", rep.Link)
	}
	k2, err := kernel.Restore(cfg, rep.Image)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	k2.Run(10_000_000)
	if !k2.M.Done() || machine.FingerprintThreads(k2.M.Threads()) != refFP {
		t.Fatal("lossy-link migration diverged")
	}
}

// TestMigrateStandbyCrashAborts: a dead standby fails the transfer;
// the migration aborts and the source is unharmed.
func TestMigrateStandbyCrashAborts(t *testing.T) {
	refFP := referenceFP(t)

	k, _ := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	recv.Crashed = true
	link := NewLink(testLinkCfg())
	link.Deliver = recv.Deliver
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg()})
	if err == nil || rep.Committed {
		t.Fatalf("crashed standby committed: %+v", rep)
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("want LinkError, got %v", err)
	}
	k.Run(10_000_000)
	if !k.M.Done() || machine.FingerprintThreads(k.M.Threads()) != refFP {
		t.Fatal("source damaged by standby crash")
	}
}

// TestMigrateUnreachableStandbyAborts: every frame lost; retries
// exhaust, the link gives up, the migration aborts.
func TestMigrateUnreachableStandbyAborts(t *testing.T) {
	k, _ := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	link := NewLink(LinkConfig{LatencyCycles: 4, BytesPerCycle: 1024, RetransmitTimeout: 8, MaxRetries: 2})
	link.Deliver = recv.Deliver
	link.Intercept = func(f *Frame, attempt int) Fate { return Fate{Drop: true} }
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{})
	if err == nil || rep.Committed {
		t.Fatalf("unreachable standby committed: %+v", rep)
	}
	if link.Stats().GaveUp == 0 {
		t.Fatal("link never gave up")
	}
}

// TestMigrateFingerprintMismatchAborts: a standby whose materialized
// image differs from the source's refuses the commit.
func TestMigrateFingerprintMismatchAborts(t *testing.T) {
	k, _ := testWorkload(t)
	k.Run(testWarmup)
	recv := NewReceiver()
	link := NewLink(testLinkCfg())
	link.Deliver = func(f *Frame) error {
		if err := recv.Deliver(f); err != nil {
			return err
		}
		// Corrupt the standby's copy of the base image after it passed
		// every wire check — only the cutover fingerprint can catch this.
		// Its pages are shared, so the corruption swaps in a modified
		// copy of one.
		if f.Kind == FrameImage && len(recv.chain) == 1 && len(recv.chain[0].Resident) > 0 {
			img := &recv.chain[0].Resident[0]
			m := mem.New(vm.PageSize)
			if err := m.Adopt(0, img.Page); err != nil {
				return err
			}
			w := img.Page.Word(0)
			w.Bits ^= 1
			if err := m.WriteWord(0, w); err != nil {
				return err
			}
			pg, err := m.Snapshot(0)
			if err != nil {
				return err
			}
			img.Page = pg
		}
		return nil
	}
	rep, err := Run(k, link, recv, func(n uint64) { k.Run(n) }, Config{Link: testLinkCfg()})
	if err == nil || rep.Committed {
		t.Fatalf("fingerprint mismatch committed: %+v", rep)
	}
	var me *MigrateError
	if !errors.As(err, &me) || !me.CorruptionDetected() {
		t.Fatalf("want MigrateError, got %v", err)
	}
	if _, ok := recv.Committed(); ok {
		t.Fatal("standby kept the corrupt image")
	}
}

// TestMetricsAggregation: committed and aborted attempts land in the
// right counters and the STW histogram.
func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	m.Note(&Report{Committed: true, STWCycles: 100, Rounds: []Round{{Pages: 10, Bytes: 500}, {Pages: 2, Bytes: 80}}})
	m.Note(&Report{Committed: false, Rounds: []Round{{Pages: 10, Bytes: 500}}})
	if m.Started != 2 || m.Committed != 1 || m.Aborted != 1 {
		t.Fatalf("counters: %+v", m)
	}
	if m.Rounds != 3 || m.PagesSent != 22 || m.BytesSent != 1080 {
		t.Fatalf("volume: %+v", m)
	}
	if m.STW.Count() != 1 || m.STW.Max() != 100 {
		t.Fatalf("stw histogram: count %d max %d", m.STW.Count(), m.STW.Max())
	}
}

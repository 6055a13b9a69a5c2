package faultinject

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/multi"
	"repro/internal/noc"
	"repro/internal/word"
)

// The migration fault campaign: a 2-node mesh whose node-0 thread
// holds live cross-node state (remote loads and stores against node
// 1's segment) while a live migration of node 0 is armed mid-run. Each
// class attacks a different stage of the migration — wire frames
// during pre-copy, the source, the standby, the cutover barrier — and
// the gate is uniform: the run must finish with the never-migrated
// architectural fingerprint. Lossy-wire classes must additionally
// commit (recovering by retransmission, not by restarting the
// migration); source/standby/cutover classes must abort with the
// source untouched.
const (
	migrateWatchdog  = 6000
	migrateCkptEvery = 150
	// migrateCampaignAt arms the migration at a fixed cycle so the
	// clean probe's frame count and stepped window hold for every
	// trial; the per-trial randomness lives in the fault placement.
	migrateCampaignAt = 200
	// srcKillWindow bounds how far after the arming cycle the source
	// kill lands. The campaign wire needs >srcKillWindow cycles to
	// carry the base image, so the kill always lands mid-round-1.
	srcKillWindow = 256
)

// migrateCampaignLink is the campaign wire: slow enough that pre-copy
// genuinely overlaps execution (the source steps ~1k cycles per round)
// and the source-kill window always falls inside a round.
func migrateCampaignLink() migrate.LinkConfig {
	return migrate.LinkConfig{LatencyCycles: 16, BytesPerCycle: 8, RetransmitTimeout: 64}
}

// migrateClean is the fixture: the uninjected run's outcome plus the
// shape of an unfaulted committed migration, which the fault classes
// use to place their damage.
type migrateClean struct {
	cycles uint64 // clean full-run cycle count, no migration armed
	fp     uint64 // timing-excluded architectural fingerprint
	frames uint64 // frames a committed migration sends on the campaign wire
	rounds int    // pre-copy rounds that migration took
}

var migrateSrc = `
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
`

// buildMigrateMesh boots the migration-campaign multicomputer with the
// tolerance stack armed (checkpoint ring + watchdog auto-recovery, so
// a killed source is survivable) and a generation banked at cycle 0.
func buildMigrateMesh(mut func(*multi.Config)) (*multi.System, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	cfg.WatchdogCycles = migrateWatchdog
	cfg.CheckpointEvery = migrateCkptEvery
	cfg.CheckpointKeep = tolCkptKeep
	cfg.AutoRecover = true
	cfg.MaxRestores = tolMaxRestores
	if mut != nil {
		mut(&cfg)
	}
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	s.EnableFlight(flightRingSize)
	far, err := s.Nodes[1].K.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	local, err := s.Nodes[0].K.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(migrateSrc)
	if err != nil {
		return nil, err
	}
	ip, err := s.Nodes[0].K.LoadProgram(prog, false)
	if err != nil {
		return nil, err
	}
	if _, err := s.Nodes[0].K.Spawn(1, ip, map[int]word.Word{1: far.Word(), 6: local.Word()}); err != nil {
		return nil, err
	}
	if err := s.CheckpointNow(); err != nil {
		return nil, err
	}
	return s, nil
}

// prepareMigrateFixture runs the workload clean (no migration) for the
// reference fingerprint, then runs one unfaulted armed migration to
// learn the committed transfer's frame count and round shape.
func prepareMigrateFixture() (*migrateClean, error) {
	s, err := buildMigrateMesh(nil)
	if err != nil {
		return nil, err
	}
	cycles := s.Run(1_000_000)
	if !s.Done() || s.Hung() {
		return nil, fmt.Errorf("faultinject: clean migrate run did not finish (hung=%v)", s.Hung())
	}
	fx := &migrateClean{cycles: cycles, fp: machine.FingerprintThreads(meshThreads(s))}

	p, err := buildMigrateMesh(func(c *multi.Config) {
		c.MigrateAt = migrateCampaignAt
		c.Migrate = migrate.Config{Link: migrateCampaignLink()}
	})
	if err != nil {
		return nil, err
	}
	p.Run(fx.cycles*(tolMaxRestores+2) + 8*migrateWatchdog)
	rep := p.MigrateReport()
	if rep == nil || !rep.Committed {
		return nil, fmt.Errorf("faultinject: probe migration did not commit: %+v", rep)
	}
	if !p.Done() || machine.FingerprintThreads(meshThreads(p)) != fx.fp {
		return nil, fmt.Errorf("faultinject: probe migration diverged from clean run")
	}
	if rep.Link.FramesSent < 5 {
		return nil, fmt.Errorf("faultinject: probe migration sent only %d frames", rep.Link.FramesSent)
	}
	fx.frames = rep.Link.FramesSent
	fx.rounds = len(rep.Rounds)
	return fx, nil
}

// classifyMigrate is the uniform back half of every migration trial:
// faults and hangs are unrecovered detections, divergence from the
// never-migrated fingerprint is an escape, and a clean finish is
// Tolerated under okDetail. Repair counters ride along.
func classifyMigrate(s *multi.System, fx *migrateClean, okDetail string) trialResult {
	counters := func(r trialResult) trialResult {
		r = attachMeshFlight(s, r)
		r.restores = s.Restores()
		r.checkpoints = s.Checkpoints()
		if rep := s.MigrateReport(); rep != nil {
			r.migrateRetrans = rep.Link.Retransmits
			r.migrateDupSupp = rep.Link.DupSuppressed
			if !rep.Committed {
				r.migrateAborts = 1
			}
		}
		return r
	}
	for _, t := range meshThreads(s) {
		if t.State == machine.Faulted {
			r := classifyFault(t.Fault)
			r.detail = "unrecovered-" + r.detail
			return counters(r)
		}
	}
	if s.Hung() {
		return counters(trialResult{outcome: Detected, detail: "unrecovered-hang"})
	}
	if !s.Done() {
		return counters(trialResult{outcome: Escaped, detail: "timeout"})
	}
	if machine.FingerprintThreads(meshThreads(s)) != fx.fp {
		return counters(trialResult{outcome: Escaped, detail: "silent-divergence"})
	}
	return counters(trialResult{outcome: Tolerated, detail: okDetail})
}

// runMigrateTrial injects one migration-stage fault and audits the
// whole run: the lossy-wire classes must still commit (via
// retransmission/dedup, never by restarting), the source/standby/
// cutover classes must abort with the source bit-untouched, and every
// trial must finish with the clean architectural fingerprint.
func runMigrateTrial(fx *migrateClean, class Class, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	rng := NewRNG(seed)
	mcfg := migrate.Config{Link: migrateCampaignLink()}
	wantCommit := false
	var detail string
	var onMigrate func(*migrate.Link, *migrate.Receiver)
	var killAt uint64

	switch class {
	case MigrateFrameDrop, MigrateFrameCorrupt, MigrateFrameDup, MigrateFrameTrunc:
		// Fault every stride-th first transmission attempt; retries ride
		// a clean wire, so the link must converge by retransmission.
		wantCommit = true
		stride := 3 + rng.Uint64n(4)
		phase := rng.Uint64n(stride)
		var fate migrate.Fate
		switch class {
		case MigrateFrameDrop:
			fate.Drop = true
			detail = "migrate-retransmit"
		case MigrateFrameCorrupt:
			fate.Corrupt = true
			detail = "migrate-retransmit"
		case MigrateFrameTrunc:
			fate.Truncate = true
			detail = "migrate-retransmit"
		case MigrateFrameDup:
			fate.Duplicate = true
			detail = "migrate-dup-suppressed"
		}
		onMigrate = func(link *migrate.Link, recv *migrate.Receiver) {
			link.Intercept = func(f *migrate.Frame, attempt int) migrate.Fate {
				if attempt == 0 && f.Seq%stride == phase {
					return fate
				}
				return migrate.Fate{}
			}
		}
	case MigrateSrcKill:
		killAt = migrateCampaignAt + 1 + rng.Uint64n(srcKillWindow)
		detail = "migrate-src-kill"
	case MigrateStandbyCrash:
		// Crash the standby after a random pre-commit frame: the
		// receiver dies mid-transfer and every later delivery fails.
		crashAfter := 1 + rng.Uint64n(fx.frames-2)
		onMigrate = func(link *migrate.Link, recv *migrate.Receiver) {
			orig := link.Deliver
			var delivered uint64
			link.Deliver = func(f *migrate.Frame) error {
				delivered++
				if delivered == crashAfter {
					recv.Crashed = true
				}
				return orig(f)
			}
		}
		detail = "migrate-standby-crash"
	case MigrateCutover:
		mcfg.AbortAtCutover = true
		detail = "migrate-cutover-abort"
	default:
		return trialResult{outcome: Escaped, detail: "bad-class"}
	}

	s, err := buildMigrateMesh(func(c *multi.Config) {
		c.MigrateAt = migrateCampaignAt
		c.Migrate = mcfg
	})
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.OnMigrate = onMigrate
	if class == MigrateSrcKill {
		killed := false
		s.OnCycle = func(cycle uint64) {
			// Fires inside the migration's step hook — pre-copy overlaps
			// execution — so the kill lands mid-round. The guard keeps the
			// post-recovery re-execution from re-killing.
			if cycle >= killAt && !killed {
				killed = true
				_ = s.Kill(0)
			}
		}
	}
	s.Run(fx.cycles*(tolMaxRestores+2) + 8*migrateWatchdog)

	// Protocol checks first — they are stricter than the generic
	// fingerprint gate — then the uniform classification.
	fail := func(o Outcome, d string) trialResult {
		r := classifyMigrate(s, fx, d)
		r.outcome = o
		r.detail = d
		return attachMeshFlight(s, r)
	}
	rep := s.MigrateReport()
	switch {
	case rep == nil:
		return fail(Escaped, "migrate-never-ran")
	case wantCommit && !rep.Committed:
		return fail(Detected, "migrate-gave-up")
	case !wantCommit && rep.Committed:
		return fail(Escaped, "migrate-stale-commit")
	case class == MigrateSrcKill && rep.Reason != "source-failed":
		return fail(Escaped, "migrate-wrong-abort")
	case wantCommit && rep.Link.Retransmits == 0 && rep.Link.DupSuppressed == 0:
		// The fault never landed on the wire — nothing was exercised.
		return fail(Masked, "migrate-fault-missed")
	}
	return classifyMigrate(s, fx, detail)
}

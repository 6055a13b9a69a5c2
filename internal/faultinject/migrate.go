package faultinject

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/multi"
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
	prog   *asm.Program // the workload, assembled once and shared read-only
	cycles uint64       // clean full-run cycle count, no migration armed
	fp     uint64       // timing-excluded architectural fingerprint
	frames uint64       // frames a committed migration sends on the campaign wire
	rounds int          // pre-copy rounds that migration took
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

// boot boots the migration-campaign multicomputer: the tolerant stack
// without the reliable transport, checkpointing every migrateCkptEvery
// cycles so a killed source is survivable, with a live migration of
// node 0 armed under mcfg at migrateCampaignAt (none when mcfg is nil).
func (fx *migrateClean) boot(mcfg *migrate.Config) (*multi.System, error) {
	cfg := tolerant.meshConfig(2)
	cfg.Mesh.Transport.Enabled = false
	cfg.CheckpointEvery = migrateCkptEvery
	if mcfg != nil {
		cfg.MigrateAt = migrateCampaignAt
		cfg.Migrate = *mcfg
	}
	return bootMesh(cfg, nil, fx.load)
}

// load places the workload's one thread on node 0, with a remote
// segment homed on node 1 in r1 and a local one in r6.
func (fx *migrateClean) load(s *multi.System) error {
	far, err := s.Nodes[1].K.AllocSegment(4096)
	if err != nil {
		return err
	}
	local, err := s.Nodes[0].K.AllocSegment(4096)
	if err != nil {
		return err
	}
	ip, err := s.Nodes[0].K.LoadProgram(fx.prog, false)
	if err != nil {
		return err
	}
	_, err = s.Nodes[0].K.Spawn(1, ip, map[int]word.Word{1: far.Word(), 6: local.Word()})
	return err
}

// prepareMigrateFixture runs the workload clean (no migration) for the
// reference fingerprint, then runs one unfaulted armed migration to
// learn the committed transfer's frame count and round shape.
func prepareMigrateFixture() (*migrateClean, error) {
	prog, err := asm.Assemble(migrateSrc)
	if err != nil {
		return nil, err
	}
	fx := &migrateClean{prog: prog}
	s, err := fx.boot(nil)
	if err != nil {
		return nil, err
	}
	fx.cycles = s.Run(1_000_000)
	if !s.Done() || s.Hung() {
		return nil, fmt.Errorf("faultinject: clean migrate run did not finish (hung=%v)", s.Hung())
	}
	fx.fp = machine.FingerprintThreads(meshThreads(s))

	p, err := fx.boot(&migrate.Config{Link: migrateCampaignLink()})
	if err != nil {
		return nil, err
	}
	p.Run(tolerant.budget(fx.cycles))
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

// runMigrateTrial injects one migration-stage fault and audits the
// whole run: the lossy-wire classes must still commit (via
// retransmission/dedup, never by restarting), the source/standby/
// cutover classes must abort with the source bit-untouched, and every
// trial must finish with the clean architectural fingerprint.
func runMigrateTrial(fx *migrateClean, class Class, seed uint64) trialResult {
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

	s, err := fx.boot(&mcfg)
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
	s.Run(tolerant.budget(fx.cycles))
	r := tolerant.classify(s, fx.fp, trialResult{outcome: Tolerated, detail: detail})
	return tolerant.withFlight(s, r.worsen(migrateVerdict(s.MigrateReport(), class, wantCommit)))
}

// migrateVerdict checks the migration protocol, which is stricter than
// the fingerprint: every trial's migration must run, lossy-wire classes
// must commit by retransmission or dedup, and the other classes must
// abort — a killed source for the source-failed reason. A protocol that
// held is Tolerated, the best verdict, so it never changes a
// classification (trialResult.worsen).
func migrateVerdict(rep *migrate.Report, class Class, wantCommit bool) trialResult {
	switch {
	case rep == nil:
		return trialResult{outcome: Escaped, detail: "migrate-never-ran"}
	case wantCommit && !rep.Committed:
		return trialResult{outcome: Detected, detail: "migrate-gave-up"}
	case !wantCommit && rep.Committed:
		return trialResult{outcome: Escaped, detail: "migrate-stale-commit"}
	case class == MigrateSrcKill && rep.Reason != "source-failed":
		return trialResult{outcome: Escaped, detail: "migrate-wrong-abort"}
	case wantCommit && rep.Link.Retransmits == 0 && rep.Link.DupSuppressed == 0:
		// The fault never landed on the wire — nothing was exercised.
		return trialResult{outcome: Masked, detail: "migrate-fault-missed"}
	}
	return trialResult{outcome: Tolerated}
}

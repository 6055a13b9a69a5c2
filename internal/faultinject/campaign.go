package faultinject

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// CampaignConfig sizes a campaign. Every trial's seed is derived from
// Seed and the trial's (class, index) coordinates, so trials are
// independent and the campaign is replayable and order-insensitive —
// the worker pool changes wall-clock time, never the table.
type CampaignConfig struct {
	Seed uint64
	// LocalTrials is the trial count for each single-node class
	// (mem-bit, reg-bit, ptr-field, tlb-entry).
	LocalTrials int
	// MeshTrials is the trial count for each NoC class (drop,
	// duplicate, corrupt, delay).
	MeshTrials int
	// NodeTrials is the trial count for each node class (kill, stall).
	NodeTrials int
	// Workers bounds trial concurrency; 0 means GOMAXPROCS.
	Workers int
	// PersistTrials is the trial count for each persistence class
	// (persist-torn, persist-trunc, persist-rot, persist-missing): each
	// trial damages a copy of a pristine on-disk checkpoint store and
	// audits the recovery path (see persist.go).
	PersistTrials int
	// MigrateTrials is the trial count for each live-migration class
	// (frame drop/corrupt/dup/trunc on the migration wire, source kill,
	// standby crash, cutover interruption): each trial arms a live
	// migration mid-run and attacks one stage of it (see migrate.go).
	MigrateTrials int
	// Recovery additionally runs the checkpoint/kill/restore trial.
	Recovery bool
	// Tolerate runs every trial under the tolerant stack instead of the
	// bare one (ECC scrubbing, reliable NoC transport, checkpoint
	// rollback) and adds the Tolerated outcome; Recovery then lets the
	// watchdog restore the killed node instead of the harness.
	Tolerate bool
}

// DefaultCampaign is the E23 configuration: ≥10k injections across all
// ten classes plus the recovery exercise.
func DefaultCampaign() CampaignConfig {
	return CampaignConfig{
		Seed:        1,
		LocalTrials: 2200,
		MeshTrials:  300,
		NodeTrials:  150,
		Recovery:    true,
	}
}

// DefaultTolerantCampaign is the E24 configuration: the same ten-class
// fault mix rerun under the tolerance stack. Per-class counts are
// smaller than E23's because every tolerant trial also pays for
// checkpoint capture and (on faults) rollback re-execution.
func DefaultTolerantCampaign() CampaignConfig {
	return CampaignConfig{
		Seed:        1,
		LocalTrials: 500,
		MeshTrials:  120,
		NodeTrials:  60,
		Recovery:    true,
		Tolerate:    true,
	}
}

// DefaultPersistCampaign is the E28 persistence-fault configuration:
// every durability damage class against the pristine checkpoint store,
// with the tolerance semantics (a detected-and-repaired fallback counts
// as Tolerated). The gate is zero unrecovered detections and zero
// escapes.
func DefaultPersistCampaign() CampaignConfig {
	return CampaignConfig{
		Seed:          1,
		PersistTrials: 40,
		Tolerate:      true,
	}
}

// DefaultMigrateCampaign is the E29 live-migration fault
// configuration: every migration-stage damage class against an armed
// mid-run migration, with the tolerance semantics. The gate is zero
// unrecovered detections and zero escapes: lossy-wire trials must
// commit by retransmission and every interrupted migration must abort
// with the source bit-identical to never having migrated.
func DefaultMigrateCampaign() CampaignConfig {
	return CampaignConfig{
		Seed:          1,
		MigrateTrials: 25,
		Tolerate:      true,
	}
}

// ClassStats aggregates one class's outcomes.
type ClassStats struct {
	Class     Class
	Trials    int
	Detected  int
	Masked    int
	Escaped   int
	Tolerated int // always 0 in baseline campaigns
	// Details counts fine-grained mechanism tags ("mem-parity",
	// "watchdog", "scrub-mem", ...).
	Details map[string]int
}

// Result is a finished campaign.
type Result struct {
	Seed      uint64
	Classes   []ClassStats // indexed by Class
	Trials    int
	Detected  int
	Masked    int
	Escaped   int
	Tolerated int
	Recovery  *RecoveryResult // nil unless CampaignConfig.Recovery

	// Tolerant marks a campaign run with the self-healing stack; the
	// repair totals below sum the stack's work across all trials.
	Tolerant    bool
	Restores    uint64 // checkpoint rollbacks performed
	Checkpoints uint64 // verified checkpoints captured
	EccFixed    uint64 // single-bit memory errors corrected
	Retransmits uint64 // transport frames re-sent
	DupSupp     uint64 // duplicate frames suppressed
	// Persistence-trial repair work (zero unless PersistTrials ran).
	PersistCorrupt   uint64 // generations rejected by checksums/markers
	PersistFallbacks uint64 // restores that fell back past damage
	// Migration-trial repair work (zero unless MigrateTrials ran).
	MigrateRetransmits uint64 // migration wire frames re-sent
	MigrateDupSupp     uint64 // duplicate migration frames suppressed
	MigrateAborts      uint64 // migrations aborted with the source intact

	// Flights names the first MaxFlightCaptures trials whose outcome
	// the audit could not explain (escaped, or an unrecovered detection
	// under the tolerant stack), each with its flight-recorder dump —
	// the trials to replay, and the post-mortem evidence for exactly the
	// rows that demand one.
	Flights []FlightCapture
}

// MaxFlightCaptures bounds how many unexplained trials a campaign
// retains; they are supposed to be rare, and a pathological run must
// not hold ten thousand dumps in memory.
const MaxFlightCaptures = 8

// FlightCapture is one unexplained trial: its replay coordinates and
// its flight-recorder dump.
type FlightCapture struct {
	Class  Class
	Seed   uint64
	Detail string
	// Dump is JSONL: one {"flight":true,...}-headed section per
	// recorder. Persistence trials run no recorder and leave it empty.
	Dump string
}

type trialSpec struct {
	class Class
	index int // within the class: local trials cycle through the workloads by it
	seed  uint64
}

// campaign is what every trial of one campaign shares: the stack and
// the clean reference runs, which trials only read.
type campaign struct {
	st      stack
	wls     []*workload
	mesh    *meshClean
	persist *persistFixture
	migrate *migrateClean
}

// run dispatches one trial to its class's body. A panic anywhere in a
// trial classifies as escaped — a fault must never crash the simulator.
func (c *campaign) run(sp trialSpec) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	switch {
	case sp.class >= MigrateFrameDrop:
		return runMigrateTrial(c.migrate, sp.class, sp.seed)
	case sp.class >= PersistTorn:
		return runPersistTrial(c.persist, sp.class, sp.seed)
	case sp.class >= NodeKill:
		return c.st.runNodeTrial(sp.class, c.mesh, sp.seed)
	case sp.class >= NoCDrop:
		return c.st.runNoCTrial(sp.class, c.mesh, sp.seed)
	}
	return c.st.runLocalTrial(c.wls[sp.index%len(c.wls)], sp.class, sp.seed)
}

var localClasses = []Class{MemBit, RegBit, PtrField, TLBEntry}
var nocClasses = []Class{NoCDrop, NoCDuplicate, NoCCorrupt, NoCDelay}
var nodeClasses = []Class{NodeKill, NodeStall}
var persistClasses = []Class{PersistTorn, PersistTrunc, PersistRot, PersistMissing}
var migrateClasses = []Class{
	MigrateFrameDrop, MigrateFrameCorrupt, MigrateFrameDup, MigrateFrameTrunc,
	MigrateSrcKill, MigrateStandbyCrash, MigrateCutover,
}

// RunCampaign executes the full audit: prepares the clean reference
// runs, fans the trial list across a worker pool, and aggregates the
// outcomes in deterministic (class, index) order.
func RunCampaign(cfg CampaignConfig) (*Result, error) {
	c := &campaign{st: stack(cfg.Tolerate), wls: localWorkloads()}
	for _, w := range c.wls {
		if err := w.prepare(); err != nil {
			return nil, err
		}
	}
	var err error
	if cfg.MeshTrials > 0 || cfg.NodeTrials > 0 {
		if c.mesh, err = prepareMesh(4); err != nil {
			return nil, err
		}
	}
	if cfg.PersistTrials > 0 {
		fxDir, err := os.MkdirTemp("", "mmpersist-fixture-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(fxDir)
		if c.persist, err = preparePersistFixture(fxDir, c.wls[0]); err != nil {
			return nil, err
		}
	}
	if cfg.MigrateTrials > 0 {
		if c.migrate, err = prepareMigrateFixture(); err != nil {
			return nil, err
		}
	}

	var specs []trialSpec
	for _, g := range []struct {
		classes []Class
		trials  int
	}{
		{localClasses, cfg.LocalTrials},
		{nocClasses, cfg.MeshTrials},
		{nodeClasses, cfg.NodeTrials},
		{persistClasses, cfg.PersistTrials},
		{migrateClasses, cfg.MigrateTrials},
	} {
		for _, class := range g.classes {
			for i := 0; i < g.trials; i++ {
				seed := mixSeed(cfg.Seed, uint64(class), uint64(i))
				specs = append(specs, trialSpec{class: class, index: i, seed: seed})
			}
		}
	}

	results := make([]trialResult, len(specs))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				results[i] = c.run(specs[i])
			}
		}()
	}
	wg.Wait()

	res := &Result{Seed: cfg.Seed, Tolerant: cfg.Tolerate, Classes: make([]ClassStats, NumClasses)}
	for cl := range res.Classes {
		res.Classes[cl].Class = Class(cl)
		res.Classes[cl].Details = make(map[string]int)
	}
	for i, sp := range specs {
		cs := &res.Classes[sp.class]
		cs.Trials++
		res.Trials++
		switch results[i].outcome {
		case Detected:
			cs.Detected++
			res.Detected++
		case Masked:
			cs.Masked++
			res.Masked++
		case Escaped:
			cs.Escaped++
			res.Escaped++
		case Tolerated:
			cs.Tolerated++
			res.Tolerated++
		}
		cs.Details[results[i].detail]++
		if c.st.unexplained(results[i].outcome) && len(res.Flights) < MaxFlightCaptures {
			res.Flights = append(res.Flights, FlightCapture{
				Class: sp.class, Seed: sp.seed,
				Detail: results[i].detail, Dump: results[i].flight,
			})
		}
		res.Restores += results[i].restores
		res.Checkpoints += results[i].checkpoints
		res.EccFixed += results[i].eccFixed
		res.Retransmits += results[i].retransmits
		res.DupSupp += results[i].dupSupp
		res.PersistCorrupt += results[i].persistCorrupt
		res.PersistFallbacks += results[i].persistFallback
		res.MigrateRetransmits += results[i].migrateRetrans
		res.MigrateDupSupp += results[i].migrateDupSupp
		res.MigrateAborts += results[i].migrateAborts
	}
	if cfg.Recovery {
		trial := recoveryTrial
		if cfg.Tolerate {
			trial = autoRecoveryTrial
		}
		if res.Recovery, err = trial(cfg.Seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Gate is the campaign's pass condition: no trial escaped, no detection
// went unrecovered under the tolerant stack, and the recovery exercise,
// when it ran, reproduced the clean fingerprint. A failed gate names
// the first trial to replay.
func (r *Result) Gate() error {
	unrecovered := 0
	if r.Tolerant {
		unrecovered = r.Detected
	}
	if r.Escaped > 0 || unrecovered > 0 {
		replay := ""
		if len(r.Flights) > 0 {
			f := r.Flights[0]
			replay = fmt.Sprintf("; replay %v trial seed %#x: %s", f.Class, f.Seed, f.Detail)
		}
		return fmt.Errorf("fault campaign (seed %d): %d escaped, %d unrecovered (want 0)%s",
			r.Seed, r.Escaped, unrecovered, replay)
	}
	if r.Recovery != nil && !r.Recovery.Match {
		return fmt.Errorf("fault campaign (seed %d): recovery diverged: %s", r.Seed, r.Recovery)
	}
	return nil
}

// Table renders the campaign as the audit table: one row per exercised
// class, a totals row, and a detection-mechanism breakdown. Same seed →
// byte-identical string.
func (r *Result) Table() string {
	var b strings.Builder
	var tbl *stats.Table
	if r.Tolerant {
		tbl = stats.NewTable(
			fmt.Sprintf("Fault-tolerance audit (seed %d, %d injections, self-healing stack on)", r.Seed, r.Trials),
			"class", "trials", "tolerated", "masked", "unrecovered", "escaped")
		for _, cs := range r.Classes {
			if cs.Trials == 0 {
				continue
			}
			tbl.AddRow(cs.Class.String(), cs.Trials, cs.Tolerated, cs.Masked, cs.Detected, cs.Escaped)
		}
		tbl.AddRow("total", r.Trials, r.Tolerated, r.Masked, r.Detected, r.Escaped)
	} else {
		tbl = stats.NewTable(
			fmt.Sprintf("Fault-injection audit (seed %d, %d injections)", r.Seed, r.Trials),
			"class", "trials", "detected", "masked", "escaped")
		for _, cs := range r.Classes {
			if cs.Trials == 0 {
				continue
			}
			tbl.AddRow(cs.Class.String(), cs.Trials, cs.Detected, cs.Masked, cs.Escaped)
		}
		tbl.AddRow("total", r.Trials, r.Detected, r.Masked, r.Escaped)
	}
	b.WriteString(tbl.String())

	if r.Tolerant {
		rt := stats.NewTable("\nTolerance-stack repair work (summed over all trials)", "mechanism", "repairs")
		rt.AddRow("checkpoint rollbacks", int(r.Restores))
		rt.AddRow("verified checkpoints", int(r.Checkpoints))
		rt.AddRow("ecc single-bit corrections", int(r.EccFixed))
		rt.AddRow("transport retransmits", int(r.Retransmits))
		rt.AddRow("duplicates suppressed", int(r.DupSupp))
		// Persistence rows appear only when persistence classes ran, so
		// campaigns without them (E24) render byte-identically to before
		// the durability audit existed.
		if r.trials(persistClasses) > 0 {
			rt.AddRow("persist corrupt generations detected", int(r.PersistCorrupt))
			rt.AddRow("persist fallback restores", int(r.PersistFallbacks))
		}
		// Migration rows likewise appear only when migration classes
		// ran, keeping earlier campaigns' tables byte-identical.
		if r.trials(migrateClasses) > 0 {
			rt.AddRow("migration frames retransmitted", int(r.MigrateRetransmits))
			rt.AddRow("migration duplicates suppressed", int(r.MigrateDupSupp))
			rt.AddRow("migration aborts rolled back", int(r.MigrateAborts))
		}
		b.WriteString(rt.String())
	}

	mech := make(map[string]int)
	for _, cs := range r.Classes {
		for d, n := range cs.Details {
			mech[d] += n
		}
	}
	var names []string
	for d := range mech {
		names = append(names, d)
	}
	sort.Strings(names)
	mt := stats.NewTable("\nOutcome mechanisms (detection signal or masking path)", "mechanism", "trials")
	for _, d := range names {
		mt.AddRow(d, mech[d])
	}
	b.WriteString(mt.String())

	if r.Recovery != nil {
		label := "checkpoint recovery"
		if r.Tolerant {
			label = "watchdog auto-recovery"
		}
		fmt.Fprintf(&b, "\n%s: %s\n", label, r.Recovery)
	}
	return b.String()
}

// trials sums the given classes' trial counts.
func (r *Result) trials(classes []Class) int {
	n := 0
	for _, c := range classes {
		if int(c) < len(r.Classes) {
			n += r.Classes[c].Trials
		}
	}
	return n
}

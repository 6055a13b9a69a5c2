package faultinject

import (
	"strings"
	"testing"

	"repro/internal/migrate"
)

// The migration-fault campaign's gate: every class is Tolerated — the
// lossy-wire classes commit by retransmission (never by restarting the
// migration), the source/standby/cutover classes abort with the source
// intact and the run finishing on the never-migrated fingerprint. Zero
// unrecovered, zero divergence, zero masked (every trial must actually
// exercise its fault).
func TestMigrateCampaignGate(t *testing.T) {
	cfg := DefaultMigrateCampaign()
	cfg.MigrateTrials = 5 // full 25/class is E29's job
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(migrateClasses) * cfg.MigrateTrials; res.Trials != want {
		t.Fatalf("trials = %d, want %d", res.Trials, want)
	}
	if res.Detected != 0 {
		t.Errorf("%d unrecovered migration faults", res.Detected)
	}
	if res.Escaped != 0 {
		t.Errorf("%d escapes (divergence, stale commit, or hang)", res.Escaped)
	}
	if res.Tolerated != res.Trials {
		t.Errorf("tolerated %d of %d trials", res.Tolerated, res.Trials)
	}
	if res.MigrateRetransmits == 0 {
		t.Error("no lossy-wire trial recovered by retransmission")
	}
	if res.MigrateDupSupp == 0 {
		t.Error("no duplicate-frame trial exercised suppression")
	}
	// src-kill, standby-crash and cutover trials all abort.
	if want := uint64(3 * cfg.MigrateTrials); res.MigrateAborts != want {
		t.Errorf("aborts = %d, want %d", res.MigrateAborts, want)
	}
	for _, c := range migrateClasses {
		if res.Classes[c].Trials != cfg.MigrateTrials {
			t.Errorf("class %v ran %d trials, want %d", c, res.Classes[c].Trials, cfg.MigrateTrials)
		}
	}
	tbl := res.Table()
	for _, want := range []string{"migrate-src-kill", "migration frames retransmitted", "migration aborts rolled back"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// Same seed → byte-identical campaign table, workers notwithstanding.
func TestMigrateCampaignDeterministic(t *testing.T) {
	cfg := DefaultMigrateCampaign()
	cfg.MigrateTrials = 3
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatalf("campaign not deterministic:\n%s\nvs\n%s", a.Table(), b.Table())
	}
}

// A campaign without migration trials must not mention them — E23/E24/
// E28 tables stay byte-identical to the pre-migration audit.
func TestMigrateRowsAbsentWithoutTrials(t *testing.T) {
	cfg := DefaultTolerantCampaign()
	cfg.LocalTrials, cfg.MeshTrials, cfg.NodeTrials = 8, 4, 2
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if strings.Contains(tbl, "migrat") {
		t.Fatalf("migration rows leaked into a non-migration campaign:\n%s", tbl)
	}
}

// Fixture invariant: the unfaulted probe migration must be iterative
// (≥2 rounds) and wide enough (≥5 frames) that every fault class has a
// real population to aim at.
func TestMigrateFixtureShape(t *testing.T) {
	fx, err := prepareMigrateFixture()
	if err != nil {
		t.Fatal(err)
	}
	if fx.fp == 0 {
		t.Error("fixture fingerprint is zero")
	}
	if fx.rounds < 2 {
		t.Errorf("probe migration took %d rounds, want iterative pre-copy", fx.rounds)
	}
	if fx.frames < 5 {
		t.Errorf("probe migration sent %d frames", fx.frames)
	}
}

// TestMigrateVerdictOnlyWorsens: a protocol verdict may demote a
// migration trial's classification, never promote it — a trial that
// diverged or hung stays failed even when its link never retransmitted.
func TestMigrateVerdictOnlyWorsens(t *testing.T) {
	missed := &migrate.Report{Committed: true} // committed, nothing retransmitted
	cases := []struct {
		rep        *migrate.Report
		wantCommit bool
		in         trialResult
		want       trialResult
	}{
		{missed, true, trialResult{outcome: Escaped, detail: "silent-divergence"},
			trialResult{outcome: Escaped, detail: "silent-divergence"}},
		{missed, true, trialResult{outcome: Detected, detail: "unrecovered-hang"},
			trialResult{outcome: Detected, detail: "unrecovered-hang"}},
		{missed, true, trialResult{outcome: Tolerated, detail: "migrate-retransmit"},
			trialResult{outcome: Masked, detail: "migrate-fault-missed"}},
		{missed, false, trialResult{outcome: Detected, detail: "unrecovered-hang"},
			trialResult{outcome: Escaped, detail: "migrate-stale-commit"}},
		{&migrate.Report{}, true, trialResult{outcome: Masked, detail: "x"},
			trialResult{outcome: Detected, detail: "migrate-gave-up"}},
		{&migrate.Report{Committed: true, Link: migrate.LinkStats{Retransmits: 2}}, true,
			trialResult{outcome: Tolerated, detail: "migrate-retransmit"},
			trialResult{outcome: Tolerated, detail: "migrate-retransmit"}},
	}
	for i, c := range cases {
		got := c.in.worsen(migrateVerdict(c.rep, MigrateFrameDrop, c.wantCommit))
		if got.outcome != c.want.outcome || got.detail != c.want.detail {
			t.Errorf("case %d: %v/%s, want %v/%s", i, got.outcome, got.detail, c.want.outcome, c.want.detail)
		}
	}
}

package faultinject

import (
	"strings"
	"testing"
)

// The persistence-fault campaign's gate: every seeded damage class is
// either masked (newest generation unaffected or damage invisible) or
// tolerated (corruption detected, recovery fell back to an intact
// generation with the clean fingerprint). Zero unrecovered, zero
// divergence.
func TestPersistCampaignGate(t *testing.T) {
	cfg := DefaultPersistCampaign()
	cfg.PersistTrials = 10 // full 40/class is E28's job
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4*cfg.PersistTrials {
		t.Fatalf("trials = %d, want %d", res.Trials, 4*cfg.PersistTrials)
	}
	if res.Detected != 0 {
		t.Errorf("%d unrecovered persistence faults", res.Detected)
	}
	if res.Escaped != 0 {
		t.Errorf("%d escapes (divergence or hang)", res.Escaped)
	}
	if res.Tolerated == 0 {
		t.Error("no trial exercised the corruption-fallback path")
	}
	if res.Masked == 0 {
		t.Error("no trial left the newest generation intact")
	}
	if res.Tolerated > 0 && (res.PersistCorrupt == 0 || res.PersistFallbacks == 0) {
		t.Errorf("tolerated=%d but corrupt=%d fallbacks=%d — accounting lost",
			res.Tolerated, res.PersistCorrupt, res.PersistFallbacks)
	}
	for _, c := range persistClasses {
		if res.Classes[c].Trials != cfg.PersistTrials {
			t.Errorf("class %v ran %d trials, want %d", c, res.Classes[c].Trials, cfg.PersistTrials)
		}
	}
	// The repair table carries the persistence rows for this campaign.
	tbl := res.Table()
	for _, want := range []string{"persist-torn", "persist fallback restores", "persist corrupt generations detected"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// Same seed → byte-identical campaign table, workers notwithstanding.
func TestPersistCampaignDeterministic(t *testing.T) {
	cfg := DefaultPersistCampaign()
	cfg.PersistTrials = 6
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

// A campaign without persistence trials must not mention them — E23/E24
// tables stay byte-identical to the pre-durability audit.
func TestPersistRowsAbsentWithoutTrials(t *testing.T) {
	cfg := DefaultTolerantCampaign()
	cfg.LocalTrials, cfg.MeshTrials, cfg.NodeTrials = 8, 4, 2
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if strings.Contains(tbl, "persist") {
		t.Fatalf("persistence rows leaked into a non-persistence campaign:\n%s", tbl)
	}
}

// Fixture invariant: the pristine store must hold bases at generations
// 1 and 4 so any single-generation damage leaves an intact chain.
func TestPersistFixtureShape(t *testing.T) {
	dir := t.TempDir()
	w := localWorkloads()[0]
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	fx, err := preparePersistFixture(dir, w)
	if err != nil {
		t.Fatal(err)
	}
	if fx.fp == 0 {
		t.Error("fixture fingerprint is zero")
	}
	byGen, gens, err := storeFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != persistFixtureGens {
		t.Fatalf("fixture has %d generations, want %d", len(gens), persistFixtureGens)
	}
	for _, g := range gens {
		if len(byGen[g]) != 2 { // image + marker
			t.Errorf("generation %d has %d files, want 2", g, len(byGen[g]))
		}
	}
}

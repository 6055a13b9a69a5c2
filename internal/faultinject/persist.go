package faultinject

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/persist"
)

// Persistence-fault trials (E28): each trial takes a pristine on-disk
// checkpoint store, damages it in one seeded way — torn write,
// truncation, bit rot, missing generation — and demands that recovery
// either restores the newest generation untouched by the damage
// (Masked), detects the corruption and falls back to an older intact
// generation whose restored run still reproduces the clean
// architectural fingerprint (Tolerated), or at the very least reports
// a typed failure. An unrecoverable store is Detected with detail
// "persist-unrecovered"; a restore that silently diverges from the
// clean fingerprint is Escaped "persist-divergence". The E28 gate
// demands zero of both.

// persistFixtureGens is the generation count of the pristine store.
// With persistFixtureBaseEvery = 3 the bases sit at generations 1 and
// 4, so damaging any SINGLE generation always leaves at least one
// intact chain — every trial is recoverable by construction, and an
// unrecovered outcome is a store bug, not fixture bad luck.
const (
	persistFixtureGens      = 6
	persistFixtureBaseEvery = 3
	persistCaptureStride    = 60 // cycles between fixture captures
)

// persistFixture is the campaign-wide pristine store plus the clean
// run's outcome. Trials copy it; nobody mutates it.
type persistFixture struct {
	dir    string
	cfg    machine.Config
	budget uint64
	fp     uint64 // fingerprint of the uninjected run's final state
}

// preparePersistFixture runs the sweep-sum workload under a Saver,
// committing persistFixtureGens generations, then finishes the run to
// compute the reference fingerprint every trial must reproduce.
func preparePersistFixture(dir string) (*persistFixture, error) {
	w := localWorkloads()[0]
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 1 << 20
	k, _, _, err := buildLocalWith(w, cfg)
	if err != nil {
		return nil, err
	}
	st, err := persist.Open(dir, 1)
	if err != nil {
		return nil, err
	}
	sv, err := persist.NewSaver(st, persistFixtureBaseEvery)
	if err != nil {
		return nil, err
	}
	var cycle uint64
	for g := 0; g < persistFixtureGens; g++ {
		cycle += k.Run(persistCaptureStride)
		if k.M.Done() {
			return nil, fmt.Errorf("faultinject: persist fixture workload finished before generation %d", g+1)
		}
		if _, err := sv.Capture(k, cycle); err != nil {
			return nil, err
		}
	}
	k.Run(w.budget)
	if !k.M.Done() {
		return nil, fmt.Errorf("faultinject: persist fixture workload did not finish")
	}
	return &persistFixture{dir: dir, cfg: cfg, budget: w.budget,
		fp: machine.FingerprintThreads(k.M.Threads())}, nil
}

// copyDir copies the fixture's flat file set into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeFiles lists a store directory's files grouped by generation
// number (parsed from the gen%08d prefix), plus the sorted generation
// list.
func storeFiles(dir string) (map[uint64][]string, []uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	byGen := make(map[uint64][]string)
	for _, e := range ents {
		var gen uint64
		if _, err := fmt.Sscanf(e.Name(), "gen%d", &gen); err != nil {
			continue
		}
		byGen[gen] = append(byGen[gen], e.Name())
	}
	var gens []uint64
	for g := range byGen {
		gens = append(gens, g)
	}
	for i := 1; i < len(gens); i++ { // insertion sort: tiny list
		for j := i; j > 0 && gens[j] < gens[j-1]; j-- {
			gens[j], gens[j-1] = gens[j-1], gens[j]
		}
	}
	return byGen, gens, nil
}

// damagePersist applies class's seeded damage to one store directory.
func damagePersist(dir string, class Class, rng *RNG) error {
	byGen, gens, err := storeFiles(dir)
	if err != nil {
		return err
	}
	if len(gens) == 0 {
		return fmt.Errorf("faultinject: empty persist store")
	}
	pickGen := gens[rng.Intn(len(gens))]
	if class == PersistTorn {
		pickGen = gens[len(gens)-1] // torn writes hit the newest
	}
	files := byGen[pickGen]
	pick := filepath.Join(dir, files[rng.Intn(len(files))])
	switch class {
	case PersistTorn, PersistTrunc:
		info, err := os.Stat(pick)
		if err != nil {
			return err
		}
		return os.Truncate(pick, int64(rng.Uint64n(uint64(info.Size()))))
	case PersistRot:
		data, err := os.ReadFile(pick)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		data[rng.Intn(len(data))] ^= byte(1) << rng.Intn(8)
		return os.WriteFile(pick, data, 0o644)
	case PersistMissing:
		for _, f := range files {
			if err := os.Remove(filepath.Join(dir, f)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("faultinject: %v is not a persistence class", class)
}

// runPersistTrial copies the fixture, injects one seeded damage, and
// classifies the recovery.
func runPersistTrial(fx *persistFixture, class Class, seed uint64) trialResult {
	rng := NewRNG(seed)
	tmp, err := os.MkdirTemp("", "mmpersist-trial-")
	if err != nil {
		return trialResult{outcome: Escaped, detail: "persist-harness"}
	}
	defer os.RemoveAll(tmp)
	if err := copyDir(fx.dir, tmp); err != nil {
		return trialResult{outcome: Escaped, detail: "persist-harness"}
	}
	if err := damagePersist(tmp, class, rng); err != nil {
		return trialResult{outcome: Escaped, detail: "persist-harness"}
	}

	st, err := persist.Open(tmp, 1)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "persist-harness"}
	}
	cps, gen, _, err := st.LoadNewestIntact()
	if err != nil {
		// The store could not produce ANY intact generation: an
		// unrecovered persistence fault. The fixture guarantees one
		// intact chain under every single-generation damage, so the E28
		// gate demands zero of these.
		return trialResult{outcome: Detected, detail: "persist-unrecovered",
			persistCorrupt: st.Stats().CorruptDetected}
	}
	k, err := kernel.Restore(fx.cfg, cps[0])
	if err != nil {
		return trialResult{outcome: Detected, detail: "persist-unrecovered",
			persistCorrupt: st.Stats().CorruptDetected}
	}
	k.Run(fx.budget)
	if !k.M.Done() {
		return trialResult{outcome: Escaped, detail: "persist-hang"}
	}
	stats := st.Stats()
	res := trialResult{
		persistFallback: stats.Fallbacks,
		persistCorrupt:  stats.CorruptDetected,
	}
	if machine.FingerprintThreads(k.M.Threads()) != fx.fp {
		res.outcome = Escaped
		res.detail = "persist-divergence"
		return res
	}
	switch {
	case stats.CorruptDetected > 0:
		// Damage was detected by checksums/markers and recovery fell
		// back to an older intact generation: detected AND repaired.
		res.outcome = Tolerated
		res.detail = "persist-fallback"
	case gen < persistFixtureGens:
		// The damaged generation vanished without tripping a checksum
		// (e.g. its commit marker was destroyed): recovery silently got
		// an older generation — correct state, no detection signal.
		res.outcome = Masked
		res.detail = "persist-invisible"
	default:
		// The newest generation survived untouched (damage landed on a
		// file no retained chain needed).
		res.outcome = Masked
		res.detail = "persist-newest-intact"
	}
	return res
}

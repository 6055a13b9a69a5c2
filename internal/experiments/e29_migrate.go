package experiments

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/multi"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/word"
)

func init() {
	register("E29",
		"Robustness — live node migration: iterative pre-copy converges, cutover STW is bounded by the final delta, aborts are bit-invisible, faulted wires recover by retransmission",
		runE29)
}

// E29 audits live migration in three movements:
//
//  1. Migration differential — a live migration of a node holding
//     cross-node state commits mid-run and the run finishes with the
//     never-migrated architectural outcome; then the same migration is
//     aborted at EVERY round boundary and mid-cutover, and each aborted
//     run must be bit-identical (cycles, stats, registers) to a run
//     that never migrated.
//  2. Dirty-rate sweep — on a 200-page footprint with a controlled
//     per-round dirty rate, the rounds to converge and the cutover
//     stop-the-world window; the gate is STW ≥ 5× smaller than the
//     full-image transfer at every dirty rate ≤ 10%. (Wall-time twin:
//     the root BenchmarkMigrate_PreCopy rows.)
//  3. Migration-fault campaign — seeded frame loss/corruption/
//     duplication/truncation on the migration wire plus source kill,
//     standby crash and cutover interruption; the gate is zero
//     unrecovered faults, zero divergence, and lossy wires recovering
//     by retransmission rather than restarting.

type e29DiffRow struct {
	name   string
	rounds int
	commit bool
	match  bool
}

type e29SweepRow struct {
	pct      int
	rounds   int
	pages    int
	baseWire uint64
	stw      uint64
	ratio    float64
}

type e29Results struct {
	diff     []e29DiffRow
	allMatch bool
	probe    *migrate.Report
	sweep    []e29SweepRow
	campaign *faultinject.Result
}

// e29System boots the differential's 2-node mesh: the node-0 thread
// mixes remote loads/stores against node 1's segment with local
// traffic, so the migrating node holds live cross-node state.
func e29System(mut func(*multi.Config)) (*multi.System, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	if mut != nil {
		mut(&cfg)
	}
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	far, err := s.Nodes[1].K.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	local, err := s.Nodes[0].K.AllocSegment(4096)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(`
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
	return s, nil
}

func e29Link() migrate.LinkConfig {
	return migrate.LinkConfig{LatencyCycles: 4, BytesPerCycle: 1024, RetransmitTimeout: 16}
}

// e29FullFP is the EXACT run fingerprint — cycles, system stats, NoC
// stats, per-node machine stats and every thread's architectural state
// — used by the abort-invariance gate.
func e29FullFP(s *multi.System, cycles uint64) (string, error) {
	fp := fmt.Sprintf("cycles=%d sys=%d stats=%+v net=%+v\n", cycles, s.Cycle(), s.Stats(), s.Net.Stats())
	for id, n := range s.Nodes {
		for _, th := range n.K.M.Threads() {
			if th.State != machine.Halted {
				return "", fmt.Errorf("e29: node %d thread did not halt: %v %v", id, th.State, th.Fault)
			}
			fp += fmt.Sprintf("node%d: instret=%d regs=%v\n", id, th.Instret, th.Regs)
		}
		fp += fmt.Sprintf("node%d stats: %+v\n", id, n.K.M.Stats())
	}
	return fp, nil
}

// e29Outcome is the timing-excluded architectural outcome, for the
// committed-migration comparison (a committed migration changes cycle
// accounting — wire time — but must not change what the program did).
func e29Outcome(s *multi.System) (uint64, error) {
	var all []*machine.Thread
	for id, n := range s.Nodes {
		for _, th := range n.K.M.Threads() {
			if th.State != machine.Halted {
				return 0, fmt.Errorf("e29: node %d thread did not halt: %v %v", id, th.State, th.Fault)
			}
		}
		all = append(all, s.Nodes[id].K.M.Threads()...)
	}
	return machine.FingerprintThreads(all), nil
}

func e29Diff() ([]e29DiffRow, bool, *migrate.Report, error) {
	// Reference: never migrated.
	ref, err := e29System(nil)
	if err != nil {
		return nil, false, nil, err
	}
	refCycles := ref.Run(300_000)
	refFull, err := e29FullFP(ref, refCycles)
	if err != nil {
		return nil, false, nil, err
	}
	refOutcome, err := e29Outcome(ref)
	if err != nil {
		return nil, false, nil, err
	}

	// Committed migration: same outcome, and a probe for the round count.
	com, err := e29System(func(c *multi.Config) {
		c.MigrateAt = 200
		c.Migrate = migrate.Config{Link: e29Link()}
	})
	if err != nil {
		return nil, false, nil, err
	}
	com.Run(300_000)
	probe := com.MigrateReport()
	if probe == nil || !probe.Committed {
		return nil, false, nil, fmt.Errorf("e29: armed migration did not commit: %+v", probe)
	}
	outcome, err := e29Outcome(com)
	if err != nil {
		return nil, false, nil, err
	}
	all := outcome == refOutcome
	rows := []e29DiffRow{{name: "commit", rounds: len(probe.Rounds), commit: true, match: outcome == refOutcome}}

	// Abort sweep: every round boundary plus mid-cutover must be
	// bit-identical to the never-migrated reference.
	sweep := make(map[string]migrate.Config)
	for r := 1; r <= len(probe.Rounds); r++ {
		sweep[fmt.Sprintf("abort@round-%d", r)] = migrate.Config{Link: e29Link(), AbortAtRound: r}
	}
	sweep["abort@cutover"] = migrate.Config{Link: e29Link(), AbortAtCutover: true}
	names := make([]string, 0, len(sweep))
	for r := 1; r <= len(probe.Rounds); r++ {
		names = append(names, fmt.Sprintf("abort@round-%d", r))
	}
	names = append(names, "abort@cutover")
	for _, name := range names {
		s, err := e29System(func(c *multi.Config) {
			c.MigrateAt = 200
			c.Migrate = sweep[name]
		})
		if err != nil {
			return nil, false, nil, err
		}
		cycles := s.Run(300_000)
		rep := s.MigrateReport()
		if rep == nil || rep.Committed {
			return nil, false, nil, fmt.Errorf("e29: %s did not abort: %+v", name, rep)
		}
		full, err := e29FullFP(s, cycles)
		if err != nil {
			return nil, false, nil, err
		}
		match := full == refFull
		all = all && match
		rows = append(rows, e29DiffRow{name: name, rounds: len(rep.Rounds), match: match})
	}
	return rows, all, probe, nil
}

// e29Sweep migrates a 200-page footprint while a step hook dirties a
// controlled fraction of the pages per pre-copy round: the deltas, the
// rounds to converge, and the cutover window are then pure functions of
// the dirty rate.
func e29Sweep() ([]e29SweepRow, error) {
	const pages = 200
	var rows []e29SweepRow
	for _, pct := range []int{1, 5, 10, 25, 50} {
		cfg := machine.MMachine()
		cfg.PhysBytes = 8 << 20
		k, err := kernel.New(cfg)
		if err != nil {
			return nil, err
		}
		seg, err := k.AllocSegment(pages * vm.PageSize)
		if err != nil {
			return nil, err
		}
		base := seg.Addr()
		sp := k.M.Space
		// Dense data so the full image has real weight.
		for p := 0; p < pages; p++ {
			for w := 0; w < vm.PageSize/8; w += 8 {
				off := uint64(p)*vm.PageSize + uint64(w)*8
				if err := sp.WriteWord(base+off, word.FromInt(int64(off*2654435761+1))); err != nil {
					return nil, err
				}
			}
		}

		n := pages * pct / 100
		stride := pages / n
		tick := int64(0)
		var stepErr error
		dirty := func(uint64) {
			tick++
			for i := 0; i < n; i++ {
				addr := base + uint64((i*stride)%pages)*vm.PageSize
				if err := sp.WriteWord(addr, word.FromInt(tick*1_000_000+int64(i))); err != nil {
					stepErr = err
					return
				}
			}
		}

		recv := migrate.NewReceiver()
		link := migrate.NewLink(migrate.LinkConfig{LatencyCycles: 16, BytesPerCycle: 64, RetransmitTimeout: 64})
		link.Deliver = recv.Deliver
		rep, err := migrate.Run(k, link, recv, dirty, migrate.Config{
			RoundBudget: 6, ConvergePages: pages / 20,
		})
		if err != nil {
			return nil, fmt.Errorf("e29: sweep %d%%: %w", pct, err)
		}
		if stepErr != nil {
			return nil, stepErr
		}
		if !rep.Committed {
			return nil, fmt.Errorf("e29: sweep %d%% did not commit: %s", pct, rep.Reason)
		}
		last := rep.Rounds[len(rep.Rounds)-1]
		rows = append(rows, e29SweepRow{
			pct:      pct,
			rounds:   len(rep.Rounds),
			pages:    last.Pages,
			baseWire: rep.Rounds[0].WireCycles,
			stw:      rep.STWCycles,
			ratio:    float64(rep.Rounds[0].WireCycles) / float64(rep.STWCycles),
		})
	}
	return rows, nil
}

func e29Compute() (*e29Results, error) {
	diff, all, probe, err := e29Diff()
	if err != nil {
		return nil, err
	}
	sweep, err := e29Sweep()
	if err != nil {
		return nil, err
	}
	campaign, err := faultinject.RunCampaign(faultinject.DefaultMigrateCampaign())
	if err != nil {
		return nil, err
	}
	return &e29Results{diff: diff, allMatch: all, probe: probe, sweep: sweep, campaign: campaign}, nil
}

func runE29() (string, error) {
	res, err := e29Compute()
	if err != nil {
		return "", err
	}

	tbl := stats.NewTable("Live-migration differential (2-node mesh, migration armed at cycle 200)",
		"scenario", "rounds", "ended", "fingerprint")
	for _, r := range res.diff {
		ended := "aborted"
		if r.commit {
			ended = "committed"
		}
		fp := "match"
		if !r.match {
			fp = "DIVERGED"
		}
		tbl.AddRow(r.name, r.rounds, ended, fp)
	}
	out := tbl.String()

	rt := stats.NewTable("\nCommitted pre-copy shape (pages per round shrink to the cutover delta)",
		"round", "pages", "tombstones", "bytes", "wire cycles")
	for i, rd := range res.probe.Rounds {
		rt.AddRow(fmt.Sprint(i+1), rd.Pages, rd.Tombstones, rd.Bytes, int(rd.WireCycles))
	}
	out += rt.String()
	out += fmt.Sprintf("\ncutover stop-the-world window: %d cycles (source stepped %d cycles during pre-copy)\n",
		res.probe.STWCycles, res.probe.SteppedCycles)

	st := stats.NewTable("\nDirty-rate sweep (200-page footprint, controlled pages dirtied per round)",
		"dirty/round", "rounds", "final pages", "full-image wire", "STW window", "ratio")
	for _, r := range res.sweep {
		st.AddRow(fmt.Sprintf("%d%%", r.pct), r.rounds, r.pages,
			int(r.baseWire), int(r.stw), fmt.Sprintf("%.1fx", r.ratio))
	}
	out += st.String()

	out += "\n" + res.campaign.Table()

	if !res.allMatch {
		return out, fmt.Errorf("e29: a migration scenario diverged from the never-migrated run")
	}
	if len(res.probe.Rounds) < 2 {
		return out, fmt.Errorf("e29: migration committed without iterative pre-copy")
	}
	for _, r := range res.sweep {
		if r.pct <= 10 && r.ratio < 5 {
			return out, fmt.Errorf("e29: STW at %d%% dirty only %.1fx below the full-image transfer (want ≥ 5x)", r.pct, r.ratio)
		}
	}
	if err := res.campaign.Gate(); err != nil {
		return out, fmt.Errorf("e29: %w", err)
	}
	if res.campaign.MigrateRetransmits == 0 {
		return out, fmt.Errorf("e29: no lossy-wire trial recovered by retransmission")
	}

	out += "\na committed migration preserves the never-migrated outcome and every abort —\n" +
		"at each round boundary and mid-cutover — is bit-identical to never migrating;\n" +
		"the cutover window is bounded by the final delta (≥5x below the full image at\n" +
		"≤10% dirty); and every seeded migration fault (lossy/corrupt/duplicated/torn\n" +
		"frames, source kill, standby crash, cutover interrupt) was tolerated, with wire\n" +
		"damage recovered by retransmission (wall-time twin: root BenchmarkMigrate_PreCopy)\n"
	return out, nil
}

package experiments

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/word"
)

func init() {
	register("E28",
		"Robustness — incremental crash-safe checkpoints: delta chains restore bit-identically from every generation, damaged stores fall back, deltas beat full gob capture",
		runE28)
}

// E28 audits the durable checkpoint pipeline in three movements:
//
//  1. Chain differential — a live workload is captured as a base plus
//     deltas into an on-disk store; EVERY generation is then restored
//     (replaying its delta chain) and run to completion, and each
//     restored run must reproduce the uninterrupted run's architectural
//     fingerprint bit for bit.
//  2. Persistence-fault campaign — seeded torn writes, truncations,
//     bit rot and missing generations against a pristine store; the
//     gate is zero unrecovered stores and zero silent divergence.
//  3. Capture cost — on a wide memory footprint, the bytes a delta
//     writes at 1% / 10% / 50% dirty ratios versus a full gob image;
//     the gate is ≥ 5× cheaper at 10% dirty. (Wall-time for the same
//     comparison is the root BenchmarkPersist_* rows; tables gate only
//     on deterministic byte counts.)

type e28ChainRow struct {
	gen   uint64
	kind  string
	pages int
	bytes uint64
	match bool
}

type e28Results struct {
	chain    []e28ChainRow
	allMatch bool
	campaign *faultinject.Result
	cost     []e28CostRow
}

type e28CostRow struct {
	pct        int
	dirtyPages int
	gobBytes   int
	deltaBytes int
	ratio      float64
}

// e28Workload boots the store-heavy loop used for the chain
// differential: it keeps dirtying its data segment so every delta has
// real content.
func e28Workload() (*kernel.Kernel, *machine.Thread, error) {
	prog, err := asm.Assemble(`
		ldi r2, 160
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
		return nil, nil, err
	}
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	k, err := kernel.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		return nil, nil, err
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		return nil, nil, err
	}
	th, err := k.Spawn(3, ip, map[int]word.Word{1: seg.Word()})
	if err != nil {
		return nil, nil, err
	}
	return k, th, nil
}

func e28Chain() ([]e28ChainRow, bool, error) {
	const gens, baseEvery, stride = 6, 3, 70

	kRef, thRef, err := e28Workload()
	if err != nil {
		return nil, false, err
	}
	kRef.Run(1_000_000)
	if thRef.State != machine.Halted {
		return nil, false, fmt.Errorf("e28: reference run %v %v", thRef.State, thRef.Fault)
	}
	refFP := machine.FingerprintThreads(kRef.M.Threads())

	dir, err := os.MkdirTemp("", "mme28-chain-")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, 1)
	if err != nil {
		return nil, false, err
	}
	sv, err := persist.NewSaver(st, baseEvery)
	if err != nil {
		return nil, false, err
	}
	k, _, err := e28Workload()
	if err != nil {
		return nil, false, err
	}
	var cycle uint64
	for g := 0; g < gens; g++ {
		cycle += k.Run(stride)
		if k.M.Done() {
			return nil, false, fmt.Errorf("e28: workload finished before generation %d", g+1)
		}
		if _, err := sv.Capture(k, cycle); err != nil {
			return nil, false, err
		}
	}

	descs, err := st.Describe()
	if err != nil {
		return nil, false, err
	}
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	var rows []e28ChainRow
	all := true
	for _, d := range descs {
		imgs, _, err := st.LoadImages(d.Gen)
		if err != nil {
			return nil, false, err
		}
		cps, _, err := st.LoadGeneration(d.Gen)
		if err != nil {
			return nil, false, err
		}
		k2, err := kernel.Restore(cfg, cps[0])
		if err != nil {
			return nil, false, err
		}
		k2.Run(1_000_000)
		match := k2.M.Done() && machine.FingerprintThreads(k2.M.Threads()) == refFP
		all = all && match
		kind := "base"
		if d.Delta {
			kind = "delta"
		}
		rows = append(rows, e28ChainRow{
			gen: d.Gen, kind: kind,
			pages: len(imgs[0].Resident) + len(imgs[0].Swapped),
			bytes: d.Bytes, match: match,
		})
	}
	return rows, all, nil
}

// e28Cost builds a ~200-page resident footprint, then measures how many
// bytes a delta capture writes when 1%, 10% and 50% of the pages are
// dirty, against a full gob image of the same machine.
func e28Cost() ([]e28CostRow, error) {
	const pages = 200
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
	s := k.M.Space
	// Dense data in every word: a zero-filled footprint would let gob's
	// omit-zero struct encoding shrink the full image to almost nothing
	// and make the comparison meaningless.
	for p := 0; p < pages; p++ {
		for w := 0; w < vm.PageSize/8; w++ {
			off := uint64(p)*vm.PageSize + uint64(w)*8
			if err := s.WriteWord(base+off, word.FromInt(int64(off*2654435761+1))); err != nil {
				return nil, err
			}
		}
	}
	_, st, err := k.CheckpointIncremental(nil) // arm the chain
	if err != nil {
		return nil, err
	}

	gobBytes := func() (int, error) {
		cp, err := k.Checkpoint()
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			return 0, err
		}
		return buf.Len(), nil
	}

	var rows []e28CostRow
	for _, pct := range []int{1, 10, 50} {
		n := pages * pct / 100
		stridePages := pages / n
		for i := 0; i < n; i++ {
			addr := base + uint64(i*stridePages)*vm.PageSize
			if err := s.WriteWord(addr, word.FromInt(int64(pct*1000+i))); err != nil {
				return nil, err
			}
		}
		gb, err := gobBytes()
		if err != nil {
			return nil, err
		}
		cp, nst, err := k.CheckpointIncremental(st)
		if err != nil {
			return nil, err
		}
		st = nst
		if !cp.Delta || len(cp.Resident) != n {
			return nil, fmt.Errorf("e28: %d%% dirty captured %d pages, want %d", pct, len(cp.Resident), n)
		}
		var buf bytes.Buffer
		hdr := persist.Header{Gen: uint64(pct), Parent: uint64(pct) - 1, Delta: true}
		if err := persist.Encode(&buf, hdr, cp); err != nil {
			return nil, err
		}
		rows = append(rows, e28CostRow{
			pct: pct, dirtyPages: n, gobBytes: gb, deltaBytes: buf.Len(),
			ratio: float64(gb) / float64(buf.Len()),
		})
	}
	return rows, nil
}

func e28Compute() (*e28Results, error) {
	chain, all, err := e28Chain()
	if err != nil {
		return nil, err
	}
	campaign, err := faultinject.RunCampaign(faultinject.DefaultPersistCampaign())
	if err != nil {
		return nil, err
	}
	cost, err := e28Cost()
	if err != nil {
		return nil, err
	}
	return &e28Results{chain: chain, allMatch: all, campaign: campaign, cost: cost}, nil
}

func runE28() (string, error) {
	res, err := e28Compute()
	if err != nil {
		return "", err
	}

	tbl := stats.NewTable("Delta-chain differential (restore every generation, run to completion)",
		"generation", "kind", "pages", "bytes", "fingerprint")
	for _, r := range res.chain {
		fp := "match"
		if !r.match {
			fp = "DIVERGED"
		}
		tbl.AddRow(fmt.Sprint(r.gen), r.kind, r.pages, int(r.bytes), fp)
	}
	out := tbl.String()

	out += "\n" + res.campaign.Table()

	ct := stats.NewTable("\nCapture cost: incremental delta vs full gob image (200-page footprint)",
		"dirty", "pages", "full gob B", "delta B", "ratio")
	for _, r := range res.cost {
		ct.AddRow(fmt.Sprintf("%d%%", r.pct), r.dirtyPages, r.gobBytes, r.deltaBytes,
			fmt.Sprintf("%.1fx", r.ratio))
	}
	out += ct.String()

	if !res.allMatch {
		return out, fmt.Errorf("e28: a restored generation diverged from the clean run")
	}
	if err := res.campaign.Gate(); err != nil {
		return out, fmt.Errorf("e28: %w", err)
	}
	for _, r := range res.cost {
		if r.pct == 10 && r.ratio < 5 {
			return out, fmt.Errorf("e28: delta at 10%% dirty only %.1fx cheaper than full gob (want ≥ 5x)", r.ratio)
		}
	}
	out += "\nevery generation of the delta chain restores to the clean fingerprint; every seeded\n" +
		"store damage (torn write, truncation, bit rot, missing generation) was either masked\n" +
		"or detected-and-recovered by falling back to an intact generation; and incremental\n" +
		"capture at 10% dirty writes the required ≥5x fewer bytes than a full gob image\n" +
		"(wall-time twin: root BenchmarkPersist_FullGob/BenchmarkPersist_Delta, make bench)\n"
	return out, nil
}

package kernel

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

// incProg is a store-heavy loop that keeps dirtying its data segment —
// the workload an incremental chain has to track faithfully.
func incBuild(t *testing.T) (*Kernel, *machine.Thread) {
	t.Helper()
	prog := mustAssemble(`
		ldi r2, 120
		ldi r4, 0
	loop:
		ld   r5, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
		add  r4, r4, r5
		st   r1, 8, r4
		leai r6, r1, 16
		st   r6, 0, r6   ; park a capability in memory
		subi r2, r2, 1
		bnez r2, loop
		halt
	`)
	k := testKernel(t)
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	th, err := k.Spawn(3, ip, map[int]word.Word{1: seg.Word()})
	if err != nil {
		t.Fatal(err)
	}
	return k, th
}

// TestIncrementalChainDifferential captures a base plus two deltas at
// arbitrary points of a run, then restores the chain at EVERY
// generation, finishes each restored machine, and demands the reference
// outcome. Deltas must also be small: only the dirtied pages.
func TestIncrementalChainDifferential(t *testing.T) {
	kRef, thRef := incBuild(t)
	kRef.Run(1_000_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	k, th := incBuild(t)
	var chain []*Checkpoint
	var st *CaptureState
	for g := 0; g < 3; g++ {
		for i := 0; i < 90; i++ {
			k.M.Step()
		}
		cp, nst, err := k.CheckpointIncremental(st)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, cp)
		st = nst
	}
	if th.Done() {
		t.Fatal("program finished before the chain was captured — lengthen it")
	}
	if chain[0].Delta {
		t.Fatal("first generation is not a base image")
	}
	for g := 1; g < len(chain); g++ {
		if !chain[g].Delta {
			t.Fatalf("generation %d is not a delta", g)
		}
		if len(chain[g].Resident) >= len(chain[0].Resident) {
			t.Fatalf("delta %d carries %d pages, base carries %d — not incremental",
				g, len(chain[g].Resident), len(chain[0].Resident))
		}
	}

	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	for g := 1; g <= len(chain); g++ {
		cp, err := Materialize(chain[:g])
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		k2, err := Restore(cfg, cp)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		k2.Run(1_000_000)
		th2 := k2.M.Threads()[0]
		if th2.State != machine.Halted {
			t.Fatalf("generation %d: restored run %v %v", g, th2.State, th2.Fault)
		}
		for r := 0; r < 16; r++ {
			if th2.Reg(r) != thRef.Reg(r) {
				t.Errorf("generation %d r%d: restored %v vs reference %v", g, r, th2.Reg(r), thRef.Reg(r))
			}
		}
	}
}

// TestIncrementalDeltaCompleteness drives the mutations a store's dirty
// bit does not mark — swap round trips, backing-store scrubs, unmapped
// pages, a freed page re-mapped onto its recycled frame — and checks
// each lands in the delta (or its tombstones), that a swapped page
// swapped in and out again unwritten does not, and that the chain
// materializes to a full capture, page for page.
func TestIncrementalDeltaCompleteness(t *testing.T) {
	k := testKernel(t)
	seg, err := k.AllocSegment(4 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	base := seg.Addr()
	s := k.M.Space
	cp, st, err := k.CheckpointIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*Checkpoint{cp}
	capture := func() *Checkpoint {
		t.Helper()
		cp, st, err = k.CheckpointIncremental(st)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, cp)
		return cp
	}

	// Swap a page out: its contents move to the backing store.
	if err := s.WriteWord(base, word.FromInt(11)); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapOut(base); err != nil {
		t.Fatal(err)
	}
	cp = capture()
	page := base &^ uint64(vm.PageMask)
	if len(cp.Swapped) != 1 || cp.Swapped[0].VAddr != page {
		t.Fatalf("swap-out not in delta: %+v", cp.Swapped)
	}
	if !slices.Contains(cp.Dropped, page) {
		t.Fatalf("swapped-out page not tombstoned from residency: %v", cp.Dropped)
	}

	// Scrub the swapped page (FreeSegment does this): content
	// change with no dirty bit anywhere.
	if err := s.ZeroWords(base, base+64); err != nil {
		t.Fatal(err)
	}
	cp = capture()
	if len(cp.Swapped) != 1 || cp.Swapped[0].VAddr != page || cp.Swapped[0].Page.Word(0).Int() != 0 {
		t.Fatalf("swap scrub not in delta: %+v", cp.Swapped)
	}

	// Swap in and out again with no write: the store holds the very page
	// the previous generation holds, so nothing ships.
	if err := s.SwapIn(base); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapOut(base); err != nil {
		t.Fatal(err)
	}
	cp = capture()
	if len(cp.Resident) != 0 || len(cp.Swapped) != 0 || len(cp.Dropped) != 0 || len(cp.SwapDropped) != 0 {
		t.Fatalf("unwritten swap round trip shipped: %d/%d pages, %d/%d tombstones",
			len(cp.Resident), len(cp.Swapped), len(cp.Dropped), len(cp.SwapDropped))
	}

	// Swap back in: the page is resident again (a new translation) and
	// gone from the backing store.
	if err := s.SwapIn(base); err != nil {
		t.Fatal(err)
	}
	cp = capture()
	if len(cp.Resident) != 1 || cp.Resident[0].VAddr != page {
		t.Fatalf("swap-in not in delta: %d resident pages", len(cp.Resident))
	}
	if len(cp.SwapDropped) != 1 || cp.SwapDropped[0] != page {
		t.Fatalf("swap-in not tombstoned from backing store: %v", cp.SwapDropped)
	}

	// Free a written page and map it again: the allocator hands back
	// its own frame, zeroed, so page and frame match the previous
	// capture and only the new translation's dirty bit tells.
	next := page + vm.PageSize
	if err := s.WriteWord(next, word.FromInt(22)); err != nil {
		t.Fatal(err)
	}
	capture()
	before, _ := s.PT.Lookup(next)
	if _, err := s.UnmapRange(next, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureMapped(next, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.PT.Lookup(next); after.Frame != before.Frame {
		t.Fatalf("re-map took frame %#x, want the recycled %#x", after.Frame, before.Frame)
	}
	cp = capture()
	if len(cp.Resident) != 1 || cp.Resident[0].VAddr != next || cp.Resident[0].Page.Word(0).Int() != 0 {
		t.Fatalf("re-map onto a recycled frame not in delta: %+v", cp.Resident)
	}

	// Quiescent interval → empty delta.
	cp = capture()
	if len(cp.Resident) != 0 || len(cp.Swapped) != 0 || len(cp.Dropped) != 0 || len(cp.SwapDropped) != 0 {
		t.Fatalf("quiescent delta not empty: %d/%d pages, %d/%d tombstones",
			len(cp.Resident), len(cp.Swapped), len(cp.Dropped), len(cp.SwapDropped))
	}

	got, err := Materialize(chain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Resident, want.Resident) || !reflect.DeepEqual(got.Swapped, want.Swapped) {
		t.Fatalf("chain materializes to %d resident and %d swapped pages unlike a full capture's %d and %d",
			len(got.Resident), len(got.Swapped), len(want.Resident), len(want.Swapped))
	}
}

// TestIncrementalStaleStateFallsBackToBase: a CaptureState taken from a
// different machine (e.g. before a restore swapped the kernel) must not
// produce a bogus delta — the capture silently re-bases.
func TestIncrementalStaleStateFallsBackToBase(t *testing.T) {
	k1, _ := incBuild(t)
	_, st, err := k1.CheckpointIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := incBuild(t)
	cp, _, err := k2.CheckpointIncremental(st)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Delta {
		t.Fatal("stale capture state produced a delta against the wrong machine")
	}
}

// TestMaterializeRejectsMalformedChains covers the chain-shape errors
// and the guard against restoring a bare delta.
func TestMaterializeRejectsMalformedChains(t *testing.T) {
	if _, err := Materialize(nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := Materialize([]*Checkpoint{{Delta: true}}); err == nil {
		t.Error("delta-first chain accepted")
	}
	if _, err := Materialize([]*Checkpoint{{}, {}}); err == nil {
		t.Error("base image mid-chain accepted")
	}
	cfg := machine.MMachine()
	if _, err := Restore(cfg, &Checkpoint{Delta: true}); err == nil {
		t.Error("bare delta restore accepted")
	}
}

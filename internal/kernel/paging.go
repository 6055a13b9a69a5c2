package kernel

import (
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vm"
)

// This file implements the kernel's demand pager. The paper's memory
// system assumes conventional paging underneath segments (Sec 5.2);
// in a single-address-space machine the pager is trivially shared by
// every protection domain — there is one page table, one backing
// store, and no per-process pager state.
//
// The pager hooks the machine's precise-fault path: a load, store or
// instruction fetch that touches a non-resident page faults *before
// any state is committed*, the kernel materializes the page (demand-
// zero for fresh pages of a lazy segment, swap-in for evicted pages,
// evicting a victim with a round-robin clock if no frame is free), the
// handler returns true, and the instruction re-executes.

// PagingStats counts pager activity.
type PagingStats struct {
	DemandZero uint64 // fresh pages materialized
	SwapIns    uint64
	SwapOuts   uint64
	Evictions  uint64
	Refused    uint64 // faults the pager declined (not its addresses)
}

// EnableDemandPaging installs the pager as the machine's fault
// handler, chaining to any previously installed handler for faults it
// does not own. reserve is the number of physical frames the pager
// must leave free (headroom for kernel allocations); 0 is fine for
// experiments.
func (k *Kernel) EnableDemandPaging(reserve int) {
	k.pagerReserve = reserve
	prev := k.M.OnFault
	k.M.OnFault = func(m *machine.Machine, t *machine.Thread, err error) bool {
		var pf *vm.PageFaultError
		if errors.As(err, &pf) {
			wasSwapped := k.M.Space.Swapped(pf.VAddr &^ uint64(vm.PageMask))
			if k.handlePageFault(pf.VAddr) {
				// Charge the fault-service time; the instruction
				// retries when the thread unblocks.
				cost := k.zeroCost
				if wasSwapped {
					cost = k.swapCost
				}
				if cost > 0 {
					t.State = machine.Blocked
					t.BlockUntil(m.Cycle() + cost)
				}
				return true
			}
		}
		if prev != nil {
			return prev(m, t, err)
		}
		return false
	}
}

// SetPagingCosts sets the cycles a faulting thread is stalled while
// the pager services a demand-zero fill and a swap-in (the backing
// store is orders of magnitude slower than memory). Defaults are zero
// so functional tests run fast.
func (k *Kernel) SetPagingCosts(zero, swap uint64) {
	k.zeroCost, k.swapCost = zero, swap
}

// PagingStatsSnapshot returns a copy of the pager counters.
func (k *Kernel) PagingStatsSnapshot() PagingStats { return k.pagingStats }

// AllocSegmentLazy reserves and registers a segment like AllocSegment
// but materializes no pages: each page appears, zeroed, on first touch
// (the pager must be enabled). Large or sparsely used segments cost
// only the physical memory they actually touch — the Sec 4.2 argument
// for why power-of-two virtual rounding wastes little physical space.
func (k *Kernel) AllocSegmentLazy(size uint64) (core.Pointer, error) {
	base, logLen, err := k.VAS.AllocBytes(size)
	if err != nil {
		return core.Pointer{}, err
	}
	p, err := core.Make(core.PermReadWrite, logLen, base)
	if err != nil {
		k.VAS.Free(base)
		return core.Pointer{}, err
	}
	k.segments[base] = logLen
	for _, pg := range pagesOf(base, uint64(1)<<logLen) {
		k.pageRefs[pg]++
	}
	k.stats.SegmentsAllocated++
	return p, nil
}

// handlePageFault materializes the page containing vaddr if the pager
// owns it: a swapped page is brought back; an unmapped page inside a
// registered segment is demand-zeroed. Returns false for addresses the
// pager does not manage.
func (k *Kernel) handlePageFault(vaddr uint64) bool {
	page := vaddr &^ uint64(vm.PageMask)
	s := k.M.Space
	switch {
	case s.Swapped(page):
		if !k.ensureFrame(page) {
			k.pagingStats.Refused++
			return false
		}
		if err := s.SwapIn(page); err != nil {
			k.pagingStats.Refused++
			return false
		}
		k.pagingStats.SwapIns++
		return true
	default:
		if _, _, ok := k.findSegment(vaddr); !ok {
			k.pagingStats.Refused++
			return false
		}
		if k.revoked[pageSegBase(k, vaddr)] {
			k.pagingStats.Refused++
			return false // revoked segments stay dead
		}
		if !k.ensureFrame(page) {
			k.pagingStats.Refused++
			return false
		}
		if err := s.EnsureMapped(page, vm.PageSize); err != nil {
			k.pagingStats.Refused++
			return false
		}
		k.pagingStats.DemandZero++
		return true
	}
}

func pageSegBase(k *Kernel, vaddr uint64) uint64 {
	base, _, _ := k.findSegment(vaddr)
	return base
}

// ensureFrame makes sure at least one frame (plus the reserve) is
// free, evicting resident pages with a round-robin clock. protect is
// the page being faulted in — never chosen as victim.
func (k *Kernel) ensureFrame(protect uint64) bool {
	s := k.M.Space
	for s.Frames.Free() <= k.pagerReserve {
		victim, ok := k.pickVictim(protect)
		if !ok {
			return false
		}
		if err := s.SwapOut(victim); err != nil {
			return false
		}
		k.M.Cache.InvalidateRange(victim, vm.PageSize)
		k.pagingStats.SwapOuts++
		k.pagingStats.Evictions++
	}
	return true
}

// pickVictim chooses the next resident page after the clock hand,
// skipping the protected page.
func (k *Kernel) pickVictim(protect uint64) (uint64, bool) {
	resident := k.M.Space.ResidentPages()
	if len(resident) == 0 {
		return 0, false
	}
	// Advance the hand past its previous position.
	i := sort.Search(len(resident), func(i int) bool { return resident[i] > k.clockHand })
	for n := 0; n < len(resident); n++ {
		pg := resident[(i+n)%len(resident)]
		if pg == protect {
			continue
		}
		k.clockHand = pg
		return pg, true
	}
	return 0, false
}

// ResidentFrames reports frames in use (total − free).
func (k *Kernel) ResidentFrames() int {
	return k.M.Space.Frames.Total() - k.M.Space.Frames.Free()
}

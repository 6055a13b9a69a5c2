package vm

import (
	"sort"

	"repro/internal/mem"
)

// This file is the translation layer's side of incremental
// checkpointing (internal/persist): observing and clearing the page
// table's dirty bits atomically with respect to a capture barrier, and
// tracking the two mutations dirty bits cannot express — fresh mappings
// (a re-map after a free can reuse a frame with new contents and a
// clean PTE) and backing-store writes (swap-out, checkpoint swap
// restore, ZeroWords scrubbing a swapped page).

// CollectDirty returns the base address of every resident page whose
// dirty bit is set, in ascending page order. When clear is set the bits
// are cleared in the same walk, so a store landing after the walk—
// however soon — is guaranteed to set the bit again for the next
// collection: observe and clear are one pass, never two.
func (pt *PageTable) CollectDirty(clear bool) []uint64 {
	var pages []uint64
	pt.Walk(func(page uint64, pte PTE) bool {
		if pte.Dirty {
			pages = append(pages, page)
			if clear {
				pte.Dirty = false
				pt.ptes[vpnOf(page)] = pte
			}
		}
		return true
	})
	return pages
}

// DirtyPages returns every resident page dirtied since the last
// clearing pass, ascending. With clear set, the page-table bits are
// cleared in the same single pass AND the translation micro-cache's
// per-entry dirty hints are dropped with them. The hints matter:
// setDirtyFast's fast path relies on the invariant that the PT never
// clears a dirty bit while a page stays mapped. A capture that cleared
// PT bits but left the hints standing would make the very next store to
// a hint-covered page skip PT.SetDirty — and that page would silently
// vanish from the next delta.
func (s *Space) DirtyPages(clear bool) []uint64 {
	pages := s.PT.CollectDirty(clear)
	if clear {
		for i := range s.tc {
			s.tc[i].dirty = false
		}
	}
	return pages
}

// StartCaptureTracking arms the mutation sets DrainCaptureTouched
// reports. Idempotent; tracking stays on for the Space's lifetime (the
// cost is a map insert on swap traffic and fresh mappings only).
func (s *Space) StartCaptureTracking() {
	s.track = true
	if s.freshMaps == nil {
		s.freshMaps = make(map[uint64]struct{})
		s.touchedSwap = make(map[uint64]struct{})
	}
}

// trackMap records a page freshly entered into the page table.
func (s *Space) trackMap(page uint64) {
	if s.track {
		s.freshMaps[page] = struct{}{}
	}
}

// trackSwap records a backing-store page whose contents changed.
func (s *Space) trackSwap(page uint64) {
	if s.track {
		s.touchedSwap[page] = struct{}{}
	}
}

// DrainCaptureTouched returns (and resets) the pages freshly mapped and
// the backing-store pages mutated since the previous drain, each sorted
// ascending. Meaningful only after StartCaptureTracking.
func (s *Space) DrainCaptureTouched() (freshMapped, swapTouched []uint64) {
	for p := range s.freshMaps {
		freshMapped = append(freshMapped, p)
		delete(s.freshMaps, p)
	}
	for p := range s.touchedSwap {
		swapTouched = append(swapTouched, p)
		delete(s.touchedSwap, p)
	}
	sort.Slice(freshMapped, func(i, j int) bool { return freshMapped[i] < freshMapped[j] })
	sort.Slice(swapTouched, func(i, j int) bool { return swapTouched[i] < swapTouched[j] })
	return freshMapped, swapTouched
}

// SwapPage returns one backing-store page (by any address within it)
// and whether it exists. The page is shared, not copied: nothing writes
// a stored page (a nil page is a page of untagged zeros).
func (s *Space) SwapPage(vaddr uint64) (*mem.Page, bool) {
	pg, ok := s.swap[vaddr&^uint64(PageMask)]
	return pg, ok
}

// SwapPageList returns the base address of every backing-store page,
// sorted ascending.
func (s *Space) SwapPageList() []uint64 {
	pages := make([]uint64, 0, len(s.swap))
	for p := range s.swap {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

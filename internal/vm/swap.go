package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// This file adds the backing store under the paging layer. The paper
// assumes conventional paging beneath segmentation ("segmentation is
// often implemented on top of a paging system which is responsible for
// transferring fixed size pages", Sec 5.2); a single-address-space
// system pages exactly like any other — the swap is keyed by virtual
// page, and no per-process state exists.
//
// Swapped pages preserve their tag bits: capabilities survive a round
// trip through the backing store, which is essential — paging out a
// segment full of pointers must not launder or destroy them. The store
// holds the physical memory's own storage pages (mem.Page): a swap-out
// snapshots the frame's page and a swap-in adopts it, so neither copies
// the words, and a checkpoint shares the stored pages the same way.

// A page is one storage page of physical memory, so a frame's snapshot
// is the whole page (this fails to compile if the sizes ever differ).
var _ = [1]struct{}{}[PageSize-mem.PageWords*word.BytesPerWord]

// SwapStats counts backing-store traffic.
type SwapStats struct {
	SwapOuts uint64
	SwapIns  uint64
}

// EnsureSwap lazily creates the backing store.
func (s *Space) ensureSwap() {
	if s.swap == nil {
		s.swap = make(map[uint64]*mem.Page)
	}
}

// Swapped reports whether the page containing vaddr is in the backing
// store.
func (s *Space) Swapped(vaddr uint64) bool {
	_, ok := s.swap[vaddr&^uint64(PageMask)]
	return ok
}

// SwappedPages returns the number of pages in the backing store.
func (s *Space) SwappedPages() int { return len(s.swap) }

// SwapStatsSnapshot returns a copy of the swap counters.
func (s *Space) SwapStatsSnapshot() SwapStats { return s.swapStats }

// SwapOut writes the resident page containing vaddr to the backing
// store, unmaps it, shoots it from the TLB and releases its frame.
func (s *Space) SwapOut(vaddr uint64) error {
	page := vaddr &^ uint64(PageMask)
	pte, ok := s.PT.Lookup(page)
	if !ok {
		return fmt.Errorf("vm: swap-out of non-resident page %#x", page)
	}
	s.ensureSwap()
	pg, err := s.Phys.Snapshot(pte.Frame)
	if err != nil {
		return err
	}
	s.swap[page] = pg
	s.trackSwap(page)
	s.PT.Unmap(page)
	s.TLB.Invalidate(page)
	if err := s.Frames.Release(pte.Frame); err != nil {
		return err
	}
	s.swapStats.SwapOuts++
	if s.Tracer != nil && s.Tracer.Enabled(telemetry.EvSwapOut) {
		s.Tracer.Emit(telemetry.Event{Cycle: s.cycle(), Kind: telemetry.EvSwapOut,
			Thread: -1, Cluster: -1, Domain: -1, Addr: page})
	}
	return nil
}

// SwapIn restores the page containing vaddr from the backing store
// into a free frame. The caller must have ensured a frame is free
// (evicting another page if necessary).
func (s *Space) SwapIn(vaddr uint64) error {
	page := vaddr &^ uint64(PageMask)
	pg, ok := s.swap[page]
	if !ok {
		return fmt.Errorf("vm: swap-in of page %#x not in backing store", page)
	}
	frame, err := s.Frames.Alloc()
	if err != nil {
		return fmt.Errorf("vm: swap-in of %#x: %w", page, err)
	}
	if err := s.Phys.Adopt(frame, pg); err != nil {
		return err
	}
	if err := s.PT.Map(page, frame); err != nil {
		return err
	}
	s.trackMap(page)
	delete(s.swap, page)
	s.swapStats.SwapIns++
	if s.Tracer != nil && s.Tracer.Enabled(telemetry.EvSwapIn) {
		s.Tracer.Emit(telemetry.Event{Cycle: s.cycle(), Kind: telemetry.EvSwapIn,
			Thread: -1, Cluster: -1, Domain: -1, Addr: page})
	}
	return nil
}

// DropSwapped discards any backing-store copy of the page containing
// vaddr (used when the segment owning it is freed).
func (s *Space) DropSwapped(vaddr uint64) {
	delete(s.swap, vaddr&^uint64(PageMask))
}

// ResidentPages returns the base addresses of all mapped pages,
// ascending.
func (s *Space) ResidentPages() []uint64 {
	pages := make([]uint64, 0, s.PT.Entries())
	s.PT.Walk(func(page uint64, _ PTE) bool {
		pages = append(pages, page)
		return true
	})
	return pages
}

// ZeroWords zeroes the word range [lo, hi) wherever the words
// currently live: resident pages are written through physical memory,
// a swapped page is replaced in the backing store by a copy with the
// range cleared, and pages that were never materialized are already
// zero by definition (demand-zero).
func (s *Space) ZeroWords(lo, hi uint64) error {
	if hi <= lo {
		return nil
	}
	for page := lo &^ uint64(PageMask); page < hi; page += PageSize {
		plo, phi := page, page+PageSize
		if plo < lo {
			plo = lo
		}
		if phi > hi {
			phi = hi
		}
		if pg, ok := s.swap[page]; ok {
			s.swap[page] = pg.Cleared(int(plo-page)/word.BytesPerWord, int(phi-page)/word.BytesPerWord)
			s.trackSwap(page)
			continue
		}
		if _, ok := s.PT.Lookup(page); !ok {
			continue
		}
		for a := plo; a < phi; a += word.BytesPerWord {
			if err := s.WriteWord(a, word.Word{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreSwapPage installs a page image directly into the backing
// store — the restore path for checkpointed swap state. The store
// shares pg: no path writes a stored page, and ZeroWords replaces one
// instead of clearing it in place.
func (s *Space) RestoreSwapPage(page uint64, pg *mem.Page) error {
	if page&uint64(PageMask) != 0 {
		return fmt.Errorf("vm: swap restore of unaligned page %#x", page)
	}
	s.ensureSwap()
	s.swap[page] = pg
	s.trackSwap(page)
	return nil
}

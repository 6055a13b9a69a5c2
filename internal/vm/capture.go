package vm

// This file is the translation layer's side of incremental
// checkpointing (internal/kernel, internal/persist). What changed since
// the last generation is one bit per resident page: stores set it, and
// so does every new translation (PageTable.Map), so a demand map, a
// swap-in and a re-map onto a recycled frame ship in the next delta with
// nothing recorded beside the bit. A capture observes and clears the
// bits in one pass. The backing store needs no bit: nothing writes a
// stored page in place (swap.go), so a stored page changed exactly when
// the store holds a different *mem.Page for it.

// CollectDirty returns the base address of every resident page whose
// dirty bit is set, in ascending page order, and clears the bits in the
// same walk, so a store landing after the walk — however soon — sets the
// bit again for the next collection: observe and clear are one pass,
// never two.
func (pt *PageTable) CollectDirty() []uint64 {
	var pages []uint64
	pt.Walk(func(page uint64, pte PTE) bool {
		if pte.Dirty {
			pages = append(pages, page)
			pte.Dirty = false
			pt.ptes[vpnOf(page)] = pte
		}
		return true
	})
	return pages
}

// DirtyPages returns every resident page dirtied or newly mapped since
// the last call, ascending, and clears the page-table bits in the same
// single pass AND the translation micro-cache's per-entry dirty hints
// with them. The hints matter: setDirtyFast's fast path relies on the
// invariant that the PT never clears a dirty bit while a page stays
// mapped. A capture that cleared PT bits but left the hints standing
// would make the very next store to a hint-covered page skip
// PT.SetDirty — and that page would silently vanish from the next delta.
func (s *Space) DirtyPages() []uint64 {
	pages := s.PT.CollectDirty()
	for i := range s.tc {
		s.tc[i].dirty = false
	}
	return pages
}

package kernel

import (
	"fmt"
	"sort"

	"repro/internal/vm"
)

// Incremental checkpointing: capture cost proportional to the pages
// actually dirtied since the previous generation, instead of O(memory)
// per capture. A chain is one base image followed by delta images; each
// delta records the pages changed since its parent plus tombstones for
// pages that disappeared. Restoring generation N replays deltas 1..N
// onto the base (Materialize) and hands the merged base image to the
// ordinary Restore.
//
// Completeness does not rest on dirty bits alone. Three mutations leave
// no dirty bit on a resident PTE and are tracked separately by the
// Space (vm/capture.go): a page freshly mapped (re-map after free can
// reuse a frame, contents new, PTE clean), a page whose frame changed
// (swap round trip), and a backing-store page whose contents changed
// (swap-out, ZeroWords on a swapped page). The capture barrier is
// atomic: dirty bits are observed and cleared in one pass, micro-cache
// dirty hints dropped with them, so a store racing the capture is never
// dropped from the next delta.

// CaptureState is the between-generation bookkeeping of an incremental
// chain: the residency manifest of the previous capture. It is bound to
// the Space it was taken from — restoring a kernel produces a fresh
// Space, so a stale CaptureState is rejected rather than producing a
// delta against a machine that no longer exists.
type CaptureState struct {
	space    *vm.Space
	resident map[uint64]uint64 // page → frame at the previous capture
	swapped  map[uint64]struct{}
}

// Matches reports whether cs is a usable baseline for k — non-nil and
// bound to k's current Space. A false answer means the next incremental
// capture must be a full base image.
func (cs *CaptureState) Matches(k *Kernel) bool {
	return cs != nil && k != nil && cs.space == k.M.Space
}

// readPage captures one resident page: a snapshot of its storage page,
// read through the physical plane (ECC heals correctable decay on the
// way into the image) and shared with the memory, not copied.
func (k *Kernel) readPage(page, frame uint64) (PageImage, error) {
	pg, err := k.M.Space.Phys.Snapshot(frame)
	if err != nil {
		return PageImage{}, err
	}
	return PageImage{VAddr: page, Frame: frame, Page: pg}, nil
}

// manifest records the Space's current residency for the next delta.
func manifest(s *vm.Space) *CaptureState {
	st := &CaptureState{
		space:    s,
		resident: make(map[uint64]uint64),
		swapped:  make(map[uint64]struct{}),
	}
	s.PT.Walk(func(page uint64, pte vm.PTE) bool {
		st.resident[page] = pte.Frame
		return true
	})
	for _, p := range s.SwapPageList() {
		st.swapped[p] = struct{}{}
	}
	return st
}

// CheckpointIncremental captures the next generation of an incremental
// chain. A nil (or stale) prev produces a full base image and arms the
// chain; a valid prev produces a delta holding only the pages changed
// since prev was taken. Call with the machine quiescent, like
// Checkpoint. The returned CaptureState feeds the next call.
func (k *Kernel) CheckpointIncremental(prev *CaptureState) (*Checkpoint, *CaptureState, error) {
	s := k.M.Space
	if prev == nil || prev.space != s {
		cp, err := k.Checkpoint()
		if err != nil {
			return nil, nil, err
		}
		// Arm tracking and reset the observation window: everything up
		// to here is in the base by construction.
		s.StartCaptureTracking()
		s.DrainCaptureTouched()
		s.DirtyPages(true)
		return cp, manifest(s), nil
	}

	// One atomic observe-and-clear pass, then the sets dirty bits cannot
	// express.
	dirty := s.DirtyPages(true)
	fresh, swapTouched := s.DrainCaptureTouched()

	current := make(map[uint64]uint64, s.PT.Entries())
	s.PT.Walk(func(page uint64, pte vm.PTE) bool {
		current[page] = pte.Frame
		return true
	})

	changed := make(map[uint64]struct{})
	for _, p := range dirty {
		if _, ok := current[p]; ok {
			changed[p] = struct{}{}
		}
	}
	for _, p := range fresh {
		if _, ok := current[p]; ok {
			changed[p] = struct{}{}
		}
	}
	for p, f := range current {
		if pf, ok := prev.resident[p]; !ok || pf != f {
			changed[p] = struct{}{}
		}
	}

	cp := &Checkpoint{
		Delta:      true,
		RegionBase: k.regionBase,
		RegionLog:  k.regionLog,
		Segments:   make(map[uint64]uint, len(k.segments)),
		Revoked:    make(map[uint64]bool, len(k.revoked)),
		NextDomain: k.nextDomain,
	}
	for b, l := range k.segments {
		cp.Segments[b] = l
	}
	for b := range k.revoked {
		cp.Revoked[b] = true
	}

	pages := make([]uint64, 0, len(changed))
	for p := range changed {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		img, err := k.readPage(p, current[p])
		if err != nil {
			return nil, nil, err
		}
		cp.Resident = append(cp.Resident, img)
	}
	for p := range prev.resident {
		if _, ok := current[p]; !ok {
			cp.Dropped = append(cp.Dropped, p)
		}
	}
	sort.Slice(cp.Dropped, func(i, j int) bool { return cp.Dropped[i] < cp.Dropped[j] })

	swapNow := make(map[uint64]struct{})
	swapChanged := make(map[uint64]struct{})
	for _, p := range s.SwapPageList() {
		swapNow[p] = struct{}{}
		if _, ok := prev.swapped[p]; !ok {
			swapChanged[p] = struct{}{}
		}
	}
	for _, p := range swapTouched {
		if _, ok := swapNow[p]; ok {
			swapChanged[p] = struct{}{}
		}
	}
	swapPages := make([]uint64, 0, len(swapChanged))
	for p := range swapChanged {
		swapPages = append(swapPages, p)
	}
	sort.Slice(swapPages, func(i, j int) bool { return swapPages[i] < swapPages[j] })
	for _, p := range swapPages {
		pg, ok := s.SwapPage(p)
		if !ok {
			return nil, nil, fmt.Errorf("kernel: swap page %#x vanished during capture", p)
		}
		cp.Swapped = append(cp.Swapped, PageImage{VAddr: p, Page: pg})
	}
	for p := range prev.swapped {
		if _, ok := swapNow[p]; !ok {
			cp.SwapDropped = append(cp.SwapDropped, p)
		}
	}
	sort.Slice(cp.SwapDropped, func(i, j int) bool { return cp.SwapDropped[i] < cp.SwapDropped[j] })

	for _, t := range k.M.Threads() {
		cp.Threads = append(cp.Threads, ThreadImage{
			Domain:  t.Domain,
			State:   t.State,
			IPWord:  t.IP.Word(),
			Regs:    t.Regs,
			Instret: t.Instret,
		})
	}

	st := &CaptureState{space: s, resident: current, swapped: swapNow}
	return cp, st, nil
}

// Materialize flattens a delta chain — one base image followed by its
// deltas, oldest first — into a self-contained base image equivalent to
// a full capture at the final generation. Metadata and threads come
// from the newest image; page state is the base overlaid by each delta
// in order, tombstones applied before that delta's pages.
func Materialize(chain []*Checkpoint) (*Checkpoint, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("kernel: materialize of empty chain")
	}
	if chain[0].Delta {
		return nil, fmt.Errorf("kernel: chain does not start with a base image")
	}
	res := make(map[uint64]PageImage)
	swp := make(map[uint64]PageImage)
	var tail *Checkpoint
	for i, cp := range chain {
		if i > 0 && !cp.Delta {
			return nil, fmt.Errorf("kernel: base image at position %d of chain", i)
		}
		for _, p := range cp.Dropped {
			delete(res, p)
		}
		for _, p := range cp.SwapDropped {
			delete(swp, p)
		}
		for _, img := range cp.Resident {
			res[img.VAddr] = img
		}
		for _, img := range cp.Swapped {
			swp[img.VAddr] = img
		}
		tail = cp
	}
	out := &Checkpoint{
		RegionBase: tail.RegionBase,
		RegionLog:  tail.RegionLog,
		Segments:   make(map[uint64]uint, len(tail.Segments)),
		Revoked:    make(map[uint64]bool, len(tail.Revoked)),
		NextDomain: tail.NextDomain,
		Threads:    append([]ThreadImage(nil), tail.Threads...),
	}
	for b, l := range tail.Segments {
		out.Segments[b] = l
	}
	for b := range tail.Revoked {
		out.Revoked[b] = true
	}
	for _, img := range res {
		out.Resident = append(out.Resident, img)
	}
	sort.Slice(out.Resident, func(i, j int) bool { return out.Resident[i].VAddr < out.Resident[j].VAddr })
	for _, img := range swp {
		out.Swapped = append(out.Swapped, img)
	}
	sort.Slice(out.Swapped, func(i, j int) bool { return out.Swapped[i].VAddr < out.Swapped[j].VAddr })
	return out, nil
}

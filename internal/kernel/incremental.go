package kernel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/vm"
)

// Incremental checkpointing: capture cost proportional to the pages
// actually changed since the previous generation, instead of O(memory)
// per capture. A chain is one base image followed by delta images; each
// delta records the pages changed since its parent plus tombstones for
// pages that disappeared. Restoring generation N replays deltas 1..N
// onto the base (Materialize) and hands the merged base image to the
// ordinary Restore.
//
// What changed is one rule per kind of page. A resident page changed
// when its PTE is dirty: stores set the bit, and so does every new
// translation (vm.PageTable.Map), so a demand map, a swap-in and a
// re-map onto a recycled frame all ship. The capture observes and
// clears the bits in one pass, micro-cache dirty hints dropped with
// them, so a store racing the capture is never dropped from the next
// delta. A backing-store page changed when the store holds a different
// *mem.Page for it than the previous capture did: nothing writes a
// stored page in place. Tombstones come from merging the previous
// capture's page lists with the current ones, all kept in ascending
// page order, so a capture builds no per-page map and sorts nothing.

// CaptureState is the between-generation bookkeeping of an incremental
// chain: what the previous capture saw. It is bound to the Space it was
// taken from — restoring a kernel produces a fresh Space, so a stale
// CaptureState is rejected rather than producing a delta against a
// machine that no longer exists.
type CaptureState struct {
	space    *vm.Space
	resident []uint64    // the mapped pages, ascending
	swapped  []PageImage // the backing-store pages, ascending
}

// Matches reports whether cs is a usable baseline for k — non-nil and
// bound to k's current Space. A false answer means the next incremental
// capture must be a full base image.
func (cs *CaptureState) Matches(k *Kernel) bool {
	return cs != nil && k != nil && cs.space == k.M.Space
}

// CheckpointIncremental captures the next generation of an incremental
// chain. A nil (or stale) prev produces a full base image and arms the
// chain; a valid prev produces a delta holding only the pages changed
// since prev was taken. Call with the machine quiescent, like
// Checkpoint. The returned CaptureState feeds the next call.
func (k *Kernel) CheckpointIncremental(prev *CaptureState) (*Checkpoint, *CaptureState, error) {
	s := k.M.Space
	if !prev.Matches(k) {
		cp, err := k.Checkpoint()
		if err != nil {
			return nil, nil, err
		}
		// Everything up to here is in the base: the next generation's
		// dirty bits start clean.
		s.DirtyPages()
		return cp, &CaptureState{space: s, resident: s.ResidentPages(), swapped: slices.Clone(cp.Swapped)}, nil
	}

	cp := k.image()
	cp.Delta = true
	dirty := s.DirtyPages()
	cp.Resident = make([]PageImage, 0, len(dirty))
	for _, p := range dirty {
		pte, _ := s.PT.Lookup(p)
		img, err := k.readPage(p, pte.Frame)
		if err != nil {
			return nil, nil, err
		}
		cp.Resident = append(cp.Resident, img)
	}
	st := &CaptureState{space: s, resident: s.ResidentPages(), swapped: make([]PageImage, 0, s.SwappedPages())}
	now := st.resident
	for _, p := range prev.resident {
		for len(now) > 0 && now[0] < p {
			now = now[1:]
		}
		if len(now) == 0 || now[0] != p {
			cp.Dropped = append(cp.Dropped, p)
		}
	}
	old := prev.swapped
	s.WalkSwap(func(page uint64, pg *mem.Page) {
		for len(old) > 0 && old[0].VAddr < page {
			cp.SwapDropped = append(cp.SwapDropped, old[0].VAddr)
			old = old[1:]
		}
		img := PageImage{VAddr: page, Page: pg}
		if len(old) > 0 && old[0].VAddr == page {
			if old[0].Page != pg {
				cp.Swapped = append(cp.Swapped, img)
			}
			old = old[1:]
		} else {
			cp.Swapped = append(cp.Swapped, img)
		}
		st.swapped = append(st.swapped, img)
	})
	for _, img := range old {
		cp.SwapDropped = append(cp.SwapDropped, img.VAddr)
	}
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

package kernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/word"
)

// This file implements whole-system checkpoint/restore: the complete
// architectural state — segment layout, resident and swapped pages
// (tag bits included), and every thread's registers and instruction
// pointer — captured as a Checkpoint and rebuilt into a fresh kernel.
// internal/persist is its one encoding.
//
// A guarded-pointer machine checkpoints unusually cleanly: protection
// state IS the data. There are no protection tables, ASIDs or
// capability lists to capture; saving the tagged words saves every
// capability in the system.
//
// Scope: architectural state only. Timing state (cache contents, TLB,
// cycle counters) restarts cold, and Go-side hooks (trap services,
// gates, process objects) are code, not data — re-register them after
// restore.

// Checkpoint is the serializable system image. A base image (Delta
// false) is self-contained; a delta image (incremental.go) holds only
// the pages changed since its parent generation plus tombstones, and
// can be consumed only through Materialize.
type Checkpoint struct {
	RegionBase uint64
	RegionLog  uint

	Segments   map[uint64]uint
	Revoked    map[uint64]bool
	NextDomain int

	Resident []PageImage
	Swapped  []PageImage
	Threads  []ThreadImage

	// Delta marks an incremental image: Resident/Swapped hold only the
	// pages changed since the parent generation. Dropped/SwapDropped are
	// tombstones — pages present in the parent that no longer exist.
	// Segment/thread metadata is always captured in full (it is small).
	Delta       bool
	Dropped     []uint64
	SwapDropped []uint64
}

// PageImage is one page of tagged words; Frame is meaningful only for
// resident pages (placement is preserved exactly). Page is the
// memory's own storage page, shared with it copy-on-write (a nil Page
// is a page of untagged zeros), so an image holds the page as it was
// captured however the machine runs on.
type PageImage struct {
	VAddr uint64
	Frame uint64
	Page  *mem.Page
}

// ThreadImage is one hardware thread's architectural state.
type ThreadImage struct {
	Domain  int
	State   machine.ThreadState
	IPWord  word.Word
	Regs    [16]word.Word
	Instret uint64
}

// Checkpoint captures the current system image. Call it with the
// machine quiescent (between Run calls); blocked threads are captured
// as ready (their in-flight memory operation has already committed
// functionally).
func (k *Kernel) Checkpoint() (*Checkpoint, error) {
	cp := &Checkpoint{
		RegionBase: k.regionBase,
		RegionLog:  k.regionLog,
		Segments:   make(map[uint64]uint, len(k.segments)),
		Revoked:    make(map[uint64]bool, len(k.revoked)),
		NextDomain: k.nextDomain,
		Resident:   make([]PageImage, 0, k.M.Space.PT.Entries()),
	}
	for b, l := range k.segments {
		cp.Segments[b] = l
	}
	for b := range k.revoked {
		cp.Revoked[b] = true
	}

	var walkErr error
	k.M.Space.PT.Walk(func(page uint64, pte vm.PTE) bool {
		img, err := k.readPage(page, pte.Frame)
		if err != nil {
			walkErr = err
			return false
		}
		cp.Resident = append(cp.Resident, img)
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	for _, page := range k.M.Space.SwapPageList() {
		pg, _ := k.M.Space.SwapPage(page)
		cp.Swapped = append(cp.Swapped, PageImage{VAddr: page, Page: pg})
	}

	for _, t := range k.M.Threads() {
		cp.Threads = append(cp.Threads, ThreadImage{
			Domain:  t.Domain,
			State:   t.State,
			IPWord:  t.IP.Word(),
			Regs:    t.Regs,
			Instret: t.Instret,
		})
	}
	return cp, nil
}

// Holds reports whether the image has words at vaddr onward, in pages
// it holds resident or swapped. It reads the image alone, so asking
// bumps no machine counter. A delta image holds only its changed pages
// and answers false for the rest.
func (cp *Checkpoint) Holds(vaddr uint64, words []word.Word) bool {
	for len(words) > 0 {
		page := vaddr &^ uint64(vm.PageMask)
		img := cp.page(page)
		if img == nil {
			return false
		}
		off := int(vaddr-page) / word.BytesPerWord
		n := min(len(words), mem.PageWords-off)
		if n <= 0 {
			return false
		}
		for i, w := range words[:n] {
			if img.Page.Word(off+i) != w {
				return false
			}
		}
		vaddr += uint64(n) * word.BytesPerWord
		words = words[n:]
	}
	return true
}

// page returns the image of the page at vaddr, resident or swapped, or
// nil.
func (cp *Checkpoint) page(vaddr uint64) *PageImage {
	for _, list := range [][]PageImage{cp.Resident, cp.Swapped} {
		for i := range list {
			if list[i].VAddr == vaddr {
				return &list[i]
			}
		}
	}
	return nil
}

// Restore rebuilds a kernel+machine from a checkpoint under the given
// machine configuration (which must provide at least as much physical
// memory as the image uses). Thread fault state is not preserved:
// faulted threads restore as faulted with a nil fault record.
func Restore(cfg machine.Config, cp *Checkpoint) (*Kernel, error) {
	if cp.Delta {
		return nil, fmt.Errorf("kernel: cannot restore a delta image directly; materialize its chain first")
	}
	k, err := NewWithRegion(cfg, cp.RegionBase, cp.RegionLog)
	if err != nil {
		return nil, err
	}
	k.nextDomain = cp.NextDomain

	for base, logLen := range cp.Segments {
		if err := k.VAS.Reserve(base, logLen); err != nil {
			return nil, fmt.Errorf("kernel: restore segment %#x: %w", base, err)
		}
		k.segments[base] = logLen
		for _, pg := range pagesOf(base, uint64(1)<<logLen) {
			k.pageRefs[pg]++
		}
	}
	for base := range cp.Revoked {
		k.revoked[base] = true
	}

	for _, img := range cp.Resident {
		if err := k.M.Space.Frames.Claim(img.Frame); err != nil {
			return nil, fmt.Errorf("kernel: restore page %#x: %w", img.VAddr, err)
		}
		if err := k.M.Space.PT.Map(img.VAddr, img.Frame); err != nil {
			return nil, err
		}
		if err := k.M.Space.Phys.Adopt(img.Frame, img.Page); err != nil {
			return nil, err
		}
	}
	for _, img := range cp.Swapped {
		if err := k.M.Space.RestoreSwapPage(img.VAddr, img.Page); err != nil {
			return nil, err
		}
	}

	for _, ti := range cp.Threads {
		t, err := k.M.AddThread(ti.Domain)
		if err != nil {
			return nil, err
		}
		ip, err := core.Decode(ti.IPWord)
		if err != nil {
			return nil, fmt.Errorf("kernel: restore thread IP: %w", err)
		}
		if err := t.SetIP(ip); err != nil {
			return nil, err
		}
		t.Regs = ti.Regs
		t.Instret = ti.Instret
		switch ti.State {
		case machine.Halted:
			t.State = machine.Halted
		case machine.Faulted:
			t.State = machine.Faulted
		default:
			t.State = machine.Ready // blocked operations already committed
		}
	}
	return k, nil
}

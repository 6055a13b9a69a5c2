package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// Space is the machine's single shared virtual address space: the page
// table, a TLB, physical memory and its frame allocator, glued together
// with the translation discipline of the paper — translate only below
// the (virtually addressed) cache, and never consult any protection
// state here.
type Space struct {
	PT     *PageTable
	TLB    *TLB
	Phys   *mem.Memory
	Frames *mem.FrameAllocator

	// Tracer, when non-nil, receives TLB-miss, page-fault and swap
	// events; Now supplies the cycle stamp (the owning machine sets
	// both — a bare Space leaves them nil and pays nothing).
	Tracer *telemetry.Tracer
	Now    func() uint64

	// OnWrite, when non-nil, observes the virtual address of every
	// successful word or byte store through the space. The owning
	// machine uses it to invalidate pre-decoded instructions covering
	// the written word (self-modifying or reloaded code).
	OnWrite func(vaddr uint64)
	// OnUnmap, when non-nil, observes every UnmapRange call before the
	// translations are destroyed (decoded-instruction shootdown for
	// revoked code ranges).
	OnUnmap func(vaddr, size uint64)

	stats     SpaceStats
	swap      []swapEntry // the backing store, ascending by page
	swapStats SwapStats

	// tc is a small direct-mapped translation micro-cache (indexed by
	// low VPN bits): repeated references to recently translated pages —
	// instruction fetch and the data stream it interleaves with — skip
	// the TLB's associative scan. It is a pure simulator optimization,
	// not a model change: TLB.touch replays the hit statistics and LRU
	// effects exactly, and gen invalidates every entry whenever the TLB
	// changes under it (Insert, Invalidate on unmap/swap-out, Flush), so
	// every counter the experiments report is bit-identical with the
	// cache on or off.
	tc [tcEntries]tcEntry
}

const (
	tcEntries = 64
	tcMask    = tcEntries - 1
)

type tcEntry struct {
	vpn   uint64
	frame uint64
	idx   int    // index of the backing TLB entry, for TLB.touch
	gen   uint64 // TLB generation the entry was filled under
	ok    bool
	// dirty records that PT.SetDirty already ran for this page under
	// this gen; stores can then skip the page-table lookup. The PT never
	// clears a dirty bit while the page stays mapped (a re-Map sets it,
	// and only a capture's DirtyPages clears it, dropping these hints).
	dirty bool
}

// SpaceStats counts translation-layer work.
type SpaceStats struct {
	Translations uint64
	PageWalks    uint64
	PageFaults   uint64
	DemandMaps   uint64
}

// NewSpace builds a Space over physBytes of physical memory with a
// tlbEntries-entry TLB.
func NewSpace(physBytes uint64, tlbEntries int) (*Space, error) {
	phys := mem.New(physBytes)
	frames, err := mem.NewFrameAllocator(phys, PageSize)
	if err != nil {
		return nil, err
	}
	return &Space{
		PT:     NewPageTable(),
		TLB:    NewTLB(tlbEntries),
		Phys:   phys,
		Frames: frames,
	}, nil
}

// Translate maps a 54-bit virtual address to a physical address,
// consulting the TLB first and walking the page table on a miss. It
// returns the physical address and whether the TLB hit. Unmapped pages
// produce a *PageFaultError.
func (s *Space) Translate(vaddr uint64) (paddr uint64, tlbHit bool, err error) {
	s.stats.Translations++
	vpn := vpnOf(vaddr)
	e := &s.tc[vpn&tcMask]
	if e.ok && e.vpn == vpn && e.gen == s.TLB.gen {
		s.TLB.touch(e.idx)
		return e.frame | vaddr&PageMask, true, nil
	}
	if pte, idx, ok := s.TLB.lookupIdx(vaddr, GlobalASID); ok {
		if s.TLB.poisonedAt(idx) {
			// Entry parity check: a hit on a corrupted entry is a
			// machine check, never a silent wrong translation.
			return 0, true, &TLBParityError{VAddr: vaddr, Slot: idx}
		}
		*e = tcEntry{vpn: vpn, frame: pte.Frame, idx: idx, gen: s.TLB.gen, ok: true}
		return pte.Frame | vaddr&PageMask, true, nil
	}
	s.stats.PageWalks++
	if s.Tracer != nil && s.Tracer.Enabled(telemetry.EvTLBMiss) {
		s.Tracer.Emit(telemetry.Event{Cycle: s.cycle(), Kind: telemetry.EvTLBMiss,
			Thread: -1, Cluster: -1, Domain: -1, Addr: vaddr})
	}
	pte, ok := s.PT.Lookup(vaddr)
	if !ok {
		s.stats.PageFaults++
		if s.Tracer != nil && s.Tracer.Enabled(telemetry.EvPageFault) {
			s.Tracer.Emit(telemetry.Event{Cycle: s.cycle(), Kind: telemetry.EvPageFault,
				Thread: -1, Cluster: -1, Domain: -1, Addr: vaddr})
		}
		return 0, false, &PageFaultError{VAddr: vaddr}
	}
	s.TLB.Insert(vaddr, GlobalASID, pte)
	return pte.Frame | vaddr&PageMask, false, nil
}

// TLBParityError reports a translation that hit a TLB entry marked
// poisoned by TLB.CorruptEntry — the model's analog of a TLB parity
// machine check.
type TLBParityError struct {
	VAddr uint64 // virtual address whose lookup hit the bad entry
	Slot  int    // TLB slot holding the corrupted entry
}

func (e *TLBParityError) Error() string {
	return fmt.Sprintf("vm: tlb parity error translating %#x (slot %d corrupted)", e.VAddr, e.Slot)
}

// CorruptionDetected marks this error as an explicit
// corruption-detection signal for the fault-injection audit
// (docs/ROBUSTNESS.md).
func (e *TLBParityError) CorruptionDetected() bool { return true }

// cycle returns the owner-supplied cycle stamp, or 0 when the space
// runs standalone.
func (s *Space) cycle() uint64 {
	if s.Now != nil {
		return s.Now()
	}
	return 0
}

// EnsureMapped demand-maps every page overlapping [vaddr, vaddr+size),
// allocating zeroed physical frames as needed. The kernel calls this
// when it creates a segment; only the pages actually backing a segment
// cost physical memory (Sec 4.2).
func (s *Space) EnsureMapped(vaddr, size uint64) error {
	if size == 0 {
		return nil
	}
	first := vaddr &^ uint64(PageMask)
	last := (vaddr + size - 1) &^ uint64(PageMask)
	for page := first; ; page += PageSize {
		if _, ok := s.PT.Lookup(page); !ok {
			frame, err := s.Frames.Alloc()
			if err != nil {
				return fmt.Errorf("vm: mapping %#x: %w", page, err)
			}
			if err := s.Phys.ZeroRange(frame, PageSize); err != nil {
				return err
			}
			if err := s.PT.Map(page, frame); err != nil {
				return err
			}
			s.stats.DemandMaps++
		}
		if page == last {
			return nil
		}
	}
}

// UnmapRange removes translations for every page overlapping
// [vaddr, vaddr+size), releases their frames, and shoots the pages out
// of the TLB. This is the revocation primitive of Sec 4.3: every guarded
// pointer into the range is simultaneously invalidated, because all
// subsequent uses page-fault. It returns the number of pages unmapped.
func (s *Space) UnmapRange(vaddr, size uint64) (int, error) {
	if size == 0 {
		return 0, nil
	}
	if s.OnUnmap != nil {
		s.OnUnmap(vaddr, size)
	}
	n := 0
	first := vaddr &^ uint64(PageMask)
	last := (vaddr + size - 1) &^ uint64(PageMask)
	for page := first; ; page += PageSize {
		if pte, ok := s.PT.Lookup(page); ok {
			if err := s.Frames.Release(pte.Frame); err != nil {
				return n, err
			}
			s.PT.Unmap(page)
			s.TLB.Invalidate(page)
			n++
		}
		if page == last {
			return n, nil
		}
	}
}

// setDirtyFast marks the page containing vaddr dirty, skipping the
// page-table lookup when the micro-cache proves it already ran for
// this page: the PT never clears a dirty bit while a page stays mapped
// (DirtyPages drops the hints when it does), and any unmap bumps the
// TLB generation the entry checks.
func (s *Space) setDirtyFast(vaddr uint64) {
	vpn := vpnOf(vaddr)
	e := &s.tc[vpn&tcMask]
	hit := e.ok && e.vpn == vpn && e.gen == s.TLB.gen
	if hit && e.dirty {
		return
	}
	s.PT.SetDirty(vaddr)
	if hit {
		e.dirty = true
	}
}

// ReadWord translates and reads the naturally aligned word at vaddr.
func (s *Space) ReadWord(vaddr uint64) (word.Word, error) {
	paddr, _, err := s.Translate(vaddr)
	if err != nil {
		return word.Word{}, err
	}
	return s.Phys.ReadWord(paddr)
}

// WriteWord translates and writes the naturally aligned word at vaddr.
func (s *Space) WriteWord(vaddr uint64, w word.Word) error {
	paddr, _, err := s.Translate(vaddr)
	if err != nil {
		return err
	}
	s.setDirtyFast(vaddr)
	if err := s.Phys.WriteWord(paddr, w); err != nil {
		return err
	}
	if s.OnWrite != nil {
		s.OnWrite(vaddr)
	}
	return nil
}

// ByteAt translates and reads the byte at vaddr (any alignment).
func (s *Space) ByteAt(vaddr uint64) (byte, error) {
	paddr, _, err := s.Translate(vaddr)
	if err != nil {
		return 0, err
	}
	return s.Phys.ByteAt(paddr)
}

// SetByteAt translates and writes the byte at vaddr; the containing
// word's tag is cleared (capability integrity under partial
// overwrite).
func (s *Space) SetByteAt(vaddr uint64, b byte) error {
	paddr, _, err := s.Translate(vaddr)
	if err != nil {
		return err
	}
	s.setDirtyFast(vaddr)
	if err := s.Phys.SetByteAt(paddr, b); err != nil {
		return err
	}
	if s.OnWrite != nil {
		s.OnWrite(vaddr)
	}
	return nil
}

// Stats returns a copy of the translation counters.
func (s *Space) Stats() SpaceStats { return s.stats }

// RegisterMetrics publishes the translation, TLB and swap counters
// under prefix (canonically "vm"): vm.translations, vm.tlb.misses,
// vm.swap.outs, ….
func (s *Space) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".translations", func() uint64 { return s.stats.Translations })
	reg.Counter(prefix+".page_walks", func() uint64 { return s.stats.PageWalks })
	reg.Counter(prefix+".page_faults", func() uint64 { return s.stats.PageFaults })
	reg.Counter(prefix+".demand_maps", func() uint64 { return s.stats.DemandMaps })
	reg.Counter(prefix+".tlb.hits", func() uint64 { return s.TLB.stats.Hits })
	reg.Counter(prefix+".tlb.misses", func() uint64 { return s.TLB.stats.Misses })
	reg.Counter(prefix+".tlb.flushes", func() uint64 { return s.TLB.stats.Flushes })
	reg.Counter(prefix+".tlb.flushed_entries", func() uint64 { return s.TLB.stats.FlushedEntries })
	reg.Counter(prefix+".swap.ins", func() uint64 { return s.swapStats.SwapIns })
	reg.Counter(prefix+".swap.outs", func() uint64 { return s.swapStats.SwapOuts })
	reg.Register(prefix+".swap.pages", func() float64 { return float64(len(s.swap)) })
	reg.Register(prefix+".tlb.live", func() float64 { return float64(s.TLB.Live()) })
}

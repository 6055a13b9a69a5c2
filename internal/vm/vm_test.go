package vm

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/word"
)

func TestPageTableMapLookup(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x12345678, 0x4000); err != nil {
		t.Fatal(err)
	}
	pte, ok := pt.Lookup(0x12345000)
	if !ok || pte.Frame != 0x4000 {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	// Every address in the same page resolves to the same frame.
	if pte2, ok := pt.Lookup(0x12345fff); !ok || pte2.Frame != 0x4000 {
		t.Error("same-page lookup failed")
	}
	// Adjacent page is unmapped.
	if _, ok := pt.Lookup(0x12346000); ok {
		t.Error("adjacent page mapped")
	}
}

func TestPageTableRejectsUnalignedFrame(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0, 0x4001); err == nil {
		t.Error("unaligned frame accepted")
	}
}

func TestPageTableUnmap(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x1000, 0x2000)
	if !pt.Unmap(0x1fff) {
		t.Error("unmap of mapped page returned false")
	}
	if pt.Unmap(0x1000) {
		t.Error("unmap of unmapped page returned true")
	}
	if _, ok := pt.Lookup(0x1000); ok {
		t.Error("lookup succeeded after unmap")
	}
	if pt.Entries() != 0 {
		t.Errorf("Entries = %d", pt.Entries())
	}
}

func TestPageTableHighAddresses(t *testing.T) {
	pt := NewPageTable()
	top := uint64(1)<<54 - PageSize
	if err := pt.Map(top, 0x7000); err != nil {
		t.Fatal(err)
	}
	if pte, ok := pt.Lookup(top + 123); !ok || pte.Frame != 0x7000 {
		t.Error("top-of-space lookup failed")
	}
	if pt.Entries() != 1 {
		t.Errorf("Entries = %d", pt.Entries())
	}
}

func TestPageTableRemapOverwrites(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x1000, 0x2000)
	pt.Map(0x1000, 0x3000)
	if pte, _ := pt.Lookup(0x1000); pte.Frame != 0x3000 {
		t.Errorf("Frame = %#x after remap", pte.Frame)
	}
	if pt.Entries() != 1 {
		t.Errorf("Entries = %d after remap", pt.Entries())
	}
}

func TestPageTableDirty(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x1000, 0x2000)
	pt.SetDirty(0x1008)
	if pte, _ := pt.Lookup(0x1000); !pte.Dirty {
		t.Errorf("pte = %+v, want dirty", pte)
	}
	pt.SetDirty(0x9000) // unmapped: no entry appears
	if pt.Entries() != 1 {
		t.Errorf("Entries = %d after SetDirty of an unmapped page", pt.Entries())
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if _, ok := tlb.Lookup(0x1000, GlobalASID); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(0x1000, GlobalASID, PTE{Frame: 0xa000, Valid: true})
	pte, ok := tlb.Lookup(0x1234, GlobalASID) // same page
	if !ok || pte.Frame != 0xa000 {
		t.Fatalf("lookup after insert = %+v, %v", pte, ok)
	}
	s := tlb.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0x1000, 1, PTE{Frame: 0xa000, Valid: true})
	if _, ok := tlb.Lookup(0x1000, 2); ok {
		t.Error("entry visible under wrong ASID")
	}
	if _, ok := tlb.Lookup(0x1000, 1); !ok {
		t.Error("entry not visible under its own ASID")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 0, PTE{Frame: 0x1000, Valid: true})
	tlb.Insert(0x2000, 0, PTE{Frame: 0x2000, Valid: true})
	tlb.Lookup(0x1000, 0)                                  // make 0x1000 most recent
	tlb.Insert(0x3000, 0, PTE{Frame: 0x3000, Valid: true}) // evicts 0x2000
	if _, ok := tlb.Lookup(0x1000, 0); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := tlb.Lookup(0x2000, 0); ok {
		t.Error("LRU entry survived")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 0, PTE{Frame: 0x1000, Valid: true})
	tlb.Insert(0x1000, 0, PTE{Frame: 0x9000, Valid: true})
	if tlb.Live() != 1 {
		t.Errorf("Live = %d after duplicate insert", tlb.Live())
	}
	if pte, _ := tlb.Lookup(0x1000, 0); pte.Frame != 0x9000 {
		t.Error("duplicate insert did not update")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	for i := uint64(0); i < 5; i++ {
		tlb.Insert(i<<PageShift, 0, PTE{Frame: i << PageShift, Valid: true})
	}
	tlb.Flush()
	if tlb.Live() != 0 {
		t.Errorf("Live = %d after flush", tlb.Live())
	}
	s := tlb.Stats()
	if s.Flushes != 1 || s.FlushedEntries != 5 {
		t.Errorf("stats = %+v", s)
	}
	tlb.ResetStats()
	if tlb.Stats() != (TLBStats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0x1000, 1, PTE{Frame: 0xa000, Valid: true})
	tlb.Insert(0x1000, 2, PTE{Frame: 0xa000, Valid: true})
	tlb.Insert(0x2000, 1, PTE{Frame: 0xb000, Valid: true})
	tlb.Invalidate(0x1000)
	if tlb.Live() != 1 {
		t.Errorf("Live = %d after invalidate, want 1 (all ASIDs shot down)", tlb.Live())
	}
}

func TestSpaceTranslate(t *testing.T) {
	s, err := NewSpace(1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureMapped(0x40000, 100); err != nil {
		t.Fatal(err)
	}
	paddr1, hit1, err := s.Translate(0x40008)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first translation hit TLB")
	}
	paddr2, hit2, err := s.Translate(0x40008)
	if err != nil || !hit2 || paddr2 != paddr1 {
		t.Errorf("second translation: %#x %v %v", paddr2, hit2, err)
	}
	if paddr1&uint64(PageMask) != 0x008 {
		t.Errorf("page offset not preserved: %#x", paddr1)
	}
}

func TestSpacePageFault(t *testing.T) {
	s, _ := NewSpace(1<<20, 16)
	_, _, err := s.Translate(0x999000)
	var pf *PageFaultError
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want PageFaultError", err)
	}
	if pf.VAddr != 0x999000 || pf.Error() == "" {
		t.Errorf("fault = %+v", pf)
	}
}

func TestSpaceReadWriteWord(t *testing.T) {
	s, _ := NewSpace(1<<20, 16)
	if err := s.EnsureMapped(0x7000, 4096); err != nil {
		t.Fatal(err)
	}
	w := word.Tagged(0x1234)
	if err := s.WriteWord(0x7010, w); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadWord(0x7010)
	if err != nil || got != w {
		t.Errorf("ReadWord = %v, %v", got, err)
	}
	if err := s.WriteWord(0xff0000, w); err == nil {
		t.Error("write to unmapped page succeeded")
	}
}

func TestSpaceEnsureMappedSpansPages(t *testing.T) {
	s, _ := NewSpace(1<<20, 16)
	// Range straddling three pages.
	if err := s.EnsureMapped(0x1ff8, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0x1ff8, 0x2000, 0x3ff8} {
		if _, _, err := s.Translate(v); err != nil {
			t.Errorf("Translate(%#x): %v", v, err)
		}
	}
	if s.Stats().DemandMaps != 3 {
		t.Errorf("DemandMaps = %d, want 3", s.Stats().DemandMaps)
	}
	// Idempotent.
	if err := s.EnsureMapped(0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DemandMaps != 3 {
		t.Error("remap allocated fresh frames")
	}
	if err := s.EnsureMapped(0x9000, 0); err != nil {
		t.Errorf("zero-size EnsureMapped: %v", err)
	}
}

func TestSpaceUnmapRangeRevokes(t *testing.T) {
	s, _ := NewSpace(1<<20, 16)
	s.EnsureMapped(0x10000, 3*PageSize)
	s.WriteWord(0x10000, word.FromInt(7))
	s.Translate(0x10000) // warm TLB
	n, err := s.UnmapRange(0x10000, 3*PageSize)
	if err != nil || n != 3 {
		t.Fatalf("UnmapRange = %d, %v", n, err)
	}
	// Every subsequent access faults — the revocation semantics of
	// Sec 4.3.
	if _, _, err := s.Translate(0x10000); err == nil {
		t.Error("translate after unmap succeeded (TLB not shot down?)")
	}
	if n, _ := s.UnmapRange(0x10000, PageSize); n != 0 {
		t.Error("double unmap found pages")
	}
	if n, err := s.UnmapRange(0x10000, 0); n != 0 || err != nil {
		t.Error("zero-size unmap did work")
	}
}

func TestSpaceFrameRecyclingZeroes(t *testing.T) {
	s, _ := NewSpace(16*PageSize, 4)
	s.EnsureMapped(0x1000, PageSize)
	s.WriteWord(0x1000, word.Tagged(0xdead)) // plant a pointer
	s.UnmapRange(0x1000, PageSize)
	// Exhaust frames so the recycled one is reused.
	if err := s.EnsureMapped(0x100000, 16*PageSize); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 16*PageSize; off += 8 {
		w, err := s.ReadWord(0x100000 + off)
		if err != nil {
			t.Fatal(err)
		}
		if w.Tag {
			t.Fatalf("stale pointer leaked into recycled frame at +%#x", off)
		}
	}
}

// Property: translation preserves the page offset and distinct pages map
// to distinct frames.
func TestTranslationInjectivity(t *testing.T) {
	s, _ := NewSpace(1<<22, 64)
	rng := rand.New(rand.NewSource(3))
	frames := map[uint64]uint64{}
	for i := 0; i < 200; i++ {
		v := uint64(rng.Intn(1<<20)) &^ uint64(PageMask)
		if err := s.EnsureMapped(v, PageSize); err != nil {
			t.Fatal(err)
		}
		p, _, err := s.Translate(v)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := frames[p]; ok && prev != v {
			t.Fatalf("pages %#x and %#x share frame %#x", prev, v, p)
		}
		frames[p] = v
	}
}

func TestSpaceByteAccess(t *testing.T) {
	s, _ := NewSpace(1<<20, 16)
	s.EnsureMapped(0x7000, 4096)
	if err := s.SetByteAt(0x7003, 0x5c); err != nil {
		t.Fatal(err)
	}
	b, err := s.ByteAt(0x7003)
	if err != nil || b != 0x5c {
		t.Errorf("byte = %#x, %v", b, err)
	}
	// Dirty bit set by byte writes.
	pte, _ := s.PT.Lookup(0x7000)
	if !pte.Dirty {
		t.Error("byte write did not dirty the page")
	}
	if _, err := s.ByteAt(0x999000); err == nil {
		t.Error("byte read of unmapped page accepted")
	}
	if err := s.SetByteAt(0x999000, 1); err == nil {
		t.Error("byte write of unmapped page accepted")
	}
}

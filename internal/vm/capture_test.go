package vm

import (
	"testing"

	"repro/internal/word"
)

func captureSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func containsPage(pages []uint64, page uint64) bool {
	for _, p := range pages {
		if p == page {
			return true
		}
	}
	return false
}

// TestDirtyObserveAndClear is the dirty-bit lifecycle regression: a
// store issued after a clearing capture pass must re-dirty its page even
// when the translation micro-cache's dirty hint for that page was warm
// at capture time. Before DirtyPages also dropped the hints, the store
// below hit the hint, skipped PT.SetDirty, and the page silently
// vanished from the next delta.
func TestDirtyObserveAndClear(t *testing.T) {
	s := captureSpace(t)
	const page = 0x40000
	if err := s.EnsureMapped(page, PageSize); err != nil {
		t.Fatal(err)
	}
	// Two stores: the first fills the TLB, the second fills the
	// micro-cache entry and warms its dirty hint.
	for i := 0; i < 2; i++ {
		if err := s.WriteWord(page+8, word.FromInt(7)); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.DirtyPages(true); !containsPage(d, page) {
		t.Fatalf("first capture: dirty pages %v missing %#x", d, page)
	}
	if d := s.DirtyPages(true); len(d) != 0 {
		t.Fatalf("clearing pass left dirty pages %v", d)
	}
	// The store racing the next interval: with the stale hint this would
	// be dropped.
	if err := s.WriteWord(page+8, word.FromInt(9)); err != nil {
		t.Fatal(err)
	}
	if d := s.DirtyPages(true); !containsPage(d, page) {
		t.Fatalf("post-capture store dropped: dirty pages %v missing %#x", d, page)
	}
}

// TestDirtyPagesNonClearing checks the observe-only mode leaves the
// bits (and subsequent collections) intact.
func TestDirtyPagesNonClearing(t *testing.T) {
	s := captureSpace(t)
	const page = 0x9000
	if err := s.EnsureMapped(page, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(page, word.FromInt(1)); err != nil {
		t.Fatal(err)
	}
	if d := s.DirtyPages(false); !containsPage(d, page) {
		t.Fatalf("observe pass: %v missing %#x", d, page)
	}
	if d := s.DirtyPages(true); !containsPage(d, page) {
		t.Fatalf("bits were cleared by the observe-only pass: %v", d)
	}
}

// TestCaptureTracking covers the mutations dirty bits cannot see: fresh
// mappings and backing-store writes.
func TestCaptureTracking(t *testing.T) {
	s := captureSpace(t)
	s.StartCaptureTracking()
	const pa, pb = 0x10000, 0x20000
	if err := s.EnsureMapped(pa, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureMapped(pb, PageSize); err != nil {
		t.Fatal(err)
	}
	fresh, _ := s.DrainCaptureTouched()
	if !containsPage(fresh, pa) || !containsPage(fresh, pb) {
		t.Fatalf("fresh mappings %v missing %#x/%#x", fresh, pa, pb)
	}

	// Swap-out mutates the backing store; swap-in is a fresh mapping.
	if err := s.SwapOut(pa); err != nil {
		t.Fatal(err)
	}
	fresh, touched := s.DrainCaptureTouched()
	if !containsPage(touched, pa) {
		t.Fatalf("swap-out not tracked: %v", touched)
	}
	if len(fresh) != 0 {
		t.Fatalf("unexpected fresh mappings %v", fresh)
	}
	// ZeroWords scrubbing a swapped page is a content change with no
	// resident dirty bit anywhere.
	if err := s.ZeroWords(pa, pa+64); err != nil {
		t.Fatal(err)
	}
	_, touched = s.DrainCaptureTouched()
	if !containsPage(touched, pa) {
		t.Fatalf("swapped-page scrub not tracked: %v", touched)
	}
	if err := s.SwapIn(pa); err != nil {
		t.Fatal(err)
	}
	fresh, _ = s.DrainCaptureTouched()
	if !containsPage(fresh, pa) {
		t.Fatalf("swap-in not tracked as fresh mapping: %v", fresh)
	}

	// A re-map after a free reuses a frame with zeroed contents and a
	// clean PTE — only the fresh-mapping set witnesses it.
	if _, err := s.UnmapRange(pb, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureMapped(pb, PageSize); err != nil {
		t.Fatal(err)
	}
	fresh, _ = s.DrainCaptureTouched()
	if !containsPage(fresh, pb) {
		t.Fatalf("re-map not tracked: %v", fresh)
	}

	if err := s.RestoreSwapPage(0x30000, nil); err != nil { // a page of zeros
		t.Fatal(err)
	}
	_, touched = s.DrainCaptureTouched()
	if !containsPage(touched, 0x30000) {
		t.Fatalf("swap restore not tracked: %v", touched)
	}
}

// TestSwapPageAccessors exercises the per-page backing-store views.
func TestSwapPageAccessors(t *testing.T) {
	s := captureSpace(t)
	const page = 0x50000
	if err := s.EnsureMapped(page, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(page+16, word.FromInt(42)); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapOut(page); err != nil {
		t.Fatal(err)
	}
	if got := s.SwapPageList(); len(got) != 1 || got[0] != page {
		t.Fatalf("SwapPageList = %v", got)
	}
	pg, ok := s.SwapPage(page + 24) // any address within the page
	if !ok || pg.Word(2).Int() != 42 {
		t.Fatalf("SwapPage = %v, %v", pg.Word(2), ok)
	}
	// Scrubbing the swapped page replaces it in the store: a page handed
	// out earlier keeps its words.
	if err := s.ZeroWords(page, page+PageSize); err != nil {
		t.Fatal(err)
	}
	if now, _ := s.SwapPage(page); now.Word(2).Int() != 0 || pg.Word(2).Int() != 42 {
		t.Fatalf("after ZeroWords: stored word %v, earlier page's word %v", now.Word(2), pg.Word(2))
	}
	if _, ok := s.SwapPage(0x99000); ok {
		t.Fatal("SwapPage of absent page reported ok")
	}
}

package vm

import (
	"slices"
	"testing"

	"repro/internal/mem"
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
	if d := s.DirtyPages(); !containsPage(d, page) {
		t.Fatalf("first capture: dirty pages %v missing %#x", d, page)
	}
	if d := s.DirtyPages(); len(d) != 0 {
		t.Fatalf("clearing pass left dirty pages %v", d)
	}
	// The store racing the next interval: with the stale hint this would
	// be dropped.
	if err := s.WriteWord(page+8, word.FromInt(9)); err != nil {
		t.Fatal(err)
	}
	if d := s.DirtyPages(); !containsPage(d, page) {
		t.Fatalf("post-capture store dropped: dirty pages %v missing %#x", d, page)
	}
}

// TestDirtyNewTranslations: every new translation starts dirty, so the
// next DirtyPages reports it with nothing recorded beside the bit — a
// demand map, a swap-in, and a freed page re-mapped onto its own
// recycled frame, which keeps page and frame and changes only the
// contents.
func TestDirtyNewTranslations(t *testing.T) {
	s := captureSpace(t)
	const pa, pb = 0x10000, 0x20000
	for _, p := range []uint64{pa, pb} {
		if err := s.EnsureMapped(p, PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.DirtyPages(); !slices.Equal(d, []uint64{pa, pb}) {
		t.Fatalf("after demand maps: dirty pages %#x, want %#x and %#x", d, pa, pb)
	}

	if err := s.SwapOut(pa); err != nil {
		t.Fatal(err)
	}
	if d := s.DirtyPages(); len(d) != 0 {
		t.Fatalf("after swap-out: dirty pages %#x, want none", d)
	}
	if err := s.SwapIn(pa); err != nil {
		t.Fatal(err)
	}
	if d := s.DirtyPages(); !slices.Equal(d, []uint64{pa}) {
		t.Fatalf("after swap-in: dirty pages %#x, want %#x", d, pa)
	}

	if err := s.WriteWord(pb, word.FromInt(5)); err != nil {
		t.Fatal(err)
	}
	s.DirtyPages()
	before, _ := s.PT.Lookup(pb)
	if _, err := s.UnmapRange(pb, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureMapped(pb, PageSize); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.PT.Lookup(pb); after.Frame != before.Frame {
		t.Fatalf("re-map took frame %#x, want the recycled %#x", after.Frame, before.Frame)
	}
	if d := s.DirtyPages(); !slices.Equal(d, []uint64{pb}) {
		t.Fatalf("after re-map: dirty pages %#x, want %#x", d, pb)
	}
}

// swapStore returns the backing store as WalkSwap shows it.
func swapStore(s *Space) (pages []uint64, pgs []*mem.Page) {
	s.WalkSwap(func(page uint64, pg *mem.Page) {
		pages, pgs = append(pages, page), append(pgs, pg)
	})
	return pages, pgs
}

// TestSwapPageAccessors exercises the backing-store walk: pages in
// ascending order whatever order they were stored in, each the stored
// page itself.
func TestSwapPageAccessors(t *testing.T) {
	s := captureSpace(t)
	const page, low = 0x50000, 0x30000
	for _, p := range []uint64{page, low} {
		if err := s.EnsureMapped(p, PageSize); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteWord(p+16, word.FromInt(42)); err != nil {
			t.Fatal(err)
		}
		if err := s.SwapOut(p); err != nil {
			t.Fatal(err)
		}
	}
	pages, pgs := swapStore(s)
	if !slices.Equal(pages, []uint64{low, page}) {
		t.Fatalf("WalkSwap pages = %#x, want %#x then %#x", pages, low, page)
	}
	pg := pgs[1]
	if pg.Word(2).Int() != 42 {
		t.Fatalf("stored word = %v, want 42", pg.Word(2))
	}
	// Scrubbing the swapped page replaces it in the store: a page handed
	// out earlier keeps its words.
	if err := s.ZeroWords(page, page+PageSize); err != nil {
		t.Fatal(err)
	}
	if _, now := swapStore(s); now[1] == pg || now[1].Word(2).Int() != 0 || pg.Word(2).Int() != 42 {
		t.Fatalf("after ZeroWords: stored word %v, earlier page's word %v", now[1].Word(2), pg.Word(2))
	}
	s.DropSwapped(low + 24) // any address within the page
	if pages, _ := swapStore(s); !slices.Equal(pages, []uint64{page}) {
		t.Fatalf("after DropSwapped: WalkSwap pages = %#x, want %#x", pages, page)
	}
}

package mem

import (
	"fmt"
	"testing"

	"repro/internal/word"
)

// rng is a splitmix64 stream: the differential test's operation
// sequences are a pure function of the seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// addr picks a physical byte address: mostly an aligned word in range,
// clustered on a few pages so words are rewritten and ranges overlap,
// sometimes unaligned or just past the end.
func (r *rng) addr(size uint64) uint64 {
	switch r.intn(20) {
	case 0:
		return r.next()%size | 1 + uint64(r.intn(6)) // unaligned
	case 1:
		return size + uint64(r.intn(4))*word.BytesPerWord // out of range
	}
	return r.next() % size &^ 7
}

func (r *rng) word() word.Word {
	switch r.intn(4) {
	case 0:
		return word.Word{} // zero writes must not make pages present
	case 1:
		return word.Word{Bits: r.next(), Tag: true}
	}
	return word.Word{Bits: r.next() >> uint(r.intn(64))}
}

// span picks a byte length: a few words, a whole page, or more.
func (r *rng) span() uint64 {
	switch r.intn(4) {
	case 0:
		return pageBytes
	case 1:
		return uint64(r.intn(3*pageWords)) * word.BytesPerWord
	}
	return uint64(r.intn(32)) * word.BytesPerWord
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T %v", err, err)
}

// kept is a snapshot the differential test holds on to: the page, a
// copy of every plane as Snapshot returned it, and the oracle's words.
type kept struct {
	p      *Page
	planes Page
	words  []word.Word
}

// pageAddr picks the base of a page for Snapshot and Adopt: mostly a
// whole page, sometimes the partial last page, an unaligned address or
// one past the end.
func (r *rng) pageAddr(size uint64) uint64 {
	switch r.intn(12) {
	case 0:
		return r.addr(size)
	case 1:
		return (size + pageBytes - 1) &^ (pageBytes - 1)
	}
	return r.next() % size &^ (pageBytes - 1)
}

// TestSparseMatchesDense drives the paged Memory and the dense oracle
// with the same seeded operation sequences and requires identical
// values, errors and ECC statistics after every operation, and
// identical contents at the end. A page Snapshot returns must equal the
// oracle's ReadWords of it, and every snapshot the test keeps must
// still hold every plane it had after each later operation, so a write
// path that changes a shared page without cloning it fails here.
func TestSparseMatchesDense(t *testing.T) {
	sizes := []uint64{4 * pageBytes, 3*pageBytes + 200} // whole pages, and a partial last page
	for seed := uint64(1); seed <= 24; seed++ {
		size := sizes[seed%2]
		r := rng(seed)
		sp, dn := New(size), newDense(size)
		var snaps []kept
		for op := 0; op < 4000; op++ {
			var got, want string
			switch k := r.intn(110); {
			case k < 25:
				a := r.addr(size)
				w1, e1 := sp.ReadWord(a)
				w2, e2 := dn.ReadWord(a)
				got, want = fmt.Sprint("ReadWord ", a, w1, errText(e1)), fmt.Sprint("ReadWord ", a, w2, errText(e2))
			case k < 50:
				a, w := r.addr(size), r.word()
				got, want = "WriteWord "+errText(sp.WriteWord(a, w)), "WriteWord "+errText(dn.WriteWord(a, w))
			case k < 56:
				a, b := r.next()%(size+16), byte(r.next())
				got, want = "SetByteAt "+errText(sp.SetByteAt(a, b)), "SetByteAt "+errText(dn.SetByteAt(a, b))
			case k < 62:
				a, n := r.addr(size), r.span()
				if r.intn(2) == 0 {
					a &^= pageBytes - 1 // page-aligned, so whole pages are cleared
				}
				if r.intn(10) == 0 {
					n += 4 // not word aligned
				}
				got, want = "ZeroRange "+errText(sp.ZeroRange(a, n)), "ZeroRange "+errText(dn.ZeroRange(a, n))
			case k < 72:
				a, bit := r.addr(size), uint(r.intn(74))
				got, want = "FlipBit "+errText(sp.FlipBit(a, bit)), "FlipBit "+errText(dn.FlipBit(a, bit))
			case k < 73:
				sp.EnableParity()
				dn.EnableParity()
			case k < 74:
				sp.EnableECC()
				dn.EnableECC()
			case k < 76:
				got, want = fmt.Sprint("Scrub ", sp.Scrub()), fmt.Sprint("Scrub ", dn.Scrub())
			case k < 82:
				n := r.intn(3*pageWords) - 8
				got, want = fmt.Sprint("ScrubStep ", sp.ScrubStep(n)), fmt.Sprint("ScrubStep ", dn.ScrubStep(n))
			case k < 88:
				a, n := r.addr(size), r.span()
				c1, e1 := sp.TaggedWordsIn(a, n)
				c2, e2 := dn.TaggedWordsIn(a, n)
				got, want = fmt.Sprint("TaggedWordsIn ", c1, errText(e1)), fmt.Sprint("TaggedWordsIn ", c2, errText(e2))
			case k < 94:
				a, n := r.addr(size), r.span()/word.BytesPerWord
				d1, d2 := make([]word.Word, n), make([]word.Word, n)
				e1, e2 := sp.ReadWords(a, d1), dn.ReadWords(a, d2)
				got, want = "ReadWords "+errText(e1), "ReadWords "+errText(e2)
				for i := range d1 {
					if d1[i] != d2[i] {
						got, want = fmt.Sprint(got, " word ", i, d1[i]), fmt.Sprint(want, " word ", i, d2[i])
						break
					}
				}
			case k < 100:
				a, n := r.addr(size), r.span()/word.BytesPerWord
				src := make([]word.Word, n)
				for i := range src {
					if r.intn(3) == 0 {
						src[i] = r.word()
					}
				}
				got, want = "WriteWords "+errText(sp.WriteWords(a, src)), "WriteWords "+errText(dn.WriteWords(a, src))
			case k < 106:
				a := r.pageAddr(size)
				p, e1 := sp.Snapshot(a)
				ws, e2 := dn.Snapshot(a)
				got, want = "Snapshot "+errText(e1), "Snapshot "+errText(e2)
				if e1 != nil || e2 != nil {
					break
				}
				for i := range ws {
					if p.Word(i) != ws[i] {
						got, want = fmt.Sprint(got, " word ", i, p.Word(i)), fmt.Sprint(want, " word ", i, ws[i])
						break
					}
				}
				s := kept{p: p, words: ws}
				if p != nil {
					s.planes = *p
				}
				if len(snaps) == 4 {
					snaps = snaps[1:]
				}
				snaps = append(snaps, s)
			default:
				a := r.pageAddr(size)
				var s kept
				if len(snaps) > 0 {
					s = snaps[r.intn(len(snaps))]
				} else {
					s.words = make([]word.Word, pageWords)
				}
				got, want = "Adopt "+errText(sp.Adopt(a, s.p)), "Adopt "+errText(dn.Adopt(a, s.words))
			}
			if got != want {
				t.Fatalf("seed %d op %d: paged %s\ndense %s", seed, op, got, want)
			}
			if sp.ECCStats() != dn.eccStats {
				t.Fatalf("seed %d op %d (%s): ECCStats paged %+v, dense %+v", seed, op, got, sp.ECCStats(), dn.eccStats)
			}
			for i, s := range snaps {
				if s.p != nil && *s.p != s.planes {
					t.Fatalf("seed %d op %d (%s): kept snapshot %d changed under it", seed, op, got, i)
				}
			}
		}
		for a := uint64(0); a < size; a += word.BytesPerWord {
			w1, _ := sp.PeekWord(a)
			w2, _ := dn.PeekWord(a)
			if w1 != w2 {
				t.Fatalf("seed %d: word %#x paged %v, dense %v", seed, a, w1, w2)
			}
		}
		if sp.ParityEnabled() != (dn.parity != nil) || sp.ECCEnabled() != (dn.ecc != nil) {
			t.Fatalf("seed %d: check planes differ", seed)
		}
	}
}

func presentPages(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestAbsentPageReadsUntaggedZero(t *testing.T) {
	m := New(8 * pageBytes)
	for _, a := range []uint64{0, pageBytes - 8, 5*pageBytes + 64, 8*pageBytes - 8} {
		w, err := m.ReadWord(a)
		if err != nil || !w.IsZero() {
			t.Errorf("ReadWord(%#x) = %v, %v; want untagged zero", a, w, err)
		}
	}
	if n, err := m.TaggedWordsIn(0, m.Size()); n != 0 || err != nil {
		t.Errorf("TaggedWordsIn = %d, %v", n, err)
	}
	m.EnableParity()
	if w, err := m.ReadWord(3 * pageBytes); err != nil || !w.IsZero() {
		t.Errorf("parity: ReadWord = %v, %v", w, err)
	}
	m.EnableECC()
	if bad := m.Scrub(); bad != 0 {
		t.Errorf("ECC Scrub = %d bad", bad)
	}
	if presentPages(m) != 0 {
		t.Errorf("reads and check planes made %d pages present", presentPages(m))
	}
}

func TestZeroWritesAllocateNoPage(t *testing.T) {
	m := New(8 * pageBytes)
	if err := m.WriteWord(pageBytes, word.Word{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetByteAt(2*pageBytes+3, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWords(4*pageBytes, make([]word.Word, pageWords)); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroRange(0, m.Size()); err != nil {
		t.Fatal(err)
	}
	if n := presentPages(m); n != 0 {
		t.Fatalf("zero writes made %d pages present", n)
	}

	// A non-zero write makes its page present; zeroing the whole page
	// makes it absent again, zeroing part of it does not.
	if err := m.WriteWord(pageBytes+16, word.Tagged(7)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(3*pageBytes, word.FromInt(1)); err != nil {
		t.Fatal(err)
	}
	if n := presentPages(m); n != 2 {
		t.Fatalf("%d pages present, want 2", n)
	}
	if err := m.ZeroRange(pageBytes, pageBytes); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroRange(3*pageBytes, 64); err != nil {
		t.Fatal(err)
	}
	if m.pages[1] != nil || m.pages[3] == nil {
		t.Fatalf("after ZeroRange: page 1 present=%v, page 3 present=%v", m.pages[1] != nil, m.pages[3] != nil)
	}
}

func TestFlipBitOnAbsentPage(t *testing.T) {
	m := New(4 * pageBytes)
	m.EnableParity()
	if err := m.FlipBit(2*pageBytes+8, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadWord(2*pageBytes + 8); err == nil {
		t.Error("parity: flip in a never-written word read back clean")
	} else if _, ok := err.(*ParityError); !ok {
		t.Errorf("parity: read returned %T, want *ParityError", err)
	}

	m = New(4 * pageBytes)
	m.EnableECC()
	for _, bit := range []uint{5, 64, 70} {
		a := uint64(bit) * word.BytesPerWord
		if err := m.FlipBit(a, bit); err != nil {
			t.Fatal(err)
		}
		if w, err := m.ReadWord(a); err != nil || !w.IsZero() {
			t.Errorf("ECC: bit %d: read %v, %v; want corrected zero", bit, w, err)
		}
	}
	if n := m.ECCStats().Corrected; n != 3 {
		t.Errorf("Corrected = %d, want 3", n)
	}
}

func TestOverheadBytesFromGeometry(t *testing.T) {
	// E7's tag-plane figure: one bit per word of the 8 MB memory.
	if got := New(8 << 20).OverheadBytes(); got != 131072 {
		t.Errorf("OverheadBytes(8MB) = %d, want 131072", got)
	}
	if got := New(65 * word.BytesPerWord).OverheadBytes(); got != 16 {
		t.Errorf("OverheadBytes(65 words) = %d, want 16", got)
	}
}

package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/word"
)

func TestNewRoundsUpToWords(t *testing.T) {
	m := New(13)
	if m.Size() != 16 {
		t.Errorf("Size = %d, want 16", m.Size())
	}
	if m.Words() != 2 {
		t.Errorf("Words = %d, want 2", m.Words())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	f := func(slot uint16, bits uint64, tag bool) bool {
		addr := uint64(slot) % (1 << 13) * word.BytesPerWord
		w := word.Word{Bits: bits, Tag: tag}
		if err := m.WriteWord(addr, w); err != nil {
			return false
		}
		got, err := m.ReadWord(addr)
		return err == nil && got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagPreservedAcrossNeighbors(t *testing.T) {
	m := New(1 << 12)
	// Write alternating tagged/untagged words and verify no bleed.
	for i := uint64(0); i < 64; i++ {
		w := word.Word{Bits: i, Tag: i%2 == 0}
		if err := m.WriteWord(i*8, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 64; i++ {
		got, err := m.ReadWord(i * 8)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag != (i%2 == 0) || got.Bits != i {
			t.Errorf("word %d = %v", i, got)
		}
	}
}

func TestUnalignedAccessRejected(t *testing.T) {
	m := New(64)
	if _, err := m.ReadWord(3); err == nil {
		t.Error("unaligned read accepted")
	}
	if err := m.WriteWord(5, word.Word{}); err == nil {
		t.Error("unaligned write accepted")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	m := New(64)
	if _, err := m.ReadWord(64); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := m.WriteWord(1<<40, word.Word{}); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestZeroRangeClearsDataAndTags(t *testing.T) {
	m := New(256)
	for i := uint64(0); i < 8; i++ {
		if err := m.WriteWord(i*8, word.Tagged(^uint64(0))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ZeroRange(0, 64); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		w, _ := m.ReadWord(i * 8)
		if !w.IsZero() {
			t.Errorf("word %d = %v after ZeroRange", i, w)
		}
	}
	if err := m.ZeroRange(0, 7); err == nil {
		t.Error("unaligned zero size accepted")
	}
}

func TestTaggedWordsIn(t *testing.T) {
	m := New(256)
	m.WriteWord(8, word.Tagged(1))
	m.WriteWord(24, word.Tagged(2))
	m.WriteWord(32, word.FromInt(3))
	n, err := m.TaggedWordsIn(0, 64)
	if err != nil || n != 2 {
		t.Errorf("TaggedWordsIn = %d, %v; want 2", n, err)
	}
}

func TestOverheadBytesMatchesPaperRatio(t *testing.T) {
	m := New(8 << 20) // the M-Machine's 8MB off-chip memory
	ratio := float64(m.OverheadBytes()) / float64(m.Size())
	if ratio < 0.014 || ratio > 0.017 {
		t.Errorf("tag overhead ratio = %v, want ≈1/64", ratio)
	}
}

func TestFrameAllocator(t *testing.T) {
	m := New(16 * 4096)
	fa, err := NewFrameAllocator(m, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Total() != 16 || fa.Free() != 16 || fa.FrameSize() != 4096 {
		t.Fatalf("geometry: total=%d free=%d size=%d", fa.Total(), fa.Free(), fa.FrameSize())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		f, err := fa.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f%4096 != 0 || f >= m.Size() {
			t.Errorf("frame %#x invalid", f)
		}
		if seen[f] {
			t.Errorf("frame %#x handed out twice", f)
		}
		seen[f] = true
	}
	if _, err := fa.Alloc(); err == nil {
		t.Error("alloc beyond capacity succeeded")
	}
	if err := fa.Release(4096); err != nil {
		t.Fatal(err)
	}
	if f, err := fa.Alloc(); err != nil || f != 4096 {
		t.Errorf("realloc = %#x, %v; want 0x1000", f, err)
	}
}

func TestFrameAllocatorValidation(t *testing.T) {
	m := New(16 * 4096)
	if _, err := NewFrameAllocator(m, 3000); err == nil {
		t.Error("non-power-of-two frame size accepted")
	}
	if _, err := NewFrameAllocator(New(5000), 4096); err == nil {
		t.Error("non-multiple memory size accepted")
	}
	fa, _ := NewFrameAllocator(m, 4096)
	if err := fa.Release(100); err == nil {
		t.Error("unaligned release accepted")
	}
	if err := fa.Release(0); err == nil {
		t.Error("release of never-allocated frame when full accepted")
	}
}

func TestFrameClaim(t *testing.T) {
	m := New(8 * 4096)
	fa, _ := NewFrameAllocator(m, 4096)
	if err := fa.Claim(3 * 4096); err != nil {
		t.Fatal(err)
	}
	if fa.Free() != 7 {
		t.Errorf("Free = %d", fa.Free())
	}
	for i := 0; i < 7; i++ {
		f, err := fa.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f == 3*4096 {
			t.Error("claimed frame handed out")
		}
	}
	if err := fa.Claim(3 * 4096); err == nil {
		t.Error("double claim accepted")
	}
	if err := fa.Claim(100); err == nil {
		t.Error("unaligned claim accepted")
	}
}

func TestByteAccess(t *testing.T) {
	m := New(64)
	// Place a word, then read its bytes.
	m.WriteWord(8, word.FromUint(0x1122334455667788))
	for i, want := range []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11} {
		b, err := m.ByteAt(8 + uint64(i))
		if err != nil || b != want {
			t.Errorf("byte %d = %#x (%v), want %#x", i, b, err, want)
		}
	}
	// Byte writes land in the right lane and preserve neighbours.
	if err := m.SetByteAt(10, 0xaa); err != nil {
		t.Fatal(err)
	}
	// Byte 2 (bits 16..23, originally 0x66) was replaced.
	w, _ := m.ReadWord(8)
	if w.Uint() != 0x1122334455aa7788 {
		t.Errorf("word after byte write = %#x", w.Uint())
	}
	if _, err := m.ByteAt(1 << 20); err == nil {
		t.Error("out-of-range byte read accepted")
	}
	if err := m.SetByteAt(1<<20, 0); err == nil {
		t.Error("out-of-range byte write accepted")
	}
}

func TestByteWriteClearsTag(t *testing.T) {
	m := New(64)
	m.WriteWord(0, word.Tagged(0xdeadbeef))
	if err := m.SetByteAt(5, 0x01); err != nil {
		t.Fatal(err)
	}
	w, _ := m.ReadWord(0)
	if w.Tag {
		t.Error("partial overwrite preserved the tag")
	}
	// Byte reads never clear tags.
	m.WriteWord(8, word.Tagged(42))
	m.ByteAt(8)
	w2, _ := m.ReadWord(8)
	if !w2.Tag {
		t.Error("byte read cleared a tag")
	}
}

// A frame released twice must not be handed to two owners: the second
// Release is refused while another frame is still in use, and so is a
// frame beyond the end of memory.
func TestFrameReleaseRejectsDoubleAndOutOfRange(t *testing.T) {
	fa, _ := NewFrameAllocator(New(16*4096), 4096)
	a, _ := fa.Alloc()
	b, _ := fa.Alloc()
	if err := fa.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := fa.Release(a); err == nil {
		t.Error("second release of the same frame accepted")
	}
	if fa.Free() != 15 {
		t.Errorf("Free = %d with frame %#x in use, want 15", fa.Free(), b)
	}
	x, _ := fa.Alloc()
	y, _ := fa.Alloc()
	if x == y || x == b || y == b {
		t.Errorf("frames handed out twice: %#x, %#x with %#x in use", x, y, b)
	}
	if err := fa.Release(16 * 4096); err == nil {
		t.Error("release of a frame beyond memory accepted")
	}
	if err := fa.Claim(16 * 4096); err == nil {
		t.Error("claim of a frame beyond memory accepted")
	}
}

// Claim keeps the free list's order: the frames after it come out as
// they would have, minus the claimed one.
func TestFrameClaimKeepsOrder(t *testing.T) {
	fa, _ := NewFrameAllocator(New(8*4096), 4096)
	for _, f := range []uint64{2, 5, 0} {
		if err := fa.Claim(f * 4096); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []uint64{1, 3, 4, 6, 7} {
		if f, err := fa.Alloc(); err != nil || f != want*4096 {
			t.Fatalf("Alloc = %#x, %v; want %#x", f, err, want*4096)
		}
	}
}

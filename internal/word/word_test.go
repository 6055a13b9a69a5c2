package word

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var w Word
	if !w.IsZero() {
		t.Error("zero Word should report IsZero")
	}
	if w.Tag {
		t.Error("zero Word must be untagged")
	}
}

func TestFromIntRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42, -42} {
		w := FromInt(v)
		if w.Int() != v {
			t.Errorf("FromInt(%d).Int() = %d", v, w.Int())
		}
		if w.Tag {
			t.Errorf("FromInt(%d) must be untagged", v)
		}
	}
}

func TestFromUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := FromUint(v)
		return w.Uint() == v && !w.Tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagged(t *testing.T) {
	w := Tagged(0xdeadbeef)
	if !w.Tag {
		t.Fatal("Tagged must set tag")
	}
	if w.Uint() != 0xdeadbeef {
		t.Errorf("Tagged bits = %#x", w.Uint())
	}
}

func TestUntagPreservesBits(t *testing.T) {
	f := func(v uint64) bool {
		u := Tagged(v).Untag()
		return u.Uint() == v && !u.Tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUntagIdempotent(t *testing.T) {
	w := FromUint(7).Untag().Untag()
	if w.Tag || w.Uint() != 7 {
		t.Errorf("Untag twice changed word: %v", w)
	}
}

func TestIsZeroTaggedZeroIsNotZero(t *testing.T) {
	// A tagged word with zero bits is a (malformed) pointer, not the
	// integer zero.
	if Tagged(0).IsZero() {
		t.Error("tagged zero must not be IsZero")
	}
}

func TestString(t *testing.T) {
	if got := Tagged(0x10).String(); got != "*0x0000000000000010" {
		t.Errorf("tagged String = %q", got)
	}
	if got := FromUint(0x10).String(); got != "0x0000000000000010" {
		t.Errorf("untagged String = %q", got)
	}
}

func TestTagOverheadRatio(t *testing.T) {
	// Sec 4.1: one tag bit per 64-bit word ⇒ ~1.5% overhead.
	if TagOverheadRatio < 0.0153 || TagOverheadRatio > 0.0155 {
		t.Errorf("TagOverheadRatio = %v, want ≈0.0154", TagOverheadRatio)
	}
}

func TestIntNegative(t *testing.T) {
	w := FromInt(-5)
	if w.Int() != -5 {
		t.Errorf("Int() = %d", w.Int())
	}
	if w.Uint() != 0xfffffffffffffffb {
		t.Errorf("Uint() = %#x", w.Uint())
	}
}

// TestHashPinned pins Hash to the values recorded fingerprints were
// computed with: seed, prime, word-wise mixing, and the tag as a
// trailing 1 or 0.
func TestHashPinned(t *testing.T) {
	h := NewHash()
	h.Mix(1)
	h.Mix(2)
	h.MixWord(Tagged(3))
	h.MixWord(FromUint(0xdeadbeef))
	if got := uint64(h); got != 0x71c5cb80a4f98233 {
		t.Fatalf("hash = %#x, want 0x71c5cb80a4f98233", got)
	}
	if NewHash() != 1469598103934665603 {
		t.Fatalf("seed = %d", NewHash())
	}
}

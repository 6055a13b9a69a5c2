// Package word defines the universal datum of a guarded-pointer machine:
// a 64-bit word extended with a single tag bit.
//
// The tag bit is the unforgeability mechanism of the paper (Carter,
// Keckler, Dally; ASPLOS 1994): a word whose tag is set is a guarded
// pointer, a word whose tag is clear is ordinary data. User-mode code can
// clear the tag (by doing integer arithmetic on a pointer) but can never
// set it; only the privileged SETPTR operation may do that. Every storage
// location in the machine — registers, cache lines, physical memory —
// holds a Word, so pointers need no special storage, which is the core
// efficiency claim of the paper.
package word

import "fmt"

// Word is a 64-bit datum plus the tag bit that marks it as a guarded
// pointer. The zero value is the untagged integer 0, ready to use.
type Word struct {
	Bits uint64
	Tag  bool
}

// FromInt returns an untagged word holding the two's-complement encoding
// of v.
func FromInt(v int64) Word { return Word{Bits: uint64(v)} }

// FromUint returns an untagged word holding v.
func FromUint(v uint64) Word { return Word{Bits: v} }

// FromBool returns the untagged word 1 for true, 0 for false — the
// machine's comparison results.
func FromBool(b bool) Word {
	if b {
		return Word{Bits: 1}
	}
	return Word{}
}

// Tagged returns a word with bits v and the tag set. It is the package's
// equivalent of the privileged SETPTR operation and must only be called
// from code acting with supervisor authority (the kernel, or the machine
// executing an execute-privileged instruction stream).
func Tagged(v uint64) Word { return Word{Bits: v, Tag: true} }

// Int returns the word's bits as a signed integer. The tag is ignored;
// reading a pointer as an integer is exactly the paper's pointer-to-
// integer cast (the tag would have been cleared by the arithmetic that
// produced the read).
func (w Word) Int() int64 { return int64(w.Bits) }

// Uint returns the word's bits unsigned.
func (w Word) Uint() uint64 { return w.Bits }

// Untag returns the same bits with the tag cleared. This is what happens
// when a guarded pointer is used as an input to a non-pointer operation:
// "the pointer bit of the guarded pointer is cleared, which converts the
// pointer into an integer with the same bit fields as the original
// pointer" (Sec 2.2).
func (w Word) Untag() Word { return Word{Bits: w.Bits} }

// IsZero reports whether the word is the untagged zero.
func (w Word) IsZero() bool { return w.Bits == 0 && !w.Tag }

// String renders the word for diagnostics; tagged words carry a "*"
// prefix.
func (w Word) String() string {
	if w.Tag {
		return fmt.Sprintf("*%#016x", w.Bits)
	}
	return fmt.Sprintf("%#016x", w.Bits)
}

// BytesPerWord is the size of a machine word in bytes. The machine is
// word-oriented (the M-Machine's memory is measured in 64-bit words) but
// addresses are byte addresses, as in the paper's 54-bit byte-addressable
// space.
const BytesPerWord = 8

// TagOverheadRatio is the fraction of extra storage the tag bit costs:
// one bit per 64+1. The paper rounds this to "a 1.5% increase in the
// amount of memory required by the system" (Sec 4.1).
const TagOverheadRatio = 1.0 / 65.0

// Hash is a running word-wise FNV-1a hash: Mix XORs in a whole 64-bit
// value and multiplies by the 64-bit FNV prime. (hash/fnv mixes bytes,
// so it gives different values.) The repository's architectural
// fingerprints — machine.FingerprintThreads, migrate.FingerprintImage —
// are built on it and recorded results hash them, so neither the seed
// nor any caller's mixing order may change.
type Hash uint64

// NewHash returns an empty hash. Its seed, 1469598103934665603, is one
// digit short of FNV's 64-bit offset basis; it stays because recorded
// fingerprints were computed with it.
func NewHash() Hash { return 1469598103934665603 }

// Mix folds v into h.
func (h *Hash) Mix(v uint64) {
	*h ^= Hash(v)
	*h *= 1099511628211
}

// MixWord folds a tagged word into h: its bits, then 1 or 0 for its tag.
func (h *Hash) MixWord(w Word) {
	h.Mix(w.Bits)
	if w.Tag {
		h.Mix(1)
	} else {
		h.Mix(0)
	}
}

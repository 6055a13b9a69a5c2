// Package mem models the physical memory of a guarded-pointer machine:
// a word-oriented store in which every 64-bit word carries the extra tag
// bit (Sec 4.1: "a single tag bit is required on all memory words"). The
// package also provides the physical frame allocator used by the paging
// layer.
//
// Physical memory is word-addressable through byte addresses; the
// machine's loads and stores operate on naturally aligned 64-bit words,
// matching the M-Machine's 64-bit data types (Sec 3).
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/word"
)

// Sentinel errors for the two ways a physical access can be malformed.
// The accessor functions return these unwrapped on their fast paths —
// no fmt formatting, no allocation — and attach the address detail via
// *AddrError only once an error actually escapes to a caller.
var (
	// ErrUnaligned reports a word access whose address is not
	// word-aligned.
	ErrUnaligned = errors.New("unaligned word access")
	// ErrOutOfRange reports an access beyond the end of physical
	// memory.
	ErrOutOfRange = errors.New("beyond physical memory")
)

// AddrError decorates a sentinel cause with the faulting physical
// address and operation. It is built only on the cold path (when an
// access actually fails); errors.Is sees through it to the sentinel.
type AddrError struct {
	Op   string // "read" or "write"
	Addr uint64 // faulting physical byte address
	Mem  uint64 // physical memory size in bytes
	Err  error  // ErrUnaligned or ErrOutOfRange
}

func (e *AddrError) Error() string {
	if e.Err == ErrOutOfRange {
		return fmt.Sprintf("mem: %s at %#x: %v (%d bytes)", e.Op, e.Addr, e.Err, e.Mem)
	}
	return fmt.Sprintf("mem: %s at %#x: %v", e.Op, e.Addr, e.Err)
}

func (e *AddrError) Unwrap() error { return e.Err }

// ParityError reports that a word read observed stored bits inconsistent
// with the word's parity bit — the memory-system analog of an ECC/parity
// machine check. It is only ever produced after EnableParity, and only
// when the word was altered outside the normal write path (a soft error,
// modeled by FlipBit).
type ParityError struct {
	Addr uint64 // physical byte address of the corrupted word
}

func (e *ParityError) Error() string {
	return fmt.Sprintf("mem: parity error at %#x: word corrupted outside the write path", e.Addr)
}

// CorruptionDetected marks this error as an explicit
// corruption-detection signal for the fault-injection audit
// (docs/ROBUSTNESS.md).
func (e *ParityError) CorruptionDetected() bool { return true }

// Physical memory is stored in 4 KB pages of pageWords words, allocated
// on the first write of a non-zero word or a tag. Physical space "is
// allocated on a page-by-page basis, independent of segmentation"
// (Sec 4.2), so a job pays for the pages it touches, not for the whole
// memory: an absent page reads as untagged zero, and its check bits —
// the parity or SECDED bits of a zero word are zero — are consistent.
const (
	pageShift = 9
	pageWords = 1 << pageShift
	pageBytes = pageWords * word.BytesPerWord
	pageMask  = pageWords - 1
)

// Page is one storage page: its data, tag and check planes. Its zero
// value is a page of untagged zero words with consistent check bits,
// and so is the nil *Page, which stands for an absent page.
//
// A Page is also a checkpoint's image of the page (Snapshot). A page
// handed out by Snapshot is shared: nothing writes it again, and the
// memory that owns it clones it before its next change (copy on
// write), so capturing a page costs a pointer, not a copy, and any
// number of images and memories may hold one page at once.
type Page struct {
	data [pageWords]uint64
	tags [pageWords / 64]uint64 // 1 bit per word
	// parity is an even-parity bit per word covering the 64 data bits
	// plus the tag bit, kept while the parity plane is enabled.
	parity [pageWords / 64]uint64
	// ecc is the SECDED check byte per word (see ecc.go), kept while the
	// ECC plane is enabled.
	ecc [pageWords]uint8
	// shared marks a page a snapshot holds. Only the owning memory sets
	// it, on a page still private to it; no plane of a shared page is
	// ever written again.
	shared bool
}

// PageWords is the number of words in a page.
const PageWords = pageWords

// PlaneBytes is the size of a page's data and tag planes as
// AppendPlanes lays them out: the tag bitmap, one bit per word, then
// the words, each little-endian.
const PlaneBytes = pageWords/8 + pageBytes

// Word returns word i (0 ≤ i < PageWords) of the page.
func (p *Page) Word(i int) word.Word {
	if p == nil {
		return word.Word{}
	}
	return p.word(uint64(i))
}

func (p *Page) word(j uint64) word.Word {
	return word.Word{Bits: p.data[j], Tag: p.tags[j/64]>>(j%64)&1 != 0}
}

// AppendPlanes appends the page's tag and data planes to b, PlaneBytes
// bytes in all.
func (p *Page) AppendPlanes(b []byte) []byte {
	if p == nil {
		return append(b, make([]byte, PlaneBytes)...)
	}
	for _, t := range p.tags {
		b = binary.LittleEndian.AppendUint64(b, t)
	}
	for _, d := range p.data {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b
}

// PageFromPlanes builds a page from the first PlaneBytes bytes of b,
// laid out as AppendPlanes writes them. The page is shared from the
// start, so a memory that adopts it clones it before writing; a page
// of untagged zeros comes back nil.
func PageFromPlanes(b []byte) *Page {
	p := &Page{shared: true}
	var any uint64
	for i := range p.tags {
		p.tags[i] = binary.LittleEndian.Uint64(b[8*i:])
		any |= p.tags[i]
	}
	b = b[pageWords/8 : PlaneBytes]
	for i := range p.data {
		p.data[i] = binary.LittleEndian.Uint64(b[8*i:])
		any |= p.data[i]
	}
	if any == 0 {
		return nil
	}
	return p
}

// Cleared returns a copy of the page with words lo..hi-1 set to
// untagged zero; like a snapshot, the copy is shared.
func (p *Page) Cleared(lo, hi int) *Page {
	if p == nil {
		return nil
	}
	c := *p
	for j := lo; j < hi; j++ {
		c.data[j] = 0
		c.setTag(uint64(j), false)
	}
	c.shared = true
	return &c
}

func (p *Page) setTag(j uint64, t bool) {
	if t {
		p.tags[j/64] |= 1 << (j % 64)
	} else {
		p.tags[j/64] &^= 1 << (j % 64)
	}
}

func (p *Page) parityAt(j uint64) bool { return p.parity[j/64]>>(j%64)&1 != 0 }

func (p *Page) setParity(j uint64, b bool) {
	if b {
		p.parity[j/64] |= 1 << (j % 64)
	} else {
		p.parity[j/64] &^= 1 << (j % 64)
	}
}

// Check disciplines: at most one check plane is active.
const (
	checkNone uint8 = iota
	// checkParity models the paper's implicit reliability assumption —
	// a tag bit is only unforgeable if the memory system can tell a
	// stored word from a decayed one (see EnableParity).
	checkParity
	// checkECC is the SECDED plane (ecc.go): writes maintain it, reads
	// correct single-bit errors through it.
	checkECC
)

// Memory is a tagged physical memory. The tag plane is stored separately
// from the data plane, one bit per word, exactly mirroring the hardware
// cost accounting of Sec 4.1.
type Memory struct {
	words       uint64
	pages       []*Page // nil: absent, reads as untagged zero
	check       uint8   // checkNone, checkParity or checkECC
	eccStats    ECCStats
	scrubCursor uint64 // ScrubStep's rotating position
}

// New returns a physical memory of the given size in bytes, rounded up
// to a whole number of words. All words are untagged zero, and no page
// is allocated until it is written.
func New(sizeBytes uint64) *Memory {
	words := (sizeBytes + word.BytesPerWord - 1) / word.BytesPerWord
	return &Memory{words: words, pages: make([]*Page, (words+pageMask)>>pageShift)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.words * word.BytesPerWord }

// Words returns the memory size in words.
func (m *Memory) Words() uint64 { return m.words }

// index maps a physical byte address to its word index, returning a
// bare sentinel on failure so the hot path never formats anything.
func (m *Memory) index(paddr uint64) (uint64, error) {
	if paddr%word.BytesPerWord != 0 {
		return 0, ErrUnaligned
	}
	i := paddr / word.BytesPerWord
	if i >= m.words {
		return 0, ErrOutOfRange
	}
	return i, nil
}

// addrErr is the cold-path wrapper attaching address detail to a
// sentinel. Kept out of line so the accessors' fast paths stay small
// enough to inline.
//
//go:noinline
func (m *Memory) addrErr(op string, paddr uint64, err error) error {
	return &AddrError{Op: op, Addr: paddr, Mem: m.Size(), Err: err}
}

// writable returns page k ready to be changed: made present if it is
// absent, and cloned if a snapshot shares it.
func (m *Memory) writable(k uint64) *Page {
	p := m.pages[k]
	switch {
	case p == nil:
		p = new(Page)
	case p.shared:
		c := *p
		c.shared = false
		p = &c
	default:
		return p
	}
	m.pages[k] = p
	return p
}

// pageEnd is the word index where the page holding word i ends: the
// next page boundary, or the end of memory.
func (m *Memory) pageEnd(i uint64) uint64 {
	return min(i&^pageMask+pageWords, m.words)
}

// ReadWord returns the tagged word at physical byte address paddr, which
// must be word-aligned and in range. With parity enabled, a word whose
// stored bits disagree with its parity bit returns a *ParityError
// instead of the (corrupted) value.
func (m *Memory) ReadWord(paddr uint64) (word.Word, error) {
	i, err := m.index(paddr)
	if err != nil {
		return word.Word{}, m.addrErr("read", paddr, err)
	}
	k, j := i>>pageShift, i&pageMask
	p := m.pages[k]
	switch {
	case p == nil:
		return word.Word{}, nil
	case m.check != checkNone:
		return m.read(k, j, paddr)
	}
	return p.word(j), nil
}

// read returns word j of present page k (at paddr), verifying it
// against the active check plane.
func (m *Memory) read(k, j, paddr uint64) (word.Word, error) {
	if m.check == checkECC && !m.verifyECC(k, j) {
		return word.Word{}, &ECCError{Addr: paddr}
	}
	p := m.pages[k] // after verifyECC, which may have cloned it
	w := p.word(j)
	if m.check == checkParity && p.parityAt(j) != wordParity(w) {
		return word.Word{}, &ParityError{Addr: paddr}
	}
	return w, nil
}

// WriteWord stores the tagged word w at physical byte address paddr.
func (m *Memory) WriteWord(paddr uint64, w word.Word) error {
	i, err := m.index(paddr)
	if err != nil {
		return m.addrErr("write", paddr, err)
	}
	k := i >> pageShift
	if m.pages[k] == nil && w.IsZero() {
		return nil // an absent page already reads as this word
	}
	m.write(m.writable(k), i&pageMask, w)
	return nil
}

// write stores w as word j of writable page p, keeping the active check
// plane coherent.
func (m *Memory) write(p *Page, j uint64, w word.Word) {
	p.data[j] = w.Bits
	p.setTag(j, w.Tag)
	if m.check != checkNone {
		m.writeCheck(p, j, w)
	}
}

// writeCheck updates the active check plane for word j of p, just
// written with w.
func (m *Memory) writeCheck(p *Page, j uint64, w word.Word) {
	switch m.check {
	case checkParity:
		p.setParity(j, wordParity(w))
	case checkECC:
		p.ecc[j] = checkByte(w)
	}
}

// ReadWords fills dst with the words starting at physical byte address
// paddr, looking each page up once. It stops at the first word ReadWord
// would reject, returning the same error with the words before it read
// (and, under ECC, corrected) exactly as a ReadWord loop would.
func (m *Memory) ReadWords(paddr uint64, dst []word.Word) error {
	for n := 0; n < len(dst); {
		a := paddr + uint64(n)*word.BytesPerWord
		i, err := m.index(a)
		if err != nil {
			return m.addrErr("read", a, err)
		}
		chunk := dst[n:min(len(dst), n+int(m.pageEnd(i)-i))]
		k := i >> pageShift
		switch p := m.pages[k]; {
		case p == nil:
			clear(chunk)
		case m.check == checkNone:
			for c := range chunk {
				chunk[c] = p.word((i + uint64(c)) & pageMask)
			}
		default:
			for c := range chunk {
				w, err := m.read(k, (i+uint64(c))&pageMask, a+uint64(c)*word.BytesPerWord)
				if err != nil {
					return err
				}
				chunk[c] = w
			}
		}
		n += len(chunk)
	}
	return nil
}

// WriteWords stores src at the words starting at physical byte address
// paddr, looking each page up once; a page it would fill with untagged
// zeros stays absent. Like a WriteWord loop, it stops at the first
// misaligned or out-of-range word with the words before it written.
func (m *Memory) WriteWords(paddr uint64, src []word.Word) error {
	for n := 0; n < len(src); {
		a := paddr + uint64(n)*word.BytesPerWord
		i, err := m.index(a)
		if err != nil {
			return m.addrErr("write", a, err)
		}
		chunk := src[n:min(len(src), n+int(m.pageEnd(i)-i))]
		k := i >> pageShift
		if m.pages[k] != nil || !allZero(chunk) {
			p := m.writable(k)
			for c, w := range chunk {
				m.write(p, (i+uint64(c))&pageMask, w)
			}
		}
		n += len(chunk)
	}
	return nil
}

func allZero(ws []word.Word) bool {
	for _, w := range ws {
		if !w.IsZero() {
			return false
		}
	}
	return true
}

// ZeroRange clears size bytes starting at paddr (word aligned), data and
// tags both — this is what frame recycling does before handing memory to
// a new owner so stale pointers can never leak between protection
// domains. A page the range covers whole becomes absent again; like a
// WriteWord loop, a range running past the end of memory is cleared up
// to the end and then reported.
func (m *Memory) ZeroRange(paddr, size uint64) error {
	if size%word.BytesPerWord != 0 {
		return fmt.Errorf("mem: zero range size %#x not word aligned", size)
	}
	for off := uint64(0); off < size; {
		a := paddr + off
		i, err := m.index(a)
		if err != nil {
			return m.addrErr("write", a, err)
		}
		end := min(m.pageEnd(i), i+(size-off)/word.BytesPerWord)
		k := i >> pageShift
		switch {
		case m.pages[k] == nil:
		case i&pageMask == 0 && end == m.pageEnd(i):
			m.pages[k] = nil
		default:
			p := m.writable(k)
			for j := i; j < end; j++ {
				m.write(p, j&pageMask, word.Word{})
			}
		}
		off += (end - i) * word.BytesPerWord
	}
	return nil
}

// TaggedWordsIn counts the tagged (pointer) words in the size-byte range
// at paddr. The address-space garbage collector uses this scan: "pointers
// are self identifying via the tag bit" (Sec 4.3). Absent pages hold no
// tags and are skipped.
func (m *Memory) TaggedWordsIn(paddr, size uint64) (int, error) {
	n := 0
	for off := uint64(0); off+word.BytesPerWord <= size; {
		a := paddr + off
		i, err := m.index(a)
		if err != nil {
			return n, m.addrErr("read", a, err)
		}
		end := min(m.pageEnd(i), i+(size-off)/word.BytesPerWord)
		if k := i >> pageShift; m.pages[k] != nil {
			for j := i; j < end; j++ {
				w, err := m.read(k, j&pageMask, a+(j-i)*word.BytesPerWord)
				if err != nil {
					return n, err
				}
				if w.Tag {
					n++
				}
			}
		}
		off += (end - i) * word.BytesPerWord
	}
	return n, nil
}

// ByteAt returns the byte at paddr (any alignment). The tag of the
// containing word is irrelevant to a byte read — bytes are data.
func (m *Memory) ByteAt(paddr uint64) (byte, error) {
	w, err := m.ReadWord(paddr &^ 7)
	if err != nil {
		return 0, err
	}
	return byte(w.Bits >> ((paddr & 7) * 8)), nil
}

// SetByteAt stores one byte at paddr. Overwriting any byte of a word
// that holds a guarded pointer CLEARS the word's tag: a partially
// overwritten capability is no capability at all, which is what makes
// byte stores safe to allow everywhere.
func (m *Memory) SetByteAt(paddr uint64, b byte) error {
	base := paddr &^ 7
	w, err := m.ReadWord(base)
	if err != nil {
		return err
	}
	shift := (paddr & 7) * 8
	w.Bits = w.Bits&^(uint64(0xff)<<shift) | uint64(b)<<shift
	w.Tag = false
	return m.WriteWord(base, w)
}

// OverheadBytes returns the storage cost of the tag plane in bytes
// (rounded up), the "small increase in the amount of memory required"
// of Sec 4.1: one bit per word of the whole memory, whether or not its
// page is present.
func (m *Memory) OverheadBytes() uint64 { return (m.words + 63) / 64 * 8 }

// wordParity computes the even-parity bit over the 64 data bits and the
// tag bit of w.
func wordParity(w word.Word) bool {
	p := bits.OnesCount64(w.Bits) & 1
	if w.Tag {
		p ^= 1
	}
	return p != 0
}

// EnableParity turns on the per-word parity plane: every stored word
// gains an even-parity bit covering data and tag, writes keep it
// coherent, and reads verify it. A word altered by any route other than
// a write — FlipBit's soft-error model — is detected at its next read.
// The plane is computed from the current contents, so enabling parity on
// a live memory is always consistent. Supersedes an active ECC plane
// (at most one check discipline runs at a time).
func (m *Memory) EnableParity() {
	m.check = checkParity
	for k, p := range m.pages {
		if p == nil {
			continue
		}
		p = m.writable(uint64(k))
		for j := uint64(0); j < pageWords; j++ {
			p.setParity(j, wordParity(p.word(j)))
		}
	}
}

// ParityEnabled reports whether the parity plane is active.
func (m *Memory) ParityEnabled() bool { return m.check == checkParity }

// FlipBit models a soft error: it inverts one bit of the word at paddr
// — bit 0..63 of the data, or the tag bit for bit 64 — WITHOUT updating
// the parity plane, exactly as a cosmic-ray upset would decay a DRAM
// cell underneath its check bits. With parity enabled the next ReadWord
// of the word reports a *ParityError; a WriteWord first repairs it
// (the fault was masked by overwrite). A flip in an absent page makes
// the page present, so the decayed word is there to be read.
func (m *Memory) FlipBit(paddr uint64, bit uint) error {
	i, err := m.index(paddr)
	if err != nil {
		return m.addrErr("flip", paddr, err)
	}
	if bit > 64 && (bit > 72 || m.check != checkECC) {
		return fmt.Errorf("mem: flip bit %d out of range (0..64)", bit)
	}
	p, j := m.writable(i>>pageShift), i&pageMask
	switch {
	case bit < 64:
		p.data[j] ^= 1 << bit
	case bit == 64:
		p.tags[j/64] ^= 1 << (j % 64)
	default:
		// Bits 65..72 decay the SECDED check byte itself (seven Hamming
		// bits then the overall parity bit) — check storage is DRAM too.
		p.ecc[j] ^= 1 << (bit - 65)
	}
	return nil
}

// Scrub sweeps the whole check plane against the stored words — the
// background-scrubber pass that finds latent soft errors before a load
// does — and returns the number of words still bad afterwards. Absent
// pages are clean by construction and skipped.
//
// With the parity plane active the sweep is detect-only: it counts the
// words whose parity disagrees with their contents. With the SECDED
// plane active (EnableECC) the sweep is corrective: every single-bit
// error is repaired in place (counted in ECCStats.Corrected) and only
// uncorrectable double-bit words are returned. Zero when neither plane
// is enabled.
func (m *Memory) Scrub() int {
	if m.check == checkNone {
		return 0
	}
	bad := 0
	for k, p := range m.pages {
		if p == nil {
			continue
		}
		for j := uint64(0); j < pageWords; j++ {
			if m.check == checkECC {
				if !m.verifyECC(uint64(k), j) {
					bad++
				}
			} else if p.parityAt(j) != wordParity(p.word(j)) {
				bad++
			}
		}
	}
	return bad
}

// PeekWord reads the word at paddr bypassing the parity check — the
// auditor's view of the raw (possibly corrupted) array contents.
func (m *Memory) PeekWord(paddr uint64) (word.Word, error) {
	i, err := m.index(paddr)
	if err != nil {
		return word.Word{}, m.addrErr("peek", paddr, err)
	}
	if p := m.pages[i>>pageShift]; p != nil {
		return p.word(i & pageMask), nil
	}
	return word.Word{}, nil
}

// pageAt maps the physical base address of a whole page to its index.
func (m *Memory) pageAt(op string, paddr uint64) (uint64, error) {
	switch {
	case paddr%pageBytes != 0:
		return 0, m.addrErr(op, paddr, ErrUnaligned)
	case paddr/word.BytesPerWord+pageWords > m.words:
		return 0, m.addrErr(op, paddr, ErrOutOfRange)
	}
	return paddr / pageBytes, nil
}

// Snapshot returns the page at physical address paddr, which must be
// the base of a whole page, as a fixed image: later writes to the
// memory clone the page first and never reach the image. It reads the
// page through the active check plane exactly as ReadWords would — the
// same *ParityError or *ECCError at the first bad word, the same
// corrections in place and the same ECCStats — and then marks it
// shared, so a capture costs no copy. An absent page returns nil.
func (m *Memory) Snapshot(paddr uint64) (*Page, error) {
	k, err := m.pageAt("snapshot", paddr)
	if err != nil {
		return nil, err
	}
	if m.pages[k] == nil {
		return nil, nil
	}
	if m.check != checkNone {
		for j := uint64(0); j < pageWords; j++ {
			if _, err := m.read(k, j, paddr+j*word.BytesPerWord); err != nil {
				return nil, err
			}
		}
	}
	p := m.pages[k]
	if !p.shared {
		p.shared = true
	}
	return p, nil
}

// Adopt installs p, a Snapshot or PageFromPlanes image, as the page at
// physical address paddr, which must be the base of a whole page: the
// memory then reads as p and clones it before any write, so the image
// stays as it was. A nil p leaves the page absent. Under an active
// check plane the memory takes a private clone and computes the plane
// for it, as WriteWords would.
func (m *Memory) Adopt(paddr uint64, p *Page) error {
	k, err := m.pageAt("adopt", paddr)
	if err != nil {
		return err
	}
	m.pages[k] = p
	if p != nil && m.check != checkNone {
		p = m.writable(k)
		for j := uint64(0); j < pageWords; j++ {
			m.writeCheck(p, j, p.word(j))
		}
	}
	return nil
}

package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/word"
)

// denseMemory is the flat, fully allocated tagged memory the paged
// Memory replaced, kept as the differential test's oracle: every plane
// is one array over all of memory, allocated and cleared up front.
type denseMemory struct {
	data        []uint64
	tags        []uint64 // bitmap, 1 bit per word
	parity      []uint64 // nil unless EnableParity
	ecc         []uint8  // nil unless EnableECC
	eccStats    ECCStats
	scrubCursor uint64
}

func newDense(sizeBytes uint64) *denseMemory {
	words := (sizeBytes + word.BytesPerWord - 1) / word.BytesPerWord
	return &denseMemory{
		data: make([]uint64, words),
		tags: make([]uint64, (words+63)/64),
	}
}

func (m *denseMemory) Size() uint64 { return uint64(len(m.data)) * word.BytesPerWord }

func (m *denseMemory) index(paddr uint64) (uint64, error) {
	if paddr%word.BytesPerWord != 0 {
		return 0, ErrUnaligned
	}
	i := paddr / word.BytesPerWord
	if i >= uint64(len(m.data)) {
		return 0, ErrOutOfRange
	}
	return i, nil
}

func (m *denseMemory) addrErr(op string, paddr uint64, err error) error {
	return &AddrError{Op: op, Addr: paddr, Mem: m.Size(), Err: err}
}

func (m *denseMemory) tagAt(i uint64) bool { return m.tags[i/64]>>(i%64)&1 != 0 }

func (m *denseMemory) setTag(i uint64, t bool) {
	if t {
		m.tags[i/64] |= 1 << (i % 64)
	} else {
		m.tags[i/64] &^= 1 << (i % 64)
	}
}

func (m *denseMemory) parityAt(i uint64) bool { return m.parity[i/64]>>(i%64)&1 != 0 }

func (m *denseMemory) setParity(i uint64, p bool) {
	if p {
		m.parity[i/64] |= 1 << (i % 64)
	} else {
		m.parity[i/64] &^= 1 << (i % 64)
	}
}

func (m *denseMemory) ReadWord(paddr uint64) (word.Word, error) {
	i, err := m.index(paddr)
	if err != nil {
		return word.Word{}, m.addrErr("read", paddr, err)
	}
	if m.ecc != nil && !m.verifyECC(i) {
		return word.Word{}, &ECCError{Addr: paddr}
	}
	w := word.Word{Bits: m.data[i], Tag: m.tagAt(i)}
	if m.parity != nil && m.parityAt(i) != wordParity(w) {
		return word.Word{}, &ParityError{Addr: paddr}
	}
	return w, nil
}

func (m *denseMemory) WriteWord(paddr uint64, w word.Word) error {
	i, err := m.index(paddr)
	if err != nil {
		return m.addrErr("write", paddr, err)
	}
	m.data[i] = w.Bits
	m.setTag(i, w.Tag)
	if m.parity != nil {
		m.setParity(i, wordParity(w))
	}
	if m.ecc != nil {
		m.ecc[i] = checkByte(w)
	}
	return nil
}

// ReadWords and WriteWords are the per-word loops the paged accessors
// must match.
func (m *denseMemory) ReadWords(paddr uint64, dst []word.Word) error {
	for i := range dst {
		w, err := m.ReadWord(paddr + uint64(i)*word.BytesPerWord)
		if err != nil {
			return err
		}
		dst[i] = w
	}
	return nil
}

func (m *denseMemory) WriteWords(paddr uint64, src []word.Word) error {
	for i, w := range src {
		if err := m.WriteWord(paddr+uint64(i)*word.BytesPerWord, w); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot and Adopt are the page copies the paged Memory's shared
// pages must match: a ReadWords and a WriteWords of one whole page.
func (m *denseMemory) pageAt(op string, paddr uint64) error {
	switch {
	case paddr%pageBytes != 0:
		return m.addrErr(op, paddr, ErrUnaligned)
	case paddr/word.BytesPerWord+pageWords > uint64(len(m.data)):
		return m.addrErr(op, paddr, ErrOutOfRange)
	}
	return nil
}

func (m *denseMemory) Snapshot(paddr uint64) ([]word.Word, error) {
	if err := m.pageAt("snapshot", paddr); err != nil {
		return nil, err
	}
	ws := make([]word.Word, pageWords)
	if err := m.ReadWords(paddr, ws); err != nil {
		return nil, err
	}
	return ws, nil
}

func (m *denseMemory) Adopt(paddr uint64, ws []word.Word) error {
	if err := m.pageAt("adopt", paddr); err != nil {
		return err
	}
	return m.WriteWords(paddr, ws)
}

func (m *denseMemory) ZeroRange(paddr, size uint64) error {
	if size%word.BytesPerWord != 0 {
		return fmt.Errorf("mem: zero range size %#x not word aligned", size)
	}
	for off := uint64(0); off < size; off += word.BytesPerWord {
		if err := m.WriteWord(paddr+off, word.Word{}); err != nil {
			return err
		}
	}
	return nil
}

func (m *denseMemory) TaggedWordsIn(paddr, size uint64) (int, error) {
	n := 0
	for off := uint64(0); off+word.BytesPerWord <= size; off += word.BytesPerWord {
		w, err := m.ReadWord(paddr + off)
		if err != nil {
			return n, err
		}
		if w.Tag {
			n++
		}
	}
	return n, nil
}

func (m *denseMemory) SetByteAt(paddr uint64, b byte) error {
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

func (m *denseMemory) EnableParity() {
	m.ecc = nil
	m.parity = make([]uint64, (uint64(len(m.data))+63)/64)
	for i := uint64(0); i < uint64(len(m.data)); i++ {
		m.setParity(i, wordParity(word.Word{Bits: m.data[i], Tag: m.tagAt(i)}))
	}
}

func (m *denseMemory) EnableECC() {
	m.parity = nil
	m.ecc = make([]uint8, len(m.data))
	for i := range m.data {
		m.ecc[i] = checkByte(word.Word{Bits: m.data[i], Tag: m.tagAt(uint64(i))})
	}
}

func (m *denseMemory) FlipBit(paddr uint64, bit uint) error {
	i, err := m.index(paddr)
	if err != nil {
		return m.addrErr("flip", paddr, err)
	}
	switch {
	case bit < 64:
		m.data[i] ^= 1 << bit
	case bit == 64:
		m.tags[i/64] ^= 1 << (i % 64)
	case bit <= 72 && m.ecc != nil:
		m.ecc[i] ^= 1 << (bit - 65)
	default:
		return fmt.Errorf("mem: flip bit %d out of range (0..64)", bit)
	}
	return nil
}

func (m *denseMemory) Scrub() int {
	if m.ecc != nil {
		bad := 0
		for i := range m.data {
			if !m.verifyECC(uint64(i)) {
				bad++
			}
		}
		return bad
	}
	if m.parity == nil {
		return 0
	}
	bad := 0
	for i := range m.data {
		w := word.Word{Bits: m.data[i], Tag: m.tagAt(uint64(i))}
		if m.parityAt(uint64(i)) != wordParity(w) {
			bad++
		}
	}
	return bad
}

func (m *denseMemory) PeekWord(paddr uint64) (word.Word, error) {
	i, err := m.index(paddr)
	if err != nil {
		return word.Word{}, m.addrErr("peek", paddr, err)
	}
	return word.Word{Bits: m.data[i], Tag: m.tagAt(i)}, nil
}

func (m *denseMemory) verifyECC(i uint64) bool {
	w := word.Word{Bits: m.data[i], Tag: m.tagAt(i)}
	cb := m.ecc[i]
	s := synOf(w) ^ cb&0x7f
	p := uint(bits.OnesCount64(w.Bits)) + uint(bits.OnesCount8(cb))
	if w.Tag {
		p++
	}
	odd := p&1 != 0
	switch {
	case s == 0 && !odd:
		return true
	case !odd:
		m.eccStats.DoubleBit++
		return false
	case s == 0 || s&(s-1) == 0:
		m.ecc[i] = checkByte(w)
	case int(s) < len(posToData) && posToData[s] >= 0:
		if d := posToData[s]; d < 64 {
			m.data[i] ^= 1 << uint(d)
		} else {
			m.tags[i/64] ^= 1 << (i % 64)
		}
	default:
		m.eccStats.DoubleBit++
		return false
	}
	m.eccStats.Corrected++
	return true
}

func (m *denseMemory) ScrubStep(n int) int {
	if m.ecc == nil || n <= 0 {
		return 0
	}
	if n > len(m.data) {
		n = len(m.data)
	}
	before := m.eccStats.Corrected
	for j := 0; j < n; j++ {
		i := m.scrubCursor
		m.scrubCursor++
		if m.scrubCursor >= uint64(len(m.data)) {
			m.scrubCursor = 0
		}
		m.verifyECC(i)
	}
	m.eccStats.ScrubWords += uint64(n)
	return int(m.eccStats.Corrected - before)
}

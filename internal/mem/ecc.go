// SECDED error-correcting code over tagged words.
//
// The parity plane of mem.go detects a decayed word; it cannot repair
// one. This file upgrades the memory system to a single-error-correct,
// double-error-detect (SECDED) Hamming code covering all 65 stored bits
// of a tagged word — the 64 data bits plus the tag. Eight check bits
// per word (seven Hamming syndrome bits plus one overall-parity bit)
// are held in a separate check plane, mirroring how the tag plane
// shadows the data plane.
//
// A codeword has 73 positions, numbered 1..72 in the classic Hamming
// layout: the seven power-of-two positions (1,2,4,...,64) hold check
// bits, the remaining 65 positions hold the data and tag bits in
// address order, and position 0 stands for the overall parity bit.
// The syndrome of a received word is the XOR of the positions of all
// set bits; a single flipped bit anywhere — data, tag, check, or the
// parity bit itself — yields its own position as the syndrome, so the
// scrubber (or a demand read) can put it back. Two flipped bits leave
// overall parity even with a non-zero syndrome: detected, not
// correctable, and surfaced as a machine check exactly like the
// parity plane's *ParityError.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/word"
)

// eccBits is the number of stored bits the code covers: 64 data + tag.
const eccBits = 65

// dataPos maps data-bit index (0..63 data, 64 tag) to its codeword
// position; posToData is the inverse (-1 for check-bit positions).
var (
	dataPos   [eccBits]uint8
	posToData [73]int8
	// synTab[b][v] is the syndrome contribution of data byte b holding
	// value v — XOR of dataPos[8b+j] over the set bits j of v — so a
	// word's syndrome costs eight table lookups instead of 65 shifts.
	synTab [8][256]uint8
)

func init() {
	for i := range posToData {
		posToData[i] = -1
	}
	pos := uint8(1)
	for i := 0; i < eccBits; i++ {
		for pos&(pos-1) == 0 { // skip power-of-two (check) positions
			pos++
		}
		dataPos[i] = pos
		posToData[pos] = int8(i)
		pos++
	}
	for b := 0; b < 8; b++ {
		for v := 0; v < 256; v++ {
			var s uint8
			for j := 0; j < 8; j++ {
				if v>>j&1 != 0 {
					s ^= dataPos[8*b+j]
				}
			}
			synTab[b][v] = s
		}
	}
}

// ECCStats counts error-correction events.
type ECCStats struct {
	// Corrected is the number of single-bit errors repaired in place —
	// by a demand read, a background scrub sweep, or a full Scrub.
	Corrected uint64
	// DoubleBit is the number of uncorrectable double-bit detections
	// surfaced as *ECCError machine checks.
	DoubleBit uint64
	// ScrubWords is the number of words examined by ScrubStep sweeps.
	ScrubWords uint64
}

// ECCError reports a word whose stored bits fail the SECDED check in a
// way correction cannot repair (two or more flipped bits). It is the
// double-error analog of *ParityError and, like it, an explicit
// corruption-detection signal.
type ECCError struct {
	Addr uint64 // physical byte address of the corrupted word
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("mem: uncorrectable ECC error at %#x: multi-bit corruption", e.Addr)
}

// CorruptionDetected marks this error as an explicit
// corruption-detection signal for the fault-injection audit.
func (e *ECCError) CorruptionDetected() bool { return true }

// synOf returns the 7-bit Hamming syndrome of the data+tag bits of w.
func synOf(w word.Word) uint8 {
	s := synTab[0][byte(w.Bits)] ^
		synTab[1][byte(w.Bits>>8)] ^
		synTab[2][byte(w.Bits>>16)] ^
		synTab[3][byte(w.Bits>>24)] ^
		synTab[4][byte(w.Bits>>32)] ^
		synTab[5][byte(w.Bits>>40)] ^
		synTab[6][byte(w.Bits>>48)] ^
		synTab[7][byte(w.Bits>>56)]
	if w.Tag {
		s ^= dataPos[64]
	}
	return s
}

// checkByte encodes w's SECDED check bits: the low seven bits hold the
// Hamming check bits (equal to the data syndrome, cancelling it), the
// top bit holds overall parity over the whole codeword.
func checkByte(w word.Word) uint8 {
	c := synOf(w)
	p := uint(bits.OnesCount64(w.Bits)) + uint(bits.OnesCount8(c))
	if w.Tag {
		p++
	}
	return c | uint8(p&1)<<7
}

// EnableECC turns on the SECDED check plane, computed from the current
// contents (enabling on a live memory is always consistent). It
// supersedes the detect-only parity plane: at most one of the two is
// active, and ECC wins.
func (m *Memory) EnableECC() {
	m.check = checkECC
	for k, p := range m.pages {
		if p == nil {
			continue
		}
		p = m.writable(uint64(k))
		for j := uint64(0); j < pageWords; j++ {
			p.ecc[j] = checkByte(p.word(j))
		}
	}
}

// ECCEnabled reports whether the SECDED plane is active.
func (m *Memory) ECCEnabled() bool { return m.check == checkECC }

// ECCStats returns a copy of the error-correction counters.
func (m *Memory) ECCStats() ECCStats { return m.eccStats }

// verifyECC checks word j of present page k against its check byte,
// repairing a single-bit error in place (data, tag, check bits, or the
// overall parity bit) — in a clone, if a snapshot shares the page. It
// reports whether the word is now good; false means an uncorrectable
// double-bit error was detected.
func (m *Memory) verifyECC(k, j uint64) bool {
	p := m.pages[k]
	w := p.word(j)
	cb := p.ecc[j]
	s := synOf(w) ^ cb&0x7f
	pc := uint(bits.OnesCount64(w.Bits)) + uint(bits.OnesCount8(cb))
	if w.Tag {
		pc++
	}
	odd := pc&1 != 0
	switch {
	case s == 0 && !odd:
		return true // clean
	case !odd:
		// Even overall parity with a non-zero syndrome: two bits flipped.
		m.eccStats.DoubleBit++
		return false
	case s == 0 || s&(s-1) == 0:
		// The overall parity bit (s==0) or a Hamming check bit flipped;
		// the data is intact — rebuild the check byte.
		m.writable(k).ecc[j] = checkByte(w)
	case int(s) < len(posToData) && posToData[s] >= 0:
		// A data or tag bit flipped: the syndrome names its position.
		p = m.writable(k)
		if d := posToData[s]; d < 64 {
			p.data[j] ^= 1 << uint(d)
		} else {
			p.tags[j/64] ^= 1 << (j % 64)
		}
	default:
		// Syndrome outside the codeword: at least two bits flipped.
		m.eccStats.DoubleBit++
		return false
	}
	m.eccStats.Corrected++
	return true
}

// ScrubStep is the background scrubber's incremental sweep: it examines
// the next n words after the rotating cursor, corrects any single-bit
// errors found, and returns how many words it repaired. Double-bit
// errors are left in place for a demand read (or full Scrub) to trap —
// the scrubber is a repair engine, not a fault-reporting path. Words in
// absent pages are counted as examined but cost nothing: they are clean
// by construction. A no-op unless ECC is enabled.
func (m *Memory) ScrubStep(n int) int {
	if m.check != checkECC || n <= 0 {
		return 0
	}
	left := min(uint64(n), m.words)
	m.eccStats.ScrubWords += left
	before := m.eccStats.Corrected
	for left > 0 {
		i := m.scrubCursor
		end := min(m.pageEnd(i), i+left)
		if k := i >> pageShift; m.pages[k] != nil {
			for j := i; j < end; j++ {
				m.verifyECC(k, j&pageMask)
			}
		}
		left -= end - i
		m.scrubCursor = end
		if m.scrubCursor >= m.words {
			m.scrubCursor = 0
		}
	}
	return int(m.eccStats.Corrected - before)
}

// Package persist is the one encoding and the one store of
// checkpoints: a versioned, checksummed, crash-safe store for
// incremental checkpoint chains (kernel.CheckpointIncremental), in a
// directory or in memory.
//
// Layout of one image file (all integers little-endian):
//
//	magic   "MMCKPT01"                       8 bytes
//	kind    u8   (1 = base, 2 = delta)
//	node    u32  (node id within the generation)
//	gen     u64  (generation number, 1-based)
//	parent  u64  (previous generation; == gen for a base)
//	cycle   u64  (barrier cycle the generation was captured at)
//	nsect   u32  (always 6)
//	hcrc    u32  (CRC-32/IEEE of every header byte above)
//	6 ×  section: id u8, len u64, crc u32 (of payload), payload
//
// Sections appear in a fixed order — meta(1), threads(2), resident(3),
// swapped(4), dropped(5), swapdropped(6) — and every record has a fixed
// size, so the decoder can validate counts against payload lengths
// exactly. Decode never panics on arbitrary bytes; every malformed
// input produces a typed *FormatError (FuzzCheckpointDecode holds the
// line).
//
// A generation is a set of image files (one per node) plus a commit
// marker written last (store.go); torn or corrupted generations are
// detected by the marker/CRCs and restore falls back to an older intact
// one.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

// sortedKeysU64U returns m's keys ascending (deterministic encoding).
func sortedKeysU64U(m map[uint64]uint) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedKeysU64B(m map[uint64]bool) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

const (
	magicImage  = "MMCKPT01"
	magicMarker = "MMCKOK01"

	kindBase  = 1
	kindDelta = 2

	secMeta        = 1
	secThreads     = 2
	secResident    = 3
	secSwapped     = 4
	secDropped     = 5
	secSwapDropped = 6
	numSections    = 6

	wordsPerPage = vm.PageSize / word.BytesPerWord // 512
	tagmapBytes  = wordsPerPage / 8                // 64
	pageBytes    = tagmapBytes + wordsPerPage*8    // packed page payload

	headerBytes = 8 + 1 + 4 + 8 + 8 + 8 + 4 // magic..nsect, before hcrc

	threadRecBytes = 8 + 1 + 8 + 9 + 16*9 // domain, state, instret, ip, regs

	sectionHdrBytes = 1 + 8 + 4 // id, length, crc
)

// FormatError is the decoder's only failure mode: every torn,
// truncated, bit-rotted or impossible input maps to one, never a panic
// and never a partially-populated image.
type FormatError struct {
	Msg string
}

func (e *FormatError) Error() string { return "persist: " + e.Msg }

func formatErrf(format string, args ...any) *FormatError {
	return &FormatError{Msg: fmt.Sprintf(format, args...)}
}

// CorruptionDetected marks decode failures as explicit corruption
// detections for the fault-injection audit (docs/ROBUSTNESS.md).
func (e *FormatError) CorruptionDetected() bool { return true }

// Header is the identity of one image file within a store.
type Header struct {
	Node   uint32
	Gen    uint64
	Parent uint64 // == Gen for a base image
	Cycle  uint64
	Delta  bool
}

// --- encoding ----------------------------------------------------------

type sectionBuf struct {
	id  byte
	buf []byte
}

func (s *sectionBuf) u8(v byte) { s.buf = append(s.buf, v) }
func (s *sectionBuf) u32(v uint32) {
	s.buf = binary.LittleEndian.AppendUint32(s.buf, v)
}
func (s *sectionBuf) u64(v uint64) {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

func (s *sectionBuf) word(w word.Word) {
	if w.Tag {
		s.u8(1)
	} else {
		s.u8(0)
	}
	s.u64(w.Bits)
}

// page appends one page record: vaddr, frame (resident only), packed
// tag bitmap, then the 512 data words.
func (s *sectionBuf) page(img kernel.PageImage, withFrame bool) {
	s.u64(img.VAddr)
	if withFrame {
		s.u64(img.Frame)
	}
	var tags [tagmapBytes]byte
	for i, w := range img.Words {
		if w.Tag {
			tags[i/8] |= 1 << (i % 8)
		}
	}
	s.buf = append(s.buf, tags[:]...)
	for _, w := range img.Words {
		s.u64(w.Bits)
	}
}

// pageRecBytes is the size of one page record (sectionBuf.page).
func pageRecBytes(withFrame bool) int {
	if withFrame {
		return 16 + pageBytes
	}
	return 8 + pageBytes
}

// EncodedSize returns the number of bytes Encode writes for cp, so a
// caller can size its buffer once.
func EncodedSize(cp *kernel.Checkpoint) int {
	meta := 8 + 8 + 8 + 4 + 16*len(cp.Segments) + 4 + 8*len(cp.Revoked)
	return headerBytes + 4 + numSections*sectionHdrBytes + meta +
		4 + threadRecBytes*len(cp.Threads) +
		4 + pageRecBytes(true)*len(cp.Resident) +
		4 + pageRecBytes(false)*len(cp.Swapped) +
		4 + 8*len(cp.Dropped) +
		4 + 8*len(cp.SwapDropped)
}

// Encode writes cp as one image file body. Page images must hold
// exactly one page of words (kernel captures always do).
func Encode(w io.Writer, hdr Header, cp *kernel.Checkpoint) error {
	for _, img := range cp.Resident {
		if len(img.Words) != wordsPerPage {
			return formatErrf("encode: resident page %#x has %d words, want %d", img.VAddr, len(img.Words), wordsPerPage)
		}
	}
	for _, img := range cp.Swapped {
		if len(img.Words) != wordsPerPage {
			return formatErrf("encode: swapped page %#x has %d words, want %d", img.VAddr, len(img.Words), wordsPerPage)
		}
	}
	if hdr.Delta != cp.Delta {
		return formatErrf("encode: header kind disagrees with image (delta=%v vs %v)", hdr.Delta, cp.Delta)
	}

	meta := sectionBuf{id: secMeta}
	meta.u64(cp.RegionBase)
	meta.u64(uint64(cp.RegionLog))
	meta.u64(uint64(cp.NextDomain))
	meta.u32(uint32(len(cp.Segments)))
	for _, b := range sortedKeysU64U(cp.Segments) {
		meta.u64(b)
		meta.u64(uint64(cp.Segments[b]))
	}
	meta.u32(uint32(len(cp.Revoked)))
	for _, b := range sortedKeysU64B(cp.Revoked) {
		meta.u64(b)
	}

	ths := sectionBuf{id: secThreads}
	ths.u32(uint32(len(cp.Threads)))
	for _, ti := range cp.Threads {
		ths.u64(uint64(ti.Domain))
		ths.u8(byte(ti.State))
		ths.u64(ti.Instret)
		ths.word(ti.IPWord)
		for _, r := range ti.Regs {
			ths.word(r)
		}
	}

	// The page sections are most of an image: size them from their page
	// counts instead of growing them a word at a time.
	res := sectionBuf{id: secResident, buf: make([]byte, 0, 4+pageRecBytes(true)*len(cp.Resident))}
	res.u32(uint32(len(cp.Resident)))
	for _, img := range cp.Resident {
		res.page(img, true)
	}
	swp := sectionBuf{id: secSwapped, buf: make([]byte, 0, 4+pageRecBytes(false)*len(cp.Swapped))}
	swp.u32(uint32(len(cp.Swapped)))
	for _, img := range cp.Swapped {
		swp.page(img, false)
	}
	drp := sectionBuf{id: secDropped}
	drp.u32(uint32(len(cp.Dropped)))
	for _, p := range cp.Dropped {
		drp.u64(p)
	}
	sdr := sectionBuf{id: secSwapDropped}
	sdr.u32(uint32(len(cp.SwapDropped)))
	for _, p := range cp.SwapDropped {
		sdr.u64(p)
	}

	hb := make([]byte, 0, headerBytes+4)
	hb = append(hb, magicImage...)
	kind := byte(kindBase)
	if cp.Delta {
		kind = kindDelta
	}
	hb = append(hb, kind)
	hb = binary.LittleEndian.AppendUint32(hb, hdr.Node)
	hb = binary.LittleEndian.AppendUint64(hb, hdr.Gen)
	hb = binary.LittleEndian.AppendUint64(hb, hdr.Parent)
	hb = binary.LittleEndian.AppendUint64(hb, hdr.Cycle)
	hb = binary.LittleEndian.AppendUint32(hb, numSections)
	hb = binary.LittleEndian.AppendUint32(hb, crc32.ChecksumIEEE(hb))
	if _, err := w.Write(hb); err != nil {
		return err
	}
	for _, s := range []*sectionBuf{&meta, &ths, &res, &swp, &drp, &sdr} {
		sh := make([]byte, 0, sectionHdrBytes)
		sh = append(sh, s.id)
		sh = binary.LittleEndian.AppendUint64(sh, uint64(len(s.buf)))
		sh = binary.LittleEndian.AppendUint32(sh, crc32.ChecksumIEEE(s.buf))
		if _, err := w.Write(sh); err != nil {
			return err
		}
		if _, err := w.Write(s.buf); err != nil {
			return err
		}
	}
	return nil
}

// --- decoding ----------------------------------------------------------

// reader is a bounds-checked cursor over the raw bytes; every read that
// would run past the end reports false instead of slicing out of range.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() (byte, bool) {
	if r.remaining() < 1 {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, true
}

func (r *reader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.remaining() < n {
		return nil, false
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, true
}

func (r *reader) word() (word.Word, bool) {
	tag, ok := r.u8()
	if !ok || tag > 1 {
		return word.Word{}, false
	}
	bits, ok := r.u64()
	if !ok {
		return word.Word{}, false
	}
	return word.Word{Bits: bits, Tag: tag == 1}, true
}

// decodePage reads one page record from a section payload.
func (r *reader) decodePage(withFrame bool) (kernel.PageImage, bool) {
	var img kernel.PageImage
	var ok bool
	if img.VAddr, ok = r.u64(); !ok {
		return img, false
	}
	if withFrame {
		if img.Frame, ok = r.u64(); !ok {
			return img, false
		}
	}
	tags, ok := r.bytes(tagmapBytes)
	if !ok {
		return img, false
	}
	img.Words = make([]word.Word, wordsPerPage)
	for i := range img.Words {
		bits, ok := r.u64()
		if !ok {
			return img, false
		}
		img.Words[i] = word.Word{Bits: bits, Tag: tags[i/8]&(1<<(i%8)) != 0}
	}
	return img, true
}

// Decode parses one image file body. Arbitrary input never panics: any
// malformed byte stream yields a *FormatError.
func Decode(data []byte) (Header, *kernel.Checkpoint, error) {
	var hdr Header
	r := &reader{b: data}
	magic, ok := r.bytes(8)
	if !ok || string(magic) != magicImage {
		return hdr, nil, formatErrf("bad magic")
	}
	kind, ok1 := r.u8()
	node, ok2 := r.u32()
	gen, ok3 := r.u64()
	parent, ok4 := r.u64()
	cycle, ok5 := r.u64()
	nsect, ok6 := r.u32()
	hcrc, ok7 := r.u32()
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return hdr, nil, formatErrf("truncated header")
	}
	if crc32.ChecksumIEEE(data[:headerBytes]) != hcrc {
		return hdr, nil, formatErrf("header checksum mismatch")
	}
	if kind != kindBase && kind != kindDelta {
		return hdr, nil, formatErrf("unknown image kind %d", kind)
	}
	if nsect != numSections {
		return hdr, nil, formatErrf("image declares %d sections, want %d", nsect, numSections)
	}
	hdr = Header{Node: node, Gen: gen, Parent: parent, Cycle: cycle, Delta: kind == kindDelta}
	if !hdr.Delta && hdr.Parent != hdr.Gen {
		return hdr, nil, formatErrf("base image with parent %d != gen %d", hdr.Parent, hdr.Gen)
	}

	cp := &kernel.Checkpoint{Delta: hdr.Delta}
	for want := byte(secMeta); want <= secSwapDropped; want++ {
		id, ok1 := r.u8()
		slen, ok2 := r.u64()
		scrc, ok3 := r.u32()
		if !(ok1 && ok2 && ok3) {
			return hdr, nil, formatErrf("truncated section header (section %d)", want)
		}
		if id != want {
			return hdr, nil, formatErrf("section %d out of order (got id %d)", want, id)
		}
		if slen > uint64(r.remaining()) {
			return hdr, nil, formatErrf("section %d claims %d bytes, %d remain", id, slen, r.remaining())
		}
		payload, _ := r.bytes(int(slen))
		if crc32.ChecksumIEEE(payload) != scrc {
			return hdr, nil, formatErrf("section %d checksum mismatch", id)
		}
		if err := decodeSection(cp, id, payload); err != nil {
			return hdr, nil, err
		}
	}
	if r.remaining() != 0 {
		return hdr, nil, formatErrf("%d trailing bytes after last section", r.remaining())
	}
	return hdr, cp, nil
}

// decodeSection parses one section payload into cp; the payload must be
// consumed exactly.
func decodeSection(cp *kernel.Checkpoint, id byte, payload []byte) error {
	r := &reader{b: payload}
	switch id {
	case secMeta:
		rb, ok1 := r.u64()
		rl, ok2 := r.u64()
		nd, ok3 := r.u64()
		if !(ok1 && ok2 && ok3) {
			return formatErrf("truncated meta section")
		}
		if rl > 64 {
			return formatErrf("impossible region log %d", rl)
		}
		cp.RegionBase, cp.RegionLog, cp.NextDomain = rb, uint(rl), int(nd)
		nseg, ok := r.u32()
		if !ok || uint64(nseg)*16 > uint64(r.remaining()) {
			return formatErrf("truncated segment table")
		}
		cp.Segments = make(map[uint64]uint, nseg)
		for i := uint32(0); i < nseg; i++ {
			base, _ := r.u64()
			logLen, ok := r.u64()
			if !ok || logLen > 64 {
				return formatErrf("bad segment record %d", i)
			}
			cp.Segments[base] = uint(logLen)
		}
		nrev, ok := r.u32()
		if !ok || uint64(nrev)*8 != uint64(r.remaining()) {
			return formatErrf("revocation list length mismatch")
		}
		cp.Revoked = make(map[uint64]bool, nrev)
		for i := uint32(0); i < nrev; i++ {
			base, _ := r.u64()
			cp.Revoked[base] = true
		}
	case secThreads:
		n, ok := r.u32()
		if !ok || uint64(n)*threadRecBytes != uint64(r.remaining()) {
			return formatErrf("thread section length mismatch")
		}
		for i := uint32(0); i < n; i++ {
			var ti kernel.ThreadImage
			dom, _ := r.u64()
			state, _ := r.u8()
			if state > byte(machine.Faulted) {
				return formatErrf("thread %d has impossible state %d", i, state)
			}
			ti.Domain = int(dom)
			ti.State = machine.ThreadState(state)
			ti.Instret, _ = r.u64()
			var ok bool
			if ti.IPWord, ok = r.word(); !ok {
				return formatErrf("thread %d has malformed IP word", i)
			}
			for j := range ti.Regs {
				if ti.Regs[j], ok = r.word(); !ok {
					return formatErrf("thread %d has malformed register %d", i, j)
				}
			}
			cp.Threads = append(cp.Threads, ti)
		}
	case secResident, secSwapped:
		withFrame := id == secResident
		rec := pageBytes + 8
		if withFrame {
			rec += 8
		}
		n, ok := r.u32()
		if !ok || uint64(n)*uint64(rec) != uint64(r.remaining()) {
			return formatErrf("page section %d length mismatch", id)
		}
		for i := uint32(0); i < n; i++ {
			img, ok := r.decodePage(withFrame)
			if !ok {
				return formatErrf("truncated page record %d in section %d", i, id)
			}
			if img.VAddr&vm.PageMask != 0 || (withFrame && img.Frame&vm.PageMask != 0) {
				return formatErrf("unaligned page record %d in section %d", i, id)
			}
			if withFrame {
				cp.Resident = append(cp.Resident, img)
			} else {
				cp.Swapped = append(cp.Swapped, img)
			}
		}
	case secDropped, secSwapDropped:
		n, ok := r.u32()
		if !ok || uint64(n)*8 != uint64(r.remaining()) {
			return formatErrf("tombstone section %d length mismatch", id)
		}
		for i := uint32(0); i < n; i++ {
			p, _ := r.u64()
			if p&vm.PageMask != 0 {
				return formatErrf("unaligned tombstone in section %d", id)
			}
			if id == secDropped {
				cp.Dropped = append(cp.Dropped, p)
			} else {
				cp.SwapDropped = append(cp.SwapDropped, p)
			}
		}
	}
	return nil
}

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
	"slices"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/word"
)

// sortedKeys returns m's keys ascending (deterministic encoding).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
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

	pageBytes = mem.PlaneBytes // packed page payload: tag bitmap, then the words

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

func appendWord(b []byte, w word.Word) []byte {
	tag := byte(0)
	if w.Tag {
		tag = 1
	}
	return binary.LittleEndian.AppendUint64(append(b, tag), w.Bits)
}

// pageRecBytes is the size of one page record: vaddr, frame (resident
// only), then the page's tag and data planes as mem lays them out — the
// packed tag bitmap, then the 512 data words.
func pageRecBytes(withFrame bool) int {
	if withFrame {
		return 16 + pageBytes
	}
	return 8 + pageBytes
}

// openSection appends section id's header with its length and CRC left
// zero, to be filled in by closeSection once the payload follows it.
func openSection(b []byte, id byte) ([]byte, int) {
	b = append(b, id)
	b = append(b, make([]byte, sectionHdrBytes-1)...)
	return b, len(b)
}

// closeSection back-patches the header of the section whose payload
// starts at start and runs to the end of b: the u64 length and the u32
// CRC just before start.
func closeSection(b []byte, start int) []byte {
	payload := b[start:]
	binary.LittleEndian.PutUint64(b[start-12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(b[start-4:], crc32.ChecksumIEEE(payload))
	return b
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

// Encode writes cp as one image file body: the bytes Marshal returns.
func Encode(w io.Writer, hdr Header, cp *kernel.Checkpoint) error {
	b, err := Marshal(hdr, cp)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Marshal returns cp encoded as one image file body, built in a single
// buffer of EncodedSize(cp) bytes: each section's header is written
// after its payload, and every page is copied once, from its planes.
func Marshal(hdr Header, cp *kernel.Checkpoint) ([]byte, error) {
	if hdr.Delta != cp.Delta {
		return nil, formatErrf("encode: header kind disagrees with image (delta=%v vs %v)", hdr.Delta, cp.Delta)
	}
	b := make([]byte, 0, EncodedSize(cp))
	b = append(b, magicImage...)
	kind := byte(kindBase)
	if cp.Delta {
		kind = kindDelta
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, hdr.Node)
	b = binary.LittleEndian.AppendUint64(b, hdr.Gen)
	b = binary.LittleEndian.AppendUint64(b, hdr.Parent)
	b = binary.LittleEndian.AppendUint64(b, hdr.Cycle)
	b = binary.LittleEndian.AppendUint32(b, numSections)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))

	b, at := openSection(b, secMeta)
	b = binary.LittleEndian.AppendUint64(b, cp.RegionBase)
	b = binary.LittleEndian.AppendUint64(b, uint64(cp.RegionLog))
	b = binary.LittleEndian.AppendUint64(b, uint64(cp.NextDomain))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cp.Segments)))
	for _, base := range sortedKeys(cp.Segments) {
		b = binary.LittleEndian.AppendUint64(b, base)
		b = binary.LittleEndian.AppendUint64(b, uint64(cp.Segments[base]))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cp.Revoked)))
	for _, base := range sortedKeys(cp.Revoked) {
		b = binary.LittleEndian.AppendUint64(b, base)
	}
	b = closeSection(b, at)

	b, at = openSection(b, secThreads)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cp.Threads)))
	for _, ti := range cp.Threads {
		b = binary.LittleEndian.AppendUint64(b, uint64(ti.Domain))
		b = append(b, byte(ti.State))
		b = binary.LittleEndian.AppendUint64(b, ti.Instret)
		b = appendWord(b, ti.IPWord)
		for _, r := range ti.Regs {
			b = appendWord(b, r)
		}
	}
	b = closeSection(b, at)

	for _, sec := range []struct {
		id        byte
		imgs      []kernel.PageImage
		withFrame bool
	}{{secResident, cp.Resident, true}, {secSwapped, cp.Swapped, false}} {
		b, at = openSection(b, sec.id)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec.imgs)))
		for _, img := range sec.imgs {
			b = binary.LittleEndian.AppendUint64(b, img.VAddr)
			if sec.withFrame {
				b = binary.LittleEndian.AppendUint64(b, img.Frame)
			}
			b = img.Page.AppendPlanes(b)
		}
		b = closeSection(b, at)
	}
	for _, sec := range []struct {
		id    byte
		pages []uint64
	}{{secDropped, cp.Dropped}, {secSwapDropped, cp.SwapDropped}} {
		b, at = openSection(b, sec.id)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec.pages)))
		for _, p := range sec.pages {
			b = binary.LittleEndian.AppendUint64(b, p)
		}
		b = closeSection(b, at)
	}
	return b, nil
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

// decodePage reads one page record from a section payload, building
// the page straight from its planes.
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
	planes, ok := r.bytes(pageBytes)
	if !ok {
		return img, false
	}
	img.Page = mem.PageFromPlanes(planes)
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

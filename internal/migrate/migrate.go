package migrate

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// Config parameterizes one migration.
type Config struct {
	// RoundBudget bounds pre-copy rounds including the base image; when
	// it expires the cutover runs on whatever delta remains. 0 means
	// DefaultRoundBudget.
	RoundBudget int
	// ConvergePages triggers cutover once a round's delta shrinks to
	// this many page images or fewer. 0 means DefaultConvergePages.
	ConvergePages int
	// Link sizes the simulated wire.
	Link LinkConfig
	// Node is the source node id stamped into the image headers.
	Node int

	// AbortIf, when non-nil, is polled at every round boundary and at
	// the commit barrier: returning true aborts the migration. The
	// multicomputer wires it to the source node's liveness, so a source
	// killed mid-migration tears the standby down instead of committing
	// a stale image.
	AbortIf func() bool
	// AbortAtRound, when non-zero, aborts the migration just before
	// capturing round N (1-based) — the fault-campaign and invariance
	// tests' handle on every round boundary.
	AbortAtRound int
	// AbortAtCutover aborts mid-cutover: after the final delta and the
	// fingerprint handshake are on the standby, instead of committing.
	AbortAtCutover bool
}

// Driver defaults: a round budget deep enough for convergent workloads
// and a convergence threshold of a handful of pages, so the final
// stop-the-world delta is small.
const (
	DefaultRoundBudget   = 8
	DefaultConvergePages = 8
)

func (c Config) withDefaults() Config {
	if c.RoundBudget == 0 {
		c.RoundBudget = DefaultRoundBudget
	}
	if c.ConvergePages == 0 {
		c.ConvergePages = DefaultConvergePages
	}
	return c
}

// Round records one pre-copy round's transfer.
type Round struct {
	Pages      int    // page images shipped (resident + swapped)
	Tombstones int    // dropped-page records shipped
	Bytes      int    // encoded image size
	WireCycles uint64 // wire time of this round's transfer
}

// Report is the outcome of one migration attempt.
type Report struct {
	Committed bool
	Reason    string // why the migration ended ("committed", "abort-requested", ...)
	Rounds    []Round
	// STWCycles is the stop-the-world window: wire time of the final
	// delta plus the fingerprint/commit handshake, during which the
	// source does not execute.
	STWCycles uint64
	// SteppedCycles is how many cycles the source executed during
	// pre-copy (identical to the cycles a never-migrating run would
	// have executed in the same wall interval — the step hook is the
	// caller's own scheduler tick).
	SteppedCycles uint64
	// Image is the materialized post-cutover checkpoint; nil unless
	// Committed.
	Image *kernel.Checkpoint
	Link  LinkStats
}

// TotalPages sums page images across all rounds.
func (r *Report) TotalPages() int {
	n := 0
	for _, rd := range r.Rounds {
		n += rd.Pages
	}
	return n
}

// Metrics aggregates migration telemetry across attempts. Register it
// with RegisterMetrics; the counters follow the repo-wide convention
// (monotonic uint64 behind closures).
type Metrics struct {
	Started     uint64
	Committed   uint64
	Aborted     uint64
	Rounds      uint64
	PagesSent   uint64
	BytesSent   uint64
	Retransmits uint64
	DupSupp     uint64
	Corrupt     uint64
	STW         *telemetry.Histogram
}

// NewMetrics builds an empty metrics block.
func NewMetrics() *Metrics { return &Metrics{STW: telemetry.NewHistogram()} }

// RegisterMetrics exposes the migration counters and the
// stop-the-world-window histogram under prefix (conventionally
// "migrate").
func (m *Metrics) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	sub := reg.Sub(prefix + ".")
	sub.Counter("started", func() uint64 { return m.Started })
	sub.Counter("committed", func() uint64 { return m.Committed })
	sub.Counter("aborted", func() uint64 { return m.Aborted })
	sub.Counter("rounds", func() uint64 { return m.Rounds })
	sub.Counter("pages_sent", func() uint64 { return m.PagesSent })
	sub.Counter("bytes_sent", func() uint64 { return m.BytesSent })
	sub.Counter("retransmits", func() uint64 { return m.Retransmits })
	sub.Counter("dup_suppressed", func() uint64 { return m.DupSupp })
	sub.Counter("corrupt_detected", func() uint64 { return m.Corrupt })
	sub.RegisterHistogram("stw_window", m.STW)
}

// Note records a completed attempt into the metrics block; safe on a
// nil receiver.
func (m *Metrics) Note(rep *Report) {
	if m == nil {
		return
	}
	m.Started++
	if rep.Committed {
		m.Committed++
		m.STW.Observe(rep.STWCycles)
	} else {
		m.Aborted++
	}
	m.Rounds += uint64(len(rep.Rounds))
	m.PagesSent += uint64(rep.TotalPages())
	for _, rd := range rep.Rounds {
		m.BytesSent += uint64(rd.Bytes)
	}
	m.Retransmits += rep.Link.Retransmits
	m.DupSupp += rep.Link.DupSuppressed
	m.Corrupt += rep.Link.CorruptDetected
}

// --- source-side delta capture -----------------------------------------

// pageHash fingerprints one page image's content (bits and tags).
func pageHash(img kernel.PageImage) uint64 {
	h := word.NewHash()
	h.Mix(img.Frame)
	for i := range mem.PageWords {
		h.MixWord(img.Page.Word(i))
	}
	return uint64(h)
}

// source tracks what the standby already holds, by content hash. The
// migration source captures a FULL checkpoint each round and diffs it
// here, rather than consuming the kernel's hardware dirty bits: those
// belong to the concurrent persist chain, and draining them would
// corrupt it — violating the abort guarantee that the source is
// bit-identical to never having migrated. A full capture shares the
// memory's pages instead of copying them, so it costs a pointer per
// mapped page, and a page whose snapshot is the very page the last
// round shipped is unchanged: only pages written since are hashed.
type source struct {
	resident map[uint64]shipped // by vaddr
	swapped  map[uint64]shipped
}

// shipped is the standby's copy of one page: the snapshot last sent
// and its content hash.
type shipped struct {
	img  kernel.PageImage
	hash uint64
}

// diff compares imgs, one kind of page of this round's capture, with
// sent, what the standby holds of that kind. It returns the standby's
// view once this round lands, the pages whose content changed, and the
// pages that vanished, ascending.
func diff(sent map[uint64]shipped, imgs []kernel.PageImage) (next map[uint64]shipped, changed []kernel.PageImage, gone []uint64) {
	next = make(map[uint64]shipped, len(imgs))
	for _, img := range imgs {
		old, ok := sent[img.VAddr]
		h := old.hash
		if !ok || old.img.Page != img.Page || old.img.Frame != img.Frame {
			h = pageHash(img)
		}
		if !ok || h != old.hash {
			changed = append(changed, img)
		}
		next[img.VAddr] = shipped{img: img, hash: h}
	}
	for va := range sent {
		if _, ok := next[va]; !ok {
			gone = append(gone, va)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i] < gone[j] })
	return next, changed, gone
}

// delta builds the round image from the round's full capture cp: for
// round 1 a base image of every page, otherwise a delta holding only
// pages whose content changed since they were last shipped, plus
// tombstones for pages that vanished. Metadata (segments, threads,
// region) is always full, matching the kernel's incremental-checkpoint
// convention.
func (s *source) delta(cp *kernel.Checkpoint, round int) *kernel.Checkpoint {
	d := &kernel.Checkpoint{
		RegionBase: cp.RegionBase,
		RegionLog:  cp.RegionLog,
		Segments:   cp.Segments,
		Revoked:    cp.Revoked,
		NextDomain: cp.NextDomain,
		Threads:    cp.Threads,
		Delta:      round > 1,
	}
	s.resident, d.Resident, d.Dropped = diff(s.resident, cp.Resident)
	s.swapped, d.Swapped, d.SwapDropped = diff(s.swapped, cp.Swapped)
	return d
}

// FingerprintImage hashes a checkpoint's architectural content,
// insensitive to page and map ordering — the handshake value both ends
// of the cutover barrier must agree on. Like machine.FingerprintThreads
// it covers state, not timing.
func FingerprintImage(cp *kernel.Checkpoint) uint64 {
	h := word.NewHash()
	h.Mix(cp.RegionBase)
	h.Mix(uint64(cp.RegionLog))
	h.Mix(uint64(cp.NextDomain))
	segs := make([]uint64, 0, len(cp.Segments))
	for base := range cp.Segments {
		segs = append(segs, base)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, base := range segs {
		h.Mix(base)
		h.Mix(uint64(cp.Segments[base]))
	}
	revs := make([]uint64, 0, len(cp.Revoked))
	for base, on := range cp.Revoked {
		if on {
			revs = append(revs, base)
		}
	}
	sort.Slice(revs, func(i, j int) bool { return revs[i] < revs[j] })
	for _, base := range revs {
		h.Mix(base)
	}
	hashPages := func(imgs []kernel.PageImage) {
		idx := make([]int, len(imgs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return imgs[idx[a]].VAddr < imgs[idx[b]].VAddr })
		for _, i := range idx {
			h.Mix(imgs[i].VAddr)
			h.Mix(pageHash(imgs[i]))
		}
	}
	hashPages(cp.Resident)
	hashPages(cp.Swapped)
	for _, t := range cp.Threads {
		h.Mix(uint64(t.Domain))
		h.Mix(uint64(t.State))
		h.Mix(t.Instret)
		h.Mix(t.IPWord.Bits)
		for _, r := range t.Regs {
			h.MixWord(r)
		}
	}
	return uint64(h)
}

// --- standby receiver ---------------------------------------------------

// MigrateError is a protocol-level failure on the standby: images out
// of order, a fingerprint mismatch at the barrier, commit without a
// complete chain.
type MigrateError struct{ Msg string }

func (e *MigrateError) Error() string { return "migrate: " + e.Msg }

// CorruptionDetected marks protocol failures as explicit detections —
// they abort the migration, they never commit a wrong image.
func (e *MigrateError) CorruptionDetected() bool { return true }

// Receiver is the standby end of the link: it reassembles image
// chunks, accumulates the checkpoint chain, and at the commit barrier
// materializes it and verifies the fingerprint. Until FrameCommit it
// holds everything provisionally; FrameAbort (or simply dropping the
// receiver) discards all of it — the rollback is free because nothing
// was applied.
type Receiver struct {
	chain    []*kernel.Checkpoint
	curRound uint32
	curBuf   []byte
	curNext  uint32
	wantFP   uint64
	haveFP   bool
	image    *kernel.Checkpoint
	aborted  bool
	// Crashed, when set, simulates a standby that died: every delivery
	// fails terminally (the fault campaign's standby-crash class).
	Crashed bool
}

// NewReceiver builds an empty standby.
func NewReceiver() *Receiver { return &Receiver{} }

// Aborted reports whether the source tore the migration down.
func (r *Receiver) Aborted() bool { return r.aborted }

// Committed returns the materialized post-cutover image, if the commit
// barrier completed.
func (r *Receiver) Committed() (*kernel.Checkpoint, bool) { return r.image, r.image != nil }

// Rounds reports how many complete images the standby holds.
func (r *Receiver) Rounds() int { return len(r.chain) }

// Deliver is the link's receive callback.
func (r *Receiver) Deliver(f *Frame) error {
	if r.Crashed {
		return &MigrateError{Msg: "standby crashed"}
	}
	switch f.Kind {
	case FrameHello:
		if len(r.chain) > 0 {
			return &MigrateError{Msg: "hello after images"}
		}
		return nil
	case FrameImage:
		return r.deliverImage(f)
	case FrameFingerprint:
		if len(f.Payload) != 8 {
			return &MigrateError{Msg: fmt.Sprintf("fingerprint payload %d bytes", len(f.Payload))}
		}
		r.wantFP = binary.LittleEndian.Uint64(f.Payload)
		r.haveFP = true
		return nil
	case FrameCommit:
		return r.commit()
	case FrameAbort:
		r.aborted = true
		r.chain, r.curBuf, r.image = nil, nil, nil
		r.haveFP = false
		return nil
	}
	return &MigrateError{Msg: "unexpected frame kind " + f.Kind.String()}
}

// maxPreallocChunks caps the reassembly buffer a chunk count can
// reserve before its chunks arrive: 8 MB, a whole MMachine memory.
const maxPreallocChunks = 8 << 20 / MaxFramePayload

func (r *Receiver) deliverImage(f *Frame) error {
	if f.Chunk == 0 {
		r.curRound = f.Round
		// Size the buffer from the chunk count once; the count comes off
		// the wire, so a larger image grows past the cap by append.
		r.curBuf = make([]byte, 0, int(min(f.Chunks, maxPreallocChunks))*MaxFramePayload)
		r.curNext = 0
	}
	if f.Round != r.curRound || f.Chunk != r.curNext {
		return &MigrateError{Msg: fmt.Sprintf("image chunk out of order: round %d chunk %d", f.Round, f.Chunk)}
	}
	r.curBuf = append(r.curBuf, f.Payload...)
	r.curNext++
	if r.curNext < f.Chunks {
		return nil
	}
	img := r.curBuf
	r.curBuf = nil // Decode may retain views of the buffer; never reuse it
	hdr, cp, err := persist.Decode(img)
	if err != nil {
		return err
	}
	if int(hdr.Gen) != len(r.chain)+1 {
		return &MigrateError{Msg: fmt.Sprintf("image round %d after %d rounds", hdr.Gen, len(r.chain))}
	}
	if cp.Delta == (len(r.chain) == 0) {
		return &MigrateError{Msg: "delta/base kind out of order"}
	}
	r.chain = append(r.chain, cp)
	return nil
}

func (r *Receiver) commit() error {
	if len(r.chain) == 0 {
		return &MigrateError{Msg: "commit without images"}
	}
	if !r.haveFP {
		return &MigrateError{Msg: "commit without fingerprint handshake"}
	}
	img, err := kernel.Materialize(r.chain)
	if err != nil {
		return err
	}
	if got := FingerprintImage(img); got != r.wantFP {
		return &MigrateError{Msg: fmt.Sprintf("fingerprint mismatch: source %016x standby %016x", r.wantFP, got)}
	}
	r.image = img
	return nil
}

// --- driver --------------------------------------------------------------

// Run drives one live migration of the kernel k onto the standby recv
// over link. step advances the source system by n cycles while a
// round's image is on the wire — the caller supplies its own scheduler
// tick (multi.System.Step for a mesh node, kernel.Run for a standalone
// one), so the source's execution schedule is EXACTLY what it would
// have been without the migration; Run itself never mutates k.
//
// Run never returns a committed report and an error together: any
// failure before the commit frame lands aborts cleanly (the standby
// discards, the source continues unharmed).
func Run(k *kernel.Kernel, link *Link, recv *Receiver, step func(cycles uint64), cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{}
	abort := func(reason string, err error) (*Report, error) {
		rep.Reason = reason
		rep.Link = link.Stats()
		// Best-effort teardown: tell the standby to discard. If the wire
		// is what failed, the standby's state is moot — it never commits
		// without the handshake.
		saved := link.Intercept
		link.Intercept = nil
		_ = link.Send(&Frame{Kind: FrameAbort})
		link.Intercept = saved
		return rep, err
	}

	hello := make([]byte, 8)
	binary.LittleEndian.PutUint32(hello, uint32(cfg.RoundBudget))
	binary.LittleEndian.PutUint32(hello[4:], uint32(cfg.ConvergePages))
	if err := link.Send(&Frame{Kind: FrameHello, Payload: hello}); err != nil {
		return abort("hello-failed", err)
	}

	var src source
	var final *kernel.Checkpoint
	for round := 1; ; round++ {
		if cfg.AbortAtRound == round {
			return abort("abort-requested", nil)
		}
		if cfg.AbortIf != nil && cfg.AbortIf() {
			return abort("source-failed", nil)
		}
		cp, err := k.Checkpoint()
		if err != nil {
			return abort("capture-failed", err)
		}
		img := src.delta(cp, round)
		hdr := persist.Header{
			Node:  uint32(cfg.Node),
			Gen:   uint64(round),
			Cycle: k.M.Cycle(),
			Delta: img.Delta,
		}
		if img.Delta {
			hdr.Parent = uint64(round - 1)
		} else {
			hdr.Parent = uint64(round)
		}
		buf, err := persist.Marshal(hdr, img)
		if err != nil {
			return abort("encode-failed", err)
		}
		pages := len(img.Resident) + len(img.Swapped)
		rd := Round{
			Pages:      pages,
			Tombstones: len(img.Dropped) + len(img.SwapDropped),
			Bytes:      len(buf),
		}
		wire0 := link.Stats().WireCycles
		if err := link.SendImage(uint32(round), buf); err != nil {
			rep.Rounds = append(rep.Rounds, rd)
			return abort("transfer-failed", err)
		}
		rd.WireCycles = link.Stats().WireCycles - wire0
		rep.Rounds = append(rep.Rounds, rd)

		converged := round > 1 && pages <= cfg.ConvergePages
		if converged || round >= cfg.RoundBudget {
			// Cutover barrier. The image just sent was captured with the
			// source stopped (we have not stepped since the capture), so
			// it IS the final delta; its wire time plus the handshake is
			// the stop-the-world window.
			final = cp
			rep.STWCycles = rd.WireCycles
			break
		}
		// Pre-copy: the source keeps executing while the image is in
		// flight — the wire time of the transfer, in the caller's own
		// scheduler ticks.
		step(rd.WireCycles)
		rep.SteppedCycles += rd.WireCycles
	}

	// Fingerprint handshake: the standby must materialize exactly the
	// source's final architectural state before the commit seals it.
	fpBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(fpBuf, FingerprintImage(final))
	wire0 := link.Stats().WireCycles
	if err := link.Send(&Frame{Kind: FrameFingerprint, Payload: fpBuf}); err != nil {
		return abort("handshake-failed", err)
	}
	if cfg.AbortAtCutover {
		rep.STWCycles = 0
		return abort("abort-requested", nil)
	}
	if cfg.AbortIf != nil && cfg.AbortIf() {
		rep.STWCycles = 0
		return abort("source-failed", nil)
	}
	if err := link.Send(&Frame{Kind: FrameCommit}); err != nil {
		return abort("commit-failed", err)
	}
	rep.STWCycles += link.Stats().WireCycles - wire0

	img, ok := recv.Committed()
	if !ok {
		return abort("standby-did-not-commit", &MigrateError{Msg: "commit frame delivered but standby holds no image"})
	}
	rep.Committed = true
	rep.Reason = "committed"
	rep.Image = img
	rep.Link = link.Stats()
	return rep, nil
}

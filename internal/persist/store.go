package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Store is a directory of checkpoint generations, on disk (Open) or in
// memory (OpenMemory). One generation is one image file per node plus a
// commit marker ("genNNNNNNNN.ok") written LAST: a crash or torn write
// anywhere in the set leaves no marker (or a marker whose member CRCs
// disagree), and the generation is simply not there. Every file lands
// via write-temp, fsync, rename.
//
// Restore resolves the newest generation whose whole delta chain —
// back to its base image — is intact, skipping (and counting) corrupt
// or torn generations on the way down.
type Store struct {
	fs    fileSystem
	where string // the directory, or "memory": for error messages
	nodes int
	stats Stats
	hist  *telemetry.Histogram // capture latency, wall nanoseconds
}

// Stats counts the store's work. BytesWritten includes markers.
type Stats struct {
	Captures        uint64 // generations committed
	DeltaPages      uint64 // pages carried by delta images
	BytesWritten    uint64
	Restores        uint64 // successful generation loads
	Fallbacks       uint64 // restores that had to skip newer generations
	CorruptDetected uint64 // generations rejected as torn/corrupt/incomplete
}

// Open creates (if needed) and opens a store directory for a system of
// the given node count.
func Open(dir string, nodes int) (*Store, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("persist: store needs at least one node, got %d", nodes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	return newStore(osFS(dir), dir, nodes), nil
}

// OpenMemory opens an empty store held in memory for a system of the
// given node count: the same files, markers, pruning and recovery as a
// directory store, gone with the process.
func OpenMemory(nodes int) (*Store, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("persist: store needs at least one node, got %d", nodes)
	}
	return newStore(memFS{}, "memory", nodes), nil
}

func newStore(fs fileSystem, where string, nodes int) *Store {
	return &Store{fs: fs, where: where, nodes: nodes, hist: telemetry.NewHistogram()}
}

// Nodes returns the per-generation image count the store was opened
// with.
func (st *Store) Nodes() int { return st.nodes }

// Stats returns a copy of the counters.
func (st *Store) Stats() Stats { return st.stats }

// HistCapture returns the capture-latency histogram (wall nanoseconds
// per committed generation).
func (st *Store) HistCapture() *telemetry.Histogram { return st.hist }

// RegisterMetrics publishes the store's counters and the capture
// latency histogram under prefix (canonically "persist").
func (st *Store) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".captures", func() uint64 { return st.stats.Captures })
	reg.Counter(prefix+".delta_pages", func() uint64 { return st.stats.DeltaPages })
	reg.Counter(prefix+".bytes_written", func() uint64 { return st.stats.BytesWritten })
	reg.Counter(prefix+".restores", func() uint64 { return st.stats.Restores })
	reg.Counter(prefix+".fallbacks", func() uint64 { return st.stats.Fallbacks })
	reg.Counter(prefix+".corrupt_detected", func() uint64 { return st.stats.CorruptDetected })
	reg.RegisterHistogram(prefix+".capture_latency_ns", st.hist)
}

func imageName(gen uint64, node int) string {
	return fmt.Sprintf("gen%08d-node%02d.ckpt", gen, node)
}

func markerName(gen uint64) string {
	return fmt.Sprintf("gen%08d.ok", gen)
}

// markerGen parses a commit marker's name, genNNNNNNNN.ok, without
// fmt: a scan parses every name in the store on every Prune.
func markerGen(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "gen")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".ok")
	if !ok || len(digits) < 8 {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil
}

// writeAtomic lands data under name via temp + fsync + rename, then
// syncs the directory so the rename itself is durable.
func (st *Store) writeAtomic(name string, data []byte) error {
	tmp := name + ".tmp"
	if err := st.fs.writeFile(tmp, data); err != nil {
		st.fs.remove(tmp)
		return err
	}
	if err := st.fs.rename(tmp, name); err != nil {
		st.fs.remove(tmp)
		return err
	}
	_ = st.fs.syncDir() // best effort: not every file system can sync a directory
	st.stats.BytesWritten += uint64(len(data))
	return nil
}

// genInfo is one committed generation as described by its marker.
type genInfo struct {
	gen    uint64
	parent uint64
	cycle  uint64
	delta  bool
	files  []memberInfo
}

type memberInfo struct {
	name string
	size uint64
	crc  uint32
}

// encodeMarker serializes a commit marker: magic, gen, parent, cycle,
// kind, member table, trailing CRC over everything before it.
func encodeMarker(g *genInfo) []byte {
	b := make([]byte, 0, 64+len(g.files)*64)
	b = append(b, magicMarker...)
	b = binary.LittleEndian.AppendUint64(b, g.gen)
	b = binary.LittleEndian.AppendUint64(b, g.parent)
	b = binary.LittleEndian.AppendUint64(b, g.cycle)
	kind := byte(kindBase)
	if g.delta {
		kind = kindDelta
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.files)))
	for _, m := range g.files {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(m.name)))
		b = append(b, m.name...)
		b = binary.LittleEndian.AppendUint64(b, m.size)
		b = binary.LittleEndian.AppendUint32(b, m.crc)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeMarker parses a commit marker; any malformation is a
// *FormatError.
func decodeMarker(data []byte) (*genInfo, error) {
	if len(data) < 4 {
		return nil, formatErrf("marker too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, formatErrf("marker checksum mismatch")
	}
	r := &reader{b: body}
	magic, ok := r.bytes(8)
	if !ok || string(magic) != magicMarker {
		return nil, formatErrf("bad marker magic")
	}
	g := &genInfo{}
	var ok1, ok2, ok3 bool
	g.gen, ok1 = r.u64()
	g.parent, ok2 = r.u64()
	g.cycle, ok3 = r.u64()
	kind, ok4 := r.u8()
	n, ok5 := r.u32()
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return nil, formatErrf("truncated marker")
	}
	if kind != kindBase && kind != kindDelta {
		return nil, formatErrf("marker with unknown kind %d", kind)
	}
	g.delta = kind == kindDelta
	for i := uint32(0); i < n; i++ {
		nl, ok := r.u32x16()
		if !ok {
			return nil, formatErrf("truncated marker member %d", i)
		}
		name, ok1 := r.bytes(int(nl))
		size, ok2 := r.u64()
		crc, ok3 := r.u32()
		if !(ok1 && ok2 && ok3) {
			return nil, formatErrf("truncated marker member %d", i)
		}
		g.files = append(g.files, memberInfo{name: string(name), size: size, crc: crc})
	}
	if r.remaining() != 0 {
		return nil, formatErrf("trailing bytes in marker")
	}
	return g, nil
}

// u32x16 reads a u16 (marker member name length).
func (r *reader) u32x16() (uint16, bool) {
	if r.remaining() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, true
}

// WriteGeneration commits one coordinated generation: one checkpoint
// per node (all the same kind), parent naming the previous generation
// for deltas (pass parent == gen for a base). Image files land first,
// the marker last — a crash mid-write leaves no marker and the
// generation never existed.
func (st *Store) WriteGeneration(gen, parent, cycle uint64, cps []*kernel.Checkpoint) error {
	t0 := time.Now()
	if len(cps) != st.nodes {
		return fmt.Errorf("persist: generation %d has %d images, store expects %d", gen, len(cps), st.nodes)
	}
	if gen == 0 {
		return fmt.Errorf("persist: generation numbers are 1-based")
	}
	delta := cps[0].Delta
	for i, cp := range cps {
		if cp.Delta != delta {
			return fmt.Errorf("persist: generation %d mixes base and delta images (node %d)", gen, i)
		}
	}
	if !delta {
		parent = gen
	} else if parent >= gen {
		return fmt.Errorf("persist: delta generation %d needs parent < gen, got %d", gen, parent)
	}

	g := &genInfo{gen: gen, parent: parent, cycle: cycle, delta: delta}
	for i, cp := range cps {
		hdr := Header{Node: uint32(i), Gen: gen, Parent: parent, Cycle: cycle, Delta: delta}
		buf, err := Marshal(hdr, cp)
		if err != nil {
			return err
		}
		name := imageName(gen, i)
		if err := st.writeAtomic(name, buf); err != nil {
			return fmt.Errorf("persist: write %s: %w", name, err)
		}
		g.files = append(g.files, memberInfo{
			name: name, size: uint64(len(buf)), crc: crc32.ChecksumIEEE(buf),
		})
		if delta {
			st.stats.DeltaPages += uint64(len(cp.Resident) + len(cp.Swapped))
		}
	}
	if err := st.writeAtomic(markerName(gen), encodeMarker(g)); err != nil {
		return fmt.Errorf("persist: write marker for generation %d: %w", gen, err)
	}
	st.stats.Captures++
	st.hist.Observe(uint64(time.Since(t0).Nanoseconds()))
	return nil
}

// scan reads every commit marker in the directory. Markers that fail to
// decode are ignored here (the restore path counts them when it trips
// over them).
func (st *Store) scan() (map[uint64]*genInfo, error) {
	names, err := st.fs.readDir()
	if err != nil {
		return nil, fmt.Errorf("persist: scan store: %w", err)
	}
	gens := make(map[uint64]*genInfo)
	for _, name := range names {
		gen, ok := markerGen(name)
		if !ok {
			continue
		}
		data, err := st.fs.readFile(name)
		if err != nil {
			continue
		}
		g, err := decodeMarker(data)
		if err != nil || g.gen != gen {
			continue
		}
		gens[g.gen] = g
	}
	return gens, nil
}

// Generations lists the committed generation numbers, ascending. It
// reports commit markers only — an entry may still fail verification at
// load time.
func (st *Store) Generations() ([]uint64, error) {
	gens, err := st.scan()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, len(gens))
	for g := range gens {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MaxGen returns the highest committed generation number (0 when the
// store is empty), so a reopened store continues its numbering.
func (st *Store) MaxGen() (uint64, error) {
	gens, err := st.Generations()
	if err != nil || len(gens) == 0 {
		return 0, err
	}
	return gens[len(gens)-1], nil
}

// chainOf resolves gen's chain back to its base, oldest first. Missing
// links (a pruned-away or damaged ancestor) report false.
func chainOf(gens map[uint64]*genInfo, gen uint64) ([]uint64, bool) {
	var rev []uint64
	g, ok := gens[gen]
	for ok {
		rev = append(rev, g.gen)
		if !g.delta {
			out := make([]uint64, len(rev))
			for i, v := range rev {
				out[len(rev)-1-i] = v
			}
			return out, true
		}
		if g.parent >= g.gen || len(rev) > len(gens) {
			return nil, false // cyclic or impossible marker
		}
		g, ok = gens[g.parent]
	}
	return nil, false
}

// loadImages reads and fully verifies one generation's image files:
// marker membership, sizes, CRCs, decodability, and header identity.
func (st *Store) loadImages(g *genInfo) ([]*kernel.Checkpoint, error) {
	if len(g.files) != st.nodes {
		return nil, formatErrf("generation %d has %d members, store expects %d", g.gen, len(g.files), st.nodes)
	}
	cps := make([]*kernel.Checkpoint, st.nodes)
	for i, m := range g.files {
		data, err := st.fs.readFile(m.name)
		if err != nil {
			return nil, formatErrf("generation %d member %s unreadable: %v", g.gen, m.name, err)
		}
		if uint64(len(data)) != m.size || crc32.ChecksumIEEE(data) != m.crc {
			return nil, formatErrf("generation %d member %s fails marker verification", g.gen, m.name)
		}
		hdr, cp, err := Decode(data)
		if err != nil {
			return nil, err
		}
		if hdr.Gen != g.gen || hdr.Node != uint32(i) || hdr.Delta != g.delta {
			return nil, formatErrf("generation %d member %s has mismatched identity", g.gen, m.name)
		}
		cps[i] = cp
	}
	return cps, nil
}

// LoadImages returns one generation's raw (unmaterialized) per-node
// images, fully verified.
func (st *Store) LoadImages(gen uint64) ([]*kernel.Checkpoint, *GenDesc, error) {
	gens, err := st.scan()
	if err != nil {
		return nil, nil, err
	}
	g, ok := gens[gen]
	if !ok {
		return nil, nil, formatErrf("generation %d has no commit marker", gen)
	}
	cps, err := st.loadImages(g)
	if err != nil {
		return nil, nil, err
	}
	return cps, descOf(g), nil
}

// GenDesc describes one committed generation.
type GenDesc struct {
	Gen    uint64
	Parent uint64
	Cycle  uint64
	Delta  bool
	Bytes  uint64 // image bytes (markers excluded)
}

func descOf(g *genInfo) *GenDesc {
	d := &GenDesc{Gen: g.gen, Parent: g.parent, Cycle: g.cycle, Delta: g.delta}
	for _, m := range g.files {
		d.Bytes += m.size
	}
	return d
}

// Describe lists every committed generation, ascending.
func (st *Store) Describe() ([]*GenDesc, error) {
	gens, err := st.scan()
	if err != nil {
		return nil, err
	}
	out := make([]*GenDesc, 0, len(gens))
	for _, g := range gens {
		out = append(out, descOf(g))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gen < out[j].Gen })
	return out, nil
}

// LoadGeneration materializes generation gen: its chain is resolved
// back to the base, every member verified, and the deltas replayed —
// returning one self-contained checkpoint per node plus the barrier
// cycle. Fails (with a *FormatError) if any link is damaged.
func (st *Store) LoadGeneration(gen uint64) ([]*kernel.Checkpoint, uint64, error) {
	gens, err := st.scan()
	if err != nil {
		return nil, 0, err
	}
	g, ok := gens[gen]
	if !ok {
		return nil, 0, formatErrf("generation %d has no commit marker", gen)
	}
	cps, err := st.materialize(gens, g)
	if err != nil {
		return nil, 0, err
	}
	st.stats.Restores++
	return cps, g.cycle, nil
}

// materialize loads gen's whole chain and flattens it per node.
func (st *Store) materialize(gens map[uint64]*genInfo, g *genInfo) ([]*kernel.Checkpoint, error) {
	chain, ok := chainOf(gens, g.gen)
	if !ok {
		return nil, formatErrf("generation %d has a broken delta chain", g.gen)
	}
	perNode := make([][]*kernel.Checkpoint, st.nodes)
	for _, cg := range chain {
		cps, err := st.loadImages(gens[cg])
		if err != nil {
			return nil, err
		}
		for i, cp := range cps {
			perNode[i] = append(perNode[i], cp)
		}
	}
	out := make([]*kernel.Checkpoint, st.nodes)
	for i, ch := range perNode {
		cp, err := kernel.Materialize(ch)
		if err != nil {
			return nil, err
		}
		out[i] = cp
	}
	return out, nil
}

// LoadNewestIntact restores the newest generation whose whole chain is
// intact, walking older generations (counting each rejected one) until
// one verifies. This is the corruption-fallback path: a torn or
// bit-rotted newest generation costs recency, never recoverability.
func (st *Store) LoadNewestIntact() ([]*kernel.Checkpoint, uint64, uint64, error) {
	gens, err := st.scan()
	if err != nil {
		return nil, 0, 0, err
	}
	order := make([]uint64, 0, len(gens))
	for g := range gens {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] > order[j] })
	skipped := false
	for _, gn := range order {
		cps, err := st.materialize(gens, gens[gn])
		if err != nil {
			st.stats.CorruptDetected++
			skipped = true
			continue
		}
		st.stats.Restores++
		if skipped {
			st.stats.Fallbacks++
		}
		return cps, gn, gens[gn].cycle, nil
	}
	return nil, 0, 0, formatErrf("no intact generation in %s", st.where)
}

// Prune removes generations beyond the newest keep, but NEVER a
// generation some retained generation's chain still depends on — a
// base image outlives its retention slot for as long as any retained
// delta needs it to replay.
func (st *Store) Prune(keep int) error {
	if keep <= 0 {
		return nil
	}
	gens, err := st.scan()
	if err != nil {
		return err
	}
	order := make([]uint64, 0, len(gens))
	for g := range gens {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] > order[j] })
	required := make(map[uint64]bool)
	for i, gn := range order {
		if i >= keep {
			break
		}
		chain, ok := chainOf(gens, gn)
		if !ok {
			// A damaged chain still pins whatever links remain: the
			// fallback path may need an older intact prefix.
			required[gn] = true
			continue
		}
		for _, cg := range chain {
			required[cg] = true
		}
	}
	for _, gn := range order {
		if required[gn] {
			continue
		}
		// Marker first: a crash mid-removal leaves orphan image files
		// (harmless, unreferenced), never a marker pointing at nothing.
		if err := st.fs.remove(markerName(gn)); err != nil {
			return fmt.Errorf("persist: prune generation %d: %w", gn, err)
		}
		for _, m := range gens[gn].files {
			st.fs.remove(m.name)
		}
	}
	return nil
}

// --- single-kernel convenience: Saver and RestoreNewest ----------------

// Saver drives one kernel's incremental chain into a store: each
// Capture writes the next generation, re-basing every baseEvery
// generations to bound chain length.
type Saver struct {
	st        *Store
	cap       *kernel.CaptureState
	gen       uint64
	sinceBase int
	baseEvery int
}

// DefaultBaseEvery bounds delta chains when the caller does not choose:
// a fresh base image every 8th generation.
const DefaultBaseEvery = 8

// NewSaver starts (or resumes — numbering continues after the store's
// newest generation) a saver. baseEvery <= 0 selects DefaultBaseEvery;
// baseEvery == 1 writes only base images.
func NewSaver(st *Store, baseEvery int) (*Saver, error) {
	if st.nodes != 1 {
		return nil, fmt.Errorf("persist: Saver drives single-kernel stores; this store expects %d nodes", st.nodes)
	}
	if baseEvery <= 0 {
		baseEvery = DefaultBaseEvery
	}
	gen, err := st.MaxGen()
	if err != nil {
		return nil, err
	}
	return &Saver{st: st, gen: gen, baseEvery: baseEvery}, nil
}

// Capture writes the next generation of k's chain and returns its
// number. Call with the machine quiescent. On any error the chain
// re-bases at the next capture — a failed write never leaves a delta
// whose baseline was lost.
func (sv *Saver) Capture(k *kernel.Kernel, cycle uint64) (uint64, error) {
	full := sv.cap == nil || sv.sinceBase >= sv.baseEvery-1
	var prev *kernel.CaptureState
	if !full {
		prev = sv.cap
	}
	cp, ncap, err := k.CheckpointIncremental(prev)
	if err != nil {
		sv.cap = nil
		return 0, err
	}
	gen := sv.gen + 1
	if err := sv.st.WriteGeneration(gen, sv.gen, cycle, []*kernel.Checkpoint{cp}); err != nil {
		sv.cap = nil
		return 0, err
	}
	if cp.Delta {
		sv.sinceBase++
	} else {
		sv.sinceBase = 0
	}
	sv.cap = ncap
	sv.gen = gen
	return gen, nil
}

// Gen returns the last generation Capture committed.
func (sv *Saver) Gen() uint64 { return sv.gen }

// RestoreNewest rebuilds a kernel from the store's newest intact
// generation (single-kernel stores), returning the kernel, the
// generation restored, and its barrier cycle.
func RestoreNewest(st *Store, cfg machine.Config) (*kernel.Kernel, uint64, uint64, error) {
	cps, gen, cycle, err := st.LoadNewestIntact()
	if err != nil {
		return nil, 0, 0, err
	}
	if len(cps) != 1 {
		return nil, 0, 0, fmt.Errorf("persist: RestoreNewest on a %d-node store", len(cps))
	}
	k, err := kernel.Restore(cfg, cps[0])
	if err != nil {
		return nil, 0, 0, err
	}
	return k, gen, cycle, nil
}

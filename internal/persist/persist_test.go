package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/word"
)

func testCfg() machine.Config {
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	return cfg
}

// persistKernel builds a store-heavy workload whose restored outcome we
// can compare register-for-register against a clean run.
func persistKernel(t *testing.T) (*kernel.Kernel, *machine.Thread) {
	t.Helper()
	prog, err := asm.Assemble(`
		ldi r2, 120
		ldi r4, 0
	loop:
		ld   r5, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
		add  r4, r4, r5
		st   r1, 8, r4
		leai r6, r1, 16
		st   r6, 0, r6
		subi r2, r2, 1
		bnez r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	th, err := k.Spawn(3, ip, map[int]word.Word{1: seg.Word()})
	if err != nil {
		t.Fatal(err)
	}
	return k, th
}

// syntheticImage builds a fully-populated checkpoint by hand — no
// machine required — for format round-trip tests.
func syntheticImage(delta bool) *kernel.Checkpoint {
	mkPage := func(va, frame, seed uint64) kernel.PageImage {
		m := mem.New(vm.PageSize)
		for i := range uint64(mem.PageWords) {
			_ = m.WriteWord(i*word.BytesPerWord, word.Word{Bits: seed + i*3, Tag: i%7 == 0})
		}
		pg, _ := m.Snapshot(0)
		return kernel.PageImage{VAddr: va, Frame: frame, Page: pg}
	}
	cp := &kernel.Checkpoint{
		RegionBase: 1 << 40,
		RegionLog:  40,
		Segments:   map[uint64]uint{0x10000: 12, 0x20000: 13},
		Revoked:    map[uint64]bool{0x30000: true},
		NextDomain: 7,
		Resident: []kernel.PageImage{
			mkPage(0x10000, 0x4000, 101),
			mkPage(0x11000, 0x5000, 202),
		},
		Swapped: []kernel.PageImage{mkPage(0x21000, 0, 303)},
		Delta:   delta,
	}
	cp.Swapped[0].Frame = 0
	if delta {
		cp.Dropped = []uint64{0x12000, 0x13000}
		cp.SwapDropped = []uint64{0x22000}
	}
	var regs [16]word.Word
	for i := range regs {
		regs[i] = word.Word{Bits: uint64(i) * 17, Tag: i == 1}
	}
	cp.Threads = []kernel.ThreadImage{
		{Domain: 3, State: machine.Ready, IPWord: word.Word{Bits: 0x1234, Tag: true}, Regs: regs, Instret: 99},
		{Domain: 4, State: machine.Halted, IPWord: word.Word{Bits: 0x5678, Tag: true}, Regs: regs, Instret: 1},
	}
	return cp
}

func encodeImage(t *testing.T, hdr Header, cp *kernel.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, hdr, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, delta := range []bool{false, true} {
		hdr := Header{Node: 2, Gen: 9, Parent: 8, Cycle: 12345, Delta: delta}
		if !delta {
			hdr.Parent = 9
		}
		cp := syntheticImage(delta)
		enc := encodeImage(t, hdr, cp)
		gotHdr, got, err := Decode(enc)
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		if gotHdr != hdr {
			t.Errorf("delta=%v header: got %+v want %+v", delta, gotHdr, hdr)
		}
		// Re-encoding the decoded image must reproduce the bytes exactly:
		// the format is canonical.
		re := encodeImage(t, gotHdr, got)
		if !bytes.Equal(enc, re) {
			t.Errorf("delta=%v: decode→encode not canonical (%d vs %d bytes)", delta, len(enc), len(re))
		}
		if got.NextDomain != cp.NextDomain || len(got.Resident) != len(cp.Resident) ||
			len(got.Threads) != len(cp.Threads) || got.Delta != delta {
			t.Errorf("delta=%v: image fields lost in round trip", delta)
		}
		if got.Resident[0].Page.Word(7) != cp.Resident[0].Page.Word(7) {
			t.Errorf("delta=%v: tag bits lost", delta)
		}
	}
}

// TestDecodeRejectsDamage flips every 97th byte of a valid image and
// demands a typed error — never a panic, never silent acceptance.
func TestDecodeRejectsDamage(t *testing.T) {
	hdr := Header{Node: 0, Gen: 3, Parent: 2, Cycle: 7, Delta: true}
	enc := encodeImage(t, hdr, syntheticImage(true))
	for off := 0; off < len(enc); off += 97 {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		_, _, err := Decode(mut)
		if err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("bit flip at offset %d: error %T is not *FormatError", off, err)
		}
		if !fe.CorruptionDetected() {
			t.Fatalf("offset %d: corruption not flagged", off)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 40, len(enc) - 1} {
		if _, _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	g := &genInfo{gen: 5, parent: 4, cycle: 999, delta: true,
		files: []memberInfo{{name: "gen00000005-node00.ckpt", size: 4242, crc: 0xdeadbeef}}}
	enc := encodeMarker(g)
	got, err := decodeMarker(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != g.gen || got.parent != g.parent || got.cycle != g.cycle ||
		got.delta != g.delta || len(got.files) != 1 || got.files[0] != g.files[0] {
		t.Fatalf("marker round trip lost fields: %+v", got)
	}
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 1
		if _, err := decodeMarker(mut); err == nil {
			t.Fatalf("marker bit flip at %d accepted", off)
		}
	}
}

// saveChain drives a Saver through steps×gens of a live workload and
// returns the store, the reference kernel run to completion, and the
// committed generation numbers.
func saveChain(t *testing.T, dir string, gens, baseEvery int) (*Store, *machine.Thread, []uint64) {
	t.Helper()
	kRef, thRef := persistKernel(t)
	kRef.Run(1_000_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	st, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSaver(st, baseEvery)
	if err != nil {
		t.Fatal(err)
	}
	k, th := persistKernel(t)
	var out []uint64
	for g := 0; g < gens; g++ {
		for i := 0; i < 60; i++ {
			k.M.Step()
		}
		gen, err := sv.Capture(k, uint64(60*(g+1)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, gen)
	}
	if th.Done() {
		t.Fatal("workload finished before the chain was captured — lengthen it")
	}
	return st, thRef, out
}

func TestStoreChainRestoreEveryGeneration(t *testing.T) {
	dir := t.TempDir()
	st, thRef, gens := saveChain(t, dir, 5, 3)
	if len(gens) != 5 || gens[0] != 1 {
		t.Fatalf("generations %v", gens)
	}
	descs, err := st.Describe()
	if err != nil {
		t.Fatal(err)
	}
	wantBase := map[uint64]bool{1: true, 4: true}
	for _, d := range descs {
		if d.Delta == wantBase[d.Gen] {
			t.Errorf("generation %d delta=%v, want base=%v", d.Gen, d.Delta, wantBase[d.Gen])
		}
	}
	for _, g := range gens {
		cps, _, err := st.LoadGeneration(g)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		k2, err := kernel.Restore(testCfg(), cps[0])
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		k2.Run(1_000_000)
		th2 := k2.M.Threads()[0]
		if th2.State != machine.Halted {
			t.Fatalf("generation %d: restored run %v %v", g, th2.State, th2.Fault)
		}
		for r := 0; r < 16; r++ {
			if th2.Reg(r) != thRef.Reg(r) {
				t.Errorf("generation %d r%d: %v vs reference %v", g, r, th2.Reg(r), thRef.Reg(r))
			}
		}
	}
	if s := st.Stats(); s.Captures != 5 || s.Restores != 5 || s.DeltaPages == 0 || s.BytesWritten == 0 {
		t.Errorf("stats %+v", st.Stats())
	}
}

func TestStoreFallbackOnDamagedNewest(t *testing.T) {
	dir := t.TempDir()
	st, thRef, gens := saveChain(t, dir, 3, 8)
	newest := gens[len(gens)-1]

	// Flip one bit in the newest generation's image: the marker CRC now
	// disagrees and the whole generation must be rejected.
	path := filepath.Join(dir, imageName(newest, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cps, gen, _, err := st.LoadNewestIntact()
	if err != nil {
		t.Fatal(err)
	}
	if gen != newest-1 {
		t.Fatalf("fell back to generation %d, want %d", gen, newest-1)
	}
	s := st.Stats()
	if s.Fallbacks != 1 || s.CorruptDetected != 1 {
		t.Errorf("stats %+v, want one fallback and one corrupt detection", s)
	}
	k2, err := kernel.Restore(testCfg(), cps[0])
	if err != nil {
		t.Fatal(err)
	}
	k2.Run(1_000_000)
	th2 := k2.M.Threads()[0]
	if th2.State != machine.Halted {
		t.Fatalf("fallback restore: %v %v", th2.State, th2.Fault)
	}
	for r := 0; r < 16; r++ {
		if th2.Reg(r) != thRef.Reg(r) {
			t.Errorf("fallback r%d: %v vs reference %v", r, th2.Reg(r), thRef.Reg(r))
		}
	}

	// Direct load of the damaged generation is a typed failure.
	if _, _, err := st.LoadGeneration(newest); err == nil {
		t.Error("damaged generation loaded directly")
	}
}

func TestStoreDamagedBaseIsUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := saveChain(t, dir, 3, 8) // base gen 1 + deltas 2, 3
	path := filepath.Join(dir, imageName(1, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.LoadNewestIntact()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("damaged base: got %v, want *FormatError", err)
	}
	if st.Stats().CorruptDetected != 3 {
		t.Errorf("corrupt detections %d, want 3 (every chain broken)", st.Stats().CorruptDetected)
	}
}

// TestStoreTornGenerationInvisible: image files without a commit marker
// (the crash-mid-write shape) are simply not a generation.
func TestStoreTornGenerationInvisible(t *testing.T) {
	dir := t.TempDir()
	st, _, gens := saveChain(t, dir, 2, 8)
	newest := gens[len(gens)-1]
	// A torn generation 99: image present, marker never written.
	if err := os.WriteFile(filepath.Join(dir, imageName(99, 0)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a half-written marker for generation 98.
	if err := os.WriteFile(filepath.Join(dir, markerName(98)), []byte("MMCKOK01 trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, gen, _, err := st.LoadNewestIntact()
	if err != nil {
		t.Fatal(err)
	}
	if gen != newest {
		t.Fatalf("restored generation %d, want %d", gen, newest)
	}
	if got, err := st.MaxGen(); err != nil || got != newest {
		t.Fatalf("MaxGen = %d, %v; want %d", got, err, newest)
	}
}

func TestStorePruneKeepsChainBases(t *testing.T) {
	dir := t.TempDir()
	st, _, gens := saveChain(t, dir, 6, 3) // bases at 1 and 4
	if len(gens) != 6 {
		t.Fatalf("generations %v", gens)
	}
	if err := st.Prune(2); err != nil {
		t.Fatal(err)
	}
	left, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	// Keep 6 and 5; both are deltas on base 4, which MUST survive even
	// though it is outside the retention window.
	want := []uint64{4, 5, 6}
	if len(left) != len(want) {
		t.Fatalf("after prune: %v, want %v", left, want)
	}
	for i, g := range want {
		if left[i] != g {
			t.Fatalf("after prune: %v, want %v", left, want)
		}
	}
	for _, g := range want {
		if _, _, err := st.LoadGeneration(g); err != nil {
			t.Errorf("retained generation %d unloadable after prune: %v", g, err)
		}
	}
	// Pruned generations' files are actually gone.
	if _, err := os.Stat(filepath.Join(dir, imageName(1, 0))); !os.IsNotExist(err) {
		t.Error("pruned base image still on disk")
	}
}

func TestSaverResumesNumbering(t *testing.T) {
	dir := t.TempDir()
	_, _, gens := saveChain(t, dir, 3, 8)
	st2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSaver(st2, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := persistKernel(t)
	k.M.Step()
	gen, err := sv.Capture(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := gens[len(gens)-1] + 1; gen != want {
		t.Fatalf("resumed numbering at %d, want %d", gen, want)
	}
	// A fresh Saver has no capture state: this must have been a base.
	descs, err := st2.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if d := descs[len(descs)-1]; d.Gen != gen || d.Delta {
		t.Fatalf("resumed capture %+v, want a base image", d)
	}
}

// TestSaverRebasesOnStaleKernel: one generation is one kind, so a
// kernel whose baseline belongs to another Space (a restored, migrated
// or revived node) re-bases every node's chain, and the next generation
// is a delta again.
func TestSaverRebasesOnStaleKernel(t *testing.T) {
	st, err := OpenMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSaver(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := persistKernel(t)
	k1, _ := persistKernel(t)
	if _, err := sv.CaptureAll([]*kernel.Kernel{k0}, 0); err == nil {
		t.Fatal("CaptureAll accepted one kernel for a 2-node store")
	}
	replaced, _ := persistKernel(t)
	for i, step := range []struct {
		ks    []*kernel.Kernel
		delta bool
	}{
		{[]*kernel.Kernel{k0, k1}, false},
		{[]*kernel.Kernel{k0, k1}, true},
		{[]*kernel.Kernel{k0, replaced}, false},
		{[]*kernel.Kernel{k0, replaced}, true},
	} {
		for _, k := range step.ks {
			k.Run(30)
		}
		gen, err := sv.CaptureAll(step.ks, uint64(30*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		cps, desc, err := st.LoadImages(gen)
		if err != nil {
			t.Fatal(err)
		}
		if desc.Delta != step.delta || cps[0].Delta != step.delta || cps[1].Delta != step.delta {
			t.Fatalf("generation %d: delta %v, want %v", gen, desc.Delta, step.delta)
		}
	}
}

func TestRestoreNewestConvenience(t *testing.T) {
	dir := t.TempDir()
	st, thRef, gens := saveChain(t, dir, 4, 2)
	k2, gen, _, err := RestoreNewest(st, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if gen != gens[len(gens)-1] {
		t.Fatalf("restored generation %d, want %d", gen, gens[len(gens)-1])
	}
	k2.Run(1_000_000)
	th2 := k2.M.Threads()[0]
	if th2.State != machine.Halted || th2.Reg(4) != thRef.Reg(4) {
		t.Fatalf("restored run diverged: %v r4=%v want %v", th2.State, th2.Reg(4), thRef.Reg(4))
	}
}

func TestWriteGenerationValidation(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := syntheticImage(false)
	delta := syntheticImage(true)
	if err := st.WriteGeneration(0, 0, 0, []*kernel.Checkpoint{base, base}); err == nil {
		t.Error("generation 0 accepted")
	}
	if err := st.WriteGeneration(1, 1, 0, []*kernel.Checkpoint{base}); err == nil {
		t.Error("wrong node count accepted")
	}
	if err := st.WriteGeneration(1, 1, 0, []*kernel.Checkpoint{base, delta}); err == nil {
		t.Error("mixed base/delta generation accepted")
	}
	if err := st.WriteGeneration(1, 1, 0, []*kernel.Checkpoint{delta, delta}); err == nil {
		t.Error("delta with parent == gen accepted")
	}
	if err := st.WriteGeneration(1, 1, 0, []*kernel.Checkpoint{base, base}); err != nil {
		t.Errorf("valid base generation rejected: %v", err)
	}
}

// EncodedSize is exact: a caller that grows its buffer by it never
// grows it again.
func TestEncodedSizeExact(t *testing.T) {
	for _, delta := range []bool{false, true} {
		cp := syntheticImage(delta)
		hdr := Header{Gen: 2, Parent: 1, Delta: delta}
		if !delta {
			hdr.Parent = 2
		}
		if got, want := EncodedSize(cp), len(encodeImage(t, hdr, cp)); got != want {
			t.Errorf("delta=%v: EncodedSize = %d, Encode wrote %d bytes", delta, got, want)
		}
	}
}

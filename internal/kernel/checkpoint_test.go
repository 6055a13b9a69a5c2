package kernel

import (
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

// TestCheckpointRestoreDifferential is the headline property: run a
// program halfway, checkpoint, restore into a brand-new kernel, finish
// there — the architectural outcome must equal an uninterrupted run.
// (The image's round trip through its on-disk encoding is
// internal/persist's TestEncodeDecodeRoundTrip.)
func TestCheckpointRestoreDifferential(t *testing.T) {
	prog := mustAssemble(`
		ldi r2, 40
		ldi r4, 0
	loop:
		ld   r5, r1, 0
		add  r5, r5, r2
		st   r1, 0, r5
		add  r4, r4, r5
		st   r1, 8, r4
		leai r6, r1, 16
		st   r6, 0, r6   ; park a capability in memory
		subi r2, r2, 1
		bnez r2, loop
		halt
	`)
	build := func() (*Kernel, *machine.Thread) {
		k := testKernel(t)
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

	// Reference: uninterrupted.
	kRef, thRef := build()
	kRef.Run(1_000_000)
	if thRef.State != machine.Halted {
		t.Fatalf("reference: %v %v", thRef.State, thRef.Fault)
	}

	// Checkpointed: stop partway, restore, finish.
	k1, th1 := build()
	for i := 0; i < 97; i++ {
		k1.M.Step()
	}
	if th1.Done() {
		t.Fatal("program finished before checkpoint — lengthen it")
	}
	cp, err := k1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	cfg.TrapCost = 10
	k2, err := Restore(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(k2.M.Threads()) != 1 {
		t.Fatalf("restored %d threads", len(k2.M.Threads()))
	}
	th2 := k2.M.Threads()[0]
	k2.Run(1_000_000)
	if th2.State != machine.Halted {
		t.Fatalf("restored run: %v %v", th2.State, th2.Fault)
	}

	// Architectural equality with the reference.
	for r := 0; r < 16; r++ {
		if th2.Reg(r) != thRef.Reg(r) {
			t.Errorf("r%d: restored %v vs reference %v", r, th2.Reg(r), thRef.Reg(r))
		}
	}
	segBase := thRef.Reg(1)
	p1, _ := decodeWord(t, segBase)
	for off := uint64(0); off < 64; off += 8 {
		a, err := kRef.M.Space.ReadWord(p1 + off)
		if err != nil {
			t.Fatal(err)
		}
		b, err := k2.M.Space.ReadWord(p1 + off)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("mem+%d: restored %v vs reference %v", off, b, a)
		}
	}
	if th2.Instret != thRef.Instret {
		t.Errorf("instret: %d vs %d", th2.Instret, thRef.Instret)
	}
}

func decodeWord(t *testing.T, w word.Word) (uint64, error) {
	t.Helper()
	if !w.Tag {
		t.Fatal("expected a pointer word")
	}
	return w.Bits & ((1 << 54) - 1), nil
}

func TestCheckpointPreservesSwapAndLazyState(t *testing.T) {
	k := pagingKernel(t, 16)
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	k.WriteWords(seg, []word.Word{seg.Word(), word.FromInt(99)})
	if err := k.M.Space.SwapOut(seg.Base()); err != nil {
		t.Fatal(err)
	}
	lazy, err := k.AllocSegmentLazy(8 * 4096)
	if err != nil {
		t.Fatal(err)
	}

	cp, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 1
	cfg.PhysBytes = 16 * 4096
	k2, err := Restore(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	k2.EnableDemandPaging(0)

	// The swapped page restores into the backing store and pages in on
	// demand — with its embedded capability intact.
	prog := mustAssemble(`
		ld r2, r1, 0    ; swap-in; r2 = capability copy
		ld r3, r2, 8    ; use it
		st r4, 0, r5    ; touch the lazy segment (demand-zero post-restore)
		halt
	`)
	ip, err := k2.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	th, err := k2.Spawn(1, ip, map[int]word.Word{
		1: seg.Word(), 4: lazy.Word(), 5: word.FromInt(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	k2.Run(1_000_000)
	if th.State != machine.Halted {
		t.Fatalf("%v %v", th.State, th.Fault)
	}
	if th.Reg(3).Int() != 99 {
		t.Errorf("capability through swap+checkpoint: r3 = %d", th.Reg(3).Int())
	}
}

func TestCheckpointSegmentsRemainAllocatable(t *testing.T) {
	k := testKernel(t)
	a, _ := k.AllocSegment(256)
	b, _ := k.AllocSegment(1024)
	cp, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.MMachine()
	cfg.Clusters = 2
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 4 << 20
	k2, err := Restore(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	// New allocations must not overlap restored segments.
	c, err := k2.AllocSegment(512)
	if err != nil {
		t.Fatal(err)
	}
	if c.Overlaps(a) || c.Overlaps(b) {
		t.Errorf("fresh segment %v overlaps restored %v / %v", c, a, b)
	}
	// Restored segments can be freed normally.
	if err := k2.FreeSegment(a); err != nil {
		t.Fatal(err)
	}
	if k2.Segments() != 2 {
		t.Errorf("Segments = %d", k2.Segments())
	}
}

func TestRestoreRejectsCorruptImages(t *testing.T) {
	k := testKernel(t)
	k.AllocSegment(256)
	cp, _ := k.Checkpoint()
	cfg := machine.MMachine()
	cfg.PhysBytes = 4 << 20

	// Overlapping segments.
	bad := *cp
	bad.Segments = map[uint64]uint{DefaultRegionBase: 10, DefaultRegionBase + 8: 10}
	if _, err := Restore(cfg, &bad); err == nil {
		t.Error("overlapping segment image accepted")
	}
}

// TestCheckpointHolds: an image holds a loaded program's words at its
// load address, whether the page is resident or swapped out, and
// nowhere else; an image taken before the load holds none of them.
func TestCheckpointHolds(t *testing.T) {
	k := pagingKernel(t, 16)
	before, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble("ldi r3, 3\nloop: subi r3, r3, 1\nbnez r3, loop\nhalt")
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	base := ip.Addr()
	changed := append([]word.Word(nil), prog.Words...)
	changed[1] = word.FromInt(1)
	for _, swapped := range []bool{false, true} {
		if swapped {
			if err := k.M.Space.SwapOut(base); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := k.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !cp.Holds(base, prog.Words) || !cp.Holds(base+8, prog.Words[1:]) {
			t.Errorf("swapped=%v: the image does not hold the program at its load address", swapped)
		}
		if cp.Holds(base+8, prog.Words) || cp.Holds(base, changed) {
			t.Errorf("swapped=%v: the image holds words that are not there", swapped)
		}
	}
	if before.Holds(base, prog.Words) {
		t.Error("an image taken before the load holds the program")
	}
}

// checkpointAllocs bounds what a full capture allocates, whatever the
// number of pages it holds: the image with its metadata and thread
// list (four objects) and the resident page list. The pages themselves
// are shared with the memory, not copied.
const checkpointAllocs = 5

// deltaAllocs bounds what a delta capture of BenchmarkCheckpoint's
// footprint allocates: the image with its metadata and thread list
// (four objects), the dirty-page list as it grows to 52 pages (seven
// objects), the delta's page list, the mapped-page list and the capture
// state. Nothing is allocated per mapped page, and the pages are shared
// with the memory, not copied.
const deltaAllocs = 14

// checkpointPages is the mapped footprint of BenchmarkCheckpoint, and
// deltaStride spaces its delta row's writes: 52 of the 512 pages, about
// a tenth, are dirty at each delta capture.
const (
	checkpointPages = 512
	deltaStride     = 10
)

// BenchmarkCheckpoint times a capture of a kernel with checkpointPages
// mapped pages, each holding a word: a full capture (Kernel.Checkpoint)
// and a delta (Kernel.CheckpointIncremental) after a write to every
// deltaStride-th page. The delta row times the capture alone: the
// writes, each cloning the page the previous capture shares, run with
// the timer stopped. It fails if a full capture allocates more than
// checkpointAllocs objects or a delta more than deltaAllocs.
func BenchmarkCheckpoint(b *testing.B) {
	k, err := New(machine.MMachine())
	if err != nil {
		b.Fatal(err)
	}
	seg, err := k.AllocSegment(checkpointPages * vm.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	write := func(stride, round int) {
		for p := 0; p < checkpointPages; p += stride {
			if err := k.M.Space.WriteWord(seg.Base()+uint64(p)*vm.PageSize, word.FromInt(int64(round*checkpointPages+p+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	write(1, 0)
	b.Run("full", func(b *testing.B) {
		var cp *Checkpoint
		if a := testing.AllocsPerRun(10, func() { cp, err = k.Checkpoint() }); err != nil || a > checkpointAllocs {
			b.Fatalf("a capture allocates %v times (err %v), want at most %d", a, err, checkpointAllocs)
		}
		if len(cp.Resident) < checkpointPages {
			b.Fatalf("captured %d resident pages, want at least %d", len(cp.Resident), checkpointPages)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		cp, st, err := k.CheckpointIncremental(nil)
		if err != nil {
			b.Fatal(err)
		}
		capture := func() {
			if cp, st, err = k.CheckpointIncremental(st); err != nil {
				b.Fatal(err)
			}
		}
		// The gate counts the capture's allocations alone, as
		// testing.AllocsPerRun would, on one processor.
		const rounds = 10
		allocs := func() uint64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			var n uint64
			for r := 1; r <= rounds; r++ {
				write(deltaStride, r)
				runtime.ReadMemStats(&before)
				capture()
				runtime.ReadMemStats(&after)
				n += after.Mallocs - before.Mallocs
			}
			return n / rounds
		}()
		if allocs > deltaAllocs {
			b.Fatalf("a delta capture allocates %d times, want at most %d", allocs, deltaAllocs)
		}
		if want := (checkpointPages + deltaStride - 1) / deltaStride; !cp.Delta || len(cp.Resident) != want {
			b.Fatalf("delta capture holds %d pages (delta %v), want %d", len(cp.Resident), cp.Delta, want)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			write(deltaStride, rounds+1+i)
			b.StartTimer()
			capture()
		}
	})
}

package jit

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/isa"
	"repro/internal/word"
)

// vcfg is the verifier environment every test program runs under: r1
// holds a read/write pointer to a 4 KB data segment.
var vcfg = capverify.Config{DataBytes: 4096}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// register assembles src and registers it at base on e, returning the
// new region.
func register(t *testing.T, e *Engine, src string, base uint64) *region {
	t.Helper()
	e.Register(mustAssemble(t, src), base, vcfg)
	return e.regions[len(e.regions)-1]
}

// build compiles the block headed at word head of src loaded at
// 0x10000, returning it with src's region.
func build(t *testing.T, cfg Config, src string, head int) (*Block, *region) {
	t.Helper()
	e := New(cfg)
	r := register(t, e, src, 0x10000)
	return e.build(r, 0x10000+uint64(head)*8), r
}

// TestClassify pins every op's place in a block: whether it can run
// proven (with all its site checks safe), whether it ends the block,
// and whether blocks may hold it at all.
func TestClassify(t *testing.T) {
	type class struct{ provable, ends, ok bool }
	alu := class{true, false, true}
	keep := class{false, false, true}
	want := map[isa.Op]class{
		isa.NOP: alu, isa.HALT: {true, true, true},
		isa.ADD: alu, isa.ADDI: alu, isa.SUB: alu, isa.SUBI: alu, isa.MUL: alu,
		isa.AND: alu, isa.OR: alu, isa.XOR: alu, isa.SHL: alu, isa.SHLI: alu,
		isa.SHR: alu, isa.SHRI: alu, isa.SLT: alu, isa.SLTI: alu, isa.SEQ: alu,
		isa.SEQI: alu, isa.MOV: alu, isa.LDI: alu,
		isa.BR: {true, true, true}, isa.BEQZ: alu, isa.BNEZ: alu,
		isa.JMP: {}, isa.JMPL: {}, isa.TRAP: {},
		isa.LD: alu, isa.ST: alu, isa.LDB: alu, isa.STB: alu,
		isa.LEA: alu, isa.LEAI: alu, isa.LEAB: alu, isa.LEABI: alu,
		isa.RESTRICT: keep, isa.SUBSEG: keep, isa.SETPTR: keep, isa.ISPTR: keep,
		isa.GETPERM: keep, isa.GETLEN: keep, isa.MOVIP: keep,
		isa.FADD: keep, isa.FSUB: keep, isa.FMUL: keep, isa.FDIV: keep,
		isa.FSLT: keep, isa.ITOF: keep, isa.FTOI: keep,
	}
	if len(want) != isa.NumOps {
		t.Fatalf("table covers %d ops, the ISA has %d", len(want), isa.NumOps)
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		w := want[op]
		if got := Provable(op); got != w.provable {
			t.Errorf("Provable(%v) = %v, want %v", op, got, w.provable)
		}
		for _, safe := range []bool{false, true} {
			proven, ends, ok := classify(op, safe)
			if proven != (safe && w.provable) || ends != w.ends || ok != w.ok {
				t.Errorf("classify(%v, safe=%v) = %v, %v, %v; want %v, %v, %v",
					op, safe, proven, ends, ok, safe && w.provable, w.ends, w.ok)
			}
		}
	}
}

// TestBuildStops checks where build ends a block: before JMP, JMPL and
// TRAP, before a word the verifier found unreachable or that does not
// decode, after BR and HALT, and at MaxBlock steps.
func TestBuildStops(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		src   string
		steps int
	}{
		{"jmp", Config{}, "addi r3, r3, 1\naddi r4, r4, 1\njmp r14\nhalt", 2},
		{"jmpl", Config{}, "addi r3, r3, 1\naddi r4, r4, 1\njmpl r14, r3\nhalt", 2},
		{"trap", Config{}, "addi r3, r3, 1\naddi r4, r4, 1\ntrap 0\nhalt", 2},
		// r2 is always 1, so the fall-through of bnez is unreachable.
		{"unreachable", Config{}, "ldi r2, 1\ntop: addi r3, r3, 1\nbnez r2, top\naddi r4, r4, 1\nhalt", 3},
		// r2 is unknown, so the word after bnez is reached and fails to decode.
		{"undecodable", Config{}, "ld r2, r1, 0\ntop: addi r3, r3, 1\nbnez r2, top\n.word -1\nhalt", 3},
		{"br", Config{}, "top: addi r3, r3, 1\nbr top\naddi r4, r4, 1\nhalt", 2},
		{"halt", Config{}, "addi r3, r3, 1\nhalt\naddi r4, r4, 1\nhalt", 2},
		{"maxblock", Config{MaxBlock: 4}, "nop\nnop\nnop\nnop\nnop\nnop\nhalt", 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blk, r := build(t, c.cfg, c.src, 0)
			if blk == nil {
				t.Fatal("no block built")
			}
			if len(blk.Steps) != c.steps {
				t.Fatalf("block has %d steps, want %d: %+v", len(blk.Steps), c.steps, blk.Steps)
			}
			reachable := r.sites.Checks(r.base+uint64(c.steps)*8) != nil
			if c.name == "unreachable" && reachable {
				t.Error("the word after the block is reachable")
			}
			if c.name == "undecodable" && (!reachable || r.img.Decodes[c.steps]) {
				t.Error("the word after the block is unreachable or decodes")
			}
			for i, s := range blk.Steps {
				if s.Addr != 0x10000+uint64(i)*8 {
					t.Errorf("step %d at %#x, want %#x", i, s.Addr, 0x10000+uint64(i)*8)
				}
			}
		})
	}
}

// TestBuildRejectsSingleStep: a region that yields only one step stays
// interpreted.
func TestBuildRejectsSingleStep(t *testing.T) {
	for _, c := range []struct {
		src  string
		head int
	}{
		{"halt\nnop", 0},
		{"addi r3, r3, 1\ntrap 0\nhalt", 0},
		{"ldi r2, 1\ntop: bnez r2, top\nhalt", 1}, // halt is unreachable
	} {
		if blk, _ := build(t, Config{}, c.src, c.head); blk != nil {
			t.Errorf("%q: built a %d-step block", c.src, len(blk.Steps))
		}
	}
}

// TestBlockSiteCensus: a block's Elided and Retained count the check
// sites of its proven and unproven steps, and compilation adds them to
// the engine's counters.
func TestBlockSiteCensus(t *testing.T) {
	const src = `
	ld   r5, r1, 0      ; r5: some word from memory
top:
	ld   r2, r1, 8      ; proven: r1 is the data segment
	ld   r3, r5, 0      ; r5 may not be a pointer: retained
	leai r6, r1, 16     ; proven
	fadd r7, r7, r7     ; never provable
	addi r8, r8, 1      ; proven
	br   top
`
	prog := mustAssemble(t, src)
	const base = 0x10000
	sites := capverify.Verify(prog, vcfg).Sites(base)
	const head = base + 8
	e := New(Config{Threshold: 2})
	e.Register(prog, base, vcfg)
	e.NoteBranch(head)
	e.NoteBranch(head)
	blk := e.BlockAt(head)
	if blk == nil {
		t.Fatal("head never compiled")
	}
	wantProven := []bool{true, false, true, false, true, true}
	if len(blk.Steps) != len(wantProven) {
		t.Fatalf("block has %d steps, want %d", len(blk.Steps), len(wantProven))
	}
	elided, retained := 0, 0
	for i, s := range blk.Steps {
		if s.Proven != wantProven[i] {
			t.Errorf("step %d (%v): Proven = %v, want %v", i, s.Inst, s.Proven, wantProven[i])
		}
		if s.Proven {
			elided += len(sites.Checks(s.Addr))
		} else {
			retained += len(sites.Checks(s.Addr))
		}
	}
	if elided == 0 || retained == 0 {
		t.Fatalf("census degenerate: elided %d retained %d", elided, retained)
	}
	if blk.Elided != elided || blk.Retained != retained {
		t.Errorf("block census elided %d retained %d, want %d and %d", blk.Elided, blk.Retained, elided, retained)
	}
	c := e.Counters
	if c.Compiled != 1 || c.ElidedSites != uint64(elided) || c.RetainedSites != uint64(retained) {
		t.Errorf("engine counters %+v, want one block with %d elided and %d retained", c, elided, retained)
	}
}

// hotLoop compiles at its head once NoteBranch sees it Threshold
// times. Its code segment is four words, 32 bytes.
const hotLoop = "top: addi r3, r3, 1\naddi r4, r4, 1\nbr top"

// Load addresses for hotLoop copies whose heads fall in distinct slots
// of the engine's direct-mapped head and heat tables.
const (
	baseA = 0x10000
	baseB = 0x10100
	baseC = 0x10200
)

// compile registers hotLoop at base on e and heats its head until a
// block appears.
func compile(t *testing.T, e *Engine, base uint64) *Block {
	t.Helper()
	register(t, e, hotLoop, base)
	return heat(t, e, base)
}

// heat notes Threshold taken branches to head and returns the block
// compiled there.
func heat(t *testing.T, e *Engine, head uint64) *Block {
	t.Helper()
	for i := 0; i < e.cfg.Threshold; i++ {
		e.NoteBranch(head)
	}
	blk := e.BlockAt(head)
	if blk == nil {
		t.Fatalf("no block at %#x after %d taken branches", head, e.cfg.Threshold)
	}
	return blk
}

// TestInvalidateWriteKillsEngine: a store outside every region is data
// traffic; a store into registered code voids every proof, so every
// block dies and the engine disables itself for good.
func TestInvalidateWriteKillsEngine(t *testing.T) {
	e := New(Config{})
	a, b := compile(t, e, baseA), compile(t, e, baseB)
	e.InvalidateWrite(baseA + 32) // the word just past a
	if e.Dead() || !a.Valid || !b.Valid {
		t.Fatal("a store outside registered code invalidated it")
	}
	e.InvalidateWrite(baseA + 8 + 3) // a byte inside a's second word
	if !e.Dead() || a.Valid || b.Valid {
		t.Fatalf("store into code: dead=%v a.Valid=%v b.Valid=%v", e.Dead(), a.Valid, b.Valid)
	}
	if e.Counters.Invalidated != 2 || e.Regions() != 0 || e.BlockAt(baseB) != nil {
		t.Errorf("after the kill: %+v, %d regions", e.Counters, e.Regions())
	}
	e.Register(mustAssemble(t, hotLoop), baseC, vcfg)
	for i := 0; i < e.cfg.Threshold; i++ {
		e.NoteBranch(baseC)
	}
	if e.Regions() != 0 || e.BlockAt(baseC) != nil {
		t.Error("a dead engine registered or compiled again")
	}
}

// TestInvalidateUnmapDropsOverlapping: unmapping a range drops exactly
// the regions it overlaps, with their blocks; the others keep theirs.
func TestInvalidateUnmapDropsOverlapping(t *testing.T) {
	e := New(Config{})
	a, b, c := compile(t, e, baseA), compile(t, e, baseB), compile(t, e, baseC)
	e.InvalidateUnmap(baseB-8, 16) // overlaps only b's first word
	if !a.Valid || b.Valid || !c.Valid {
		t.Fatalf("Valid after unmap: a=%v b=%v c=%v, want true false true", a.Valid, b.Valid, c.Valid)
	}
	if e.Dead() || e.Regions() != 2 || e.Counters.Invalidated != 1 {
		t.Errorf("dead=%v regions=%d %+v, want live, 2 regions, 1 invalidated", e.Dead(), e.Regions(), e.Counters)
	}
	if e.BlockAt(baseB) != nil || e.BlockAt(baseA) != a || e.BlockAt(baseC) != c {
		t.Error("BlockAt disagrees with the surviving regions")
	}
	e.InvalidateUnmap(baseA+32, baseC-baseA-32) // everything between a and c
	if e.Regions() != 2 || !a.Valid || !c.Valid {
		t.Error("an unmap touching no region dropped one")
	}
}

// regionAllocs bounds what a registration that finds its proof in the
// table allocates: its region and site table view.
const regionAllocs = 2

// loopProg loads r5 from memory and then loops at word 1 over a load
// the verifier proves in bounds of a 4 KB data segment. loopProgAny is
// the same loop loading through r5, which may not be a pointer.
const (
	loopProg    = "ld r5, r1, 0\ntop: ld r2, r1, 64\naddi r3, r3, 1\nbr top"
	loopProgAny = "ld r5, r1, 0\ntop: ld r2, r5, 64\naddi r3, r3, 1\nbr top"
	loopHead    = 8 // top's offset from the load address
)

// sameSites fails unless got and want give every word of a size-byte
// segment at base the same checks and verdicts.
func sameSites(t *testing.T, got, want *capverify.SiteTable, base, size uint64) {
	t.Helper()
	if got.Base() != base {
		t.Fatalf("site table keyed at %#x, want %#x", got.Base(), base)
	}
	for a := base; a < base+size; a += 8 {
		if g, w := got.Checks(a), want.Checks(a); !reflect.DeepEqual(g, w) {
			t.Fatalf("checks at %#x: %v, want %v", a, g, w)
		}
	}
}

// TestRegisterReusesProof: registering a program again under the same
// Config, on a fresh engine at another base, verifies nothing. It
// allocates only its region, and its site table is the one a fresh
// verification keys at that base.
func TestRegisterReusesProof(t *testing.T) {
	prog := mustAssemble(t, loopProg)
	New(Config{}).Register(prog, baseA, vcfg)
	e := New(Config{})
	if a := testing.AllocsPerRun(20, func() { e.Register(prog, baseB, vcfg) }); a > regionAllocs {
		t.Errorf("a second registration allocates %v times, want at most %d", a, regionAllocs)
	}
	if e.Regions() != 1 {
		t.Fatalf("%d regions, want 1", e.Regions())
	}
	r := e.regions[0]
	sameSites(t, r.sites, capverify.Verify(prog, vcfg).Sites(baseB), baseB, r.size)
	if !heat(t, e, baseB+loopHead).Steps[0].Proven {
		t.Error("the load is not proven at the second base")
	}
}

// TestRegisterReverifiesChangedWords: a program whose words change after
// its first registration gets a proof of its new words, and the blocks
// compiled from it follow the new verdicts.
func TestRegisterReverifiesChangedWords(t *testing.T) {
	prog, other := mustAssemble(t, loopProg), mustAssemble(t, loopProgAny)
	e := New(Config{})
	e.Register(prog, baseA, vcfg)
	if !heat(t, e, baseA+loopHead).Steps[0].Proven {
		t.Fatal("the load through r1 is not proven")
	}
	copy(prog.Words, other.Words)
	e = New(Config{})
	e.Register(prog, baseA, vcfg)
	if heat(t, e, baseA+loopHead).Steps[0].Proven {
		t.Error("the load through r5 runs proven: the old proof was reused")
	}
	sameSites(t, e.regions[0].sites, capverify.Verify(other, vcfg).Sites(baseA), baseA, e.regions[0].size)
}

// TestRegisterProofPerConfig: the same program under another DataBytes
// gets its own proof. A load at offset 64 is in bounds of 4 KB of data
// and past the end of 64 B.
func TestRegisterProofPerConfig(t *testing.T) {
	prog := mustAssemble(t, loopProg)
	small := capverify.Config{DataBytes: 64}
	big, tiny := New(Config{}), New(Config{})
	big.Register(prog, baseA, vcfg)
	tiny.Register(prog, baseA, small)
	at := uint64(baseA + loopHead)
	if !allSafe(big.regions[0].sites.Checks(at)) || allSafe(tiny.regions[0].sites.Checks(at)) {
		t.Error("the load must be safe in 4 KB of data and not in 64 B")
	}
	if proofOf(prog, vcfg) == proofOf(prog, small) {
		t.Error("two Configs share one proof")
	}
}

// TestProofLeavesWithProgram: once a program is unreachable, its entry
// leaves the table; the table never keeps a program alive.
func TestProofLeavesWithProgram(t *testing.T) {
	key := func() proofKey {
		prog := mustAssemble(t, loopProg)
		New(Config{}).Register(prog, baseA, vcfg)
		key := proofKey{weak.Make(prog), vcfg}
		if _, ok := proofs.Load(key); !ok {
			t.Fatal("registration left no entry")
		}
		return key
	}()
	for i := 0; i < 100; i++ {
		if _, ok := proofs.Load(key); !ok {
			return
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the entry outlived its program through 100 collections")
}

// TestRegisterConcurrent registers one program on eight engines from
// eight goroutines (make race runs it under the race detector). Every
// engine ends with the verdicts of a fresh verification, and the table
// with one entry that is one of theirs.
func TestRegisterConcurrent(t *testing.T) {
	prog := mustAssemble(t, loopProg)
	engines := make([]*Engine, 8)
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = New(Config{})
		wg.Add(1)
		go func(e *Engine, base uint64) {
			defer wg.Done()
			e.Register(prog, base, vcfg)
		}(engines[i], baseA+uint64(i)*0x100)
	}
	wg.Wait()
	rep := capverify.Verify(prog, vcfg)
	v, ok := proofs.Load(proofKey{weak.Make(prog), vcfg})
	if !ok {
		t.Fatal("no entry after the registrations")
	}
	shared := false
	for i, e := range engines {
		base := baseA + uint64(i)*0x100
		r := e.regions[0]
		sameSites(t, r.sites, rep.Sites(base), base, r.size)
		shared = shared || r.img == v.(*proof).img
	}
	if !shared {
		t.Error("the table's proof is no engine's")
	}
}

// TestInheritTakesOverHeldRegions: a fresh engine takes over exactly
// the regions whose words holds confirms, sharing their proofs but no
// blocks, and a dead engine hands over nothing.
func TestInheritTakesOverHeldRegions(t *testing.T) {
	from := New(Config{})
	compile(t, from, baseA)
	compile(t, from, baseB)
	e := New(Config{})
	e.Inherit(from, func(base uint64, words []word.Word) bool {
		return base == baseB && len(words) == from.regions[1].img.SegWords()
	})
	if e.Regions() != 1 || e.regions[0].base != baseB || e.regions[0].sites != from.regions[1].sites {
		t.Fatalf("inherited %d regions, want the one at %#x with its site table", e.Regions(), uint64(baseB))
	}
	if e.BlockAt(baseB) != nil || len(e.regions[0].blocks) != 0 {
		t.Error("a block came over with the region")
	}
	heat(t, e, baseB)
	from.InvalidateWrite(baseA)
	dead := New(Config{})
	dead.Inherit(from, func(uint64, []word.Word) bool { return true })
	if dead.Regions() != 0 {
		t.Error("a dead engine handed over regions")
	}
}

// BenchmarkRegister times Engine.Register on the 128-word mesh8 program
// in capverify's testdata. first registers a fresh copy of the program
// on every op, so every op verifies. again registers one program over
// and over, so every op after the first finds its proof in the table; it
// fails if such an op allocates more than its region.
func BenchmarkRegister(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "capverify", "testdata", "mesh8_128w.s"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.AssembleNamed("mesh8_128w.s", string(src))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("first", func(b *testing.B) {
		e := New(Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clone := *prog
			e.Register(&clone, baseA, vcfg)
		}
	})
	b.Run("again", func(b *testing.B) {
		e := New(Config{})
		e.Register(prog, baseA, vcfg)
		if a := testing.AllocsPerRun(100, func() { e.Register(prog, baseA, vcfg) }); a > regionAllocs {
			b.Fatalf("allocates %v times per registration, want at most %d", a, regionAllocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Register(prog, baseA, vcfg)
		}
	})
}

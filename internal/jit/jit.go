// Package jit is the check-eliding superblock translator: the compiled
// execution tier above the internal/machine interpreter.
//
// The paper's thesis is that capability checks can be made (near) free
// in hardware; the software reproduction pays for every tag, permission,
// bounds, and alignment check on every dispatched instruction. This
// package cashes in internal/capverify's static proofs instead: hot
// straight-line regions (discovered by per-branch-target execution
// counters) are compiled into flat step slices in which every check the
// verifier proved safe is elided, and every site it could not prove
// keeps the interpreter's full dynamic check sequence.
//
// The translator produces *data*, not code: a Block is a slice of
// decoded instructions, each marked Proven or not. There is no second
// copy of the instruction semantics: the executor in internal/machine
// (blockexec.go) runs every step through the interpreter's own dispatch,
// which skips the checks of a proven step and performs all of them for
// the rest. Correctness bar: architectural state, vm/cache statistics,
// and cycle accounting are bit-identical to the interpreter on every
// program.
//
// Soundness: a verdict is a proof about the registered program's code
// under capverify's entry contract (see Engine.Register). The proofs are
// void the moment registered code is modified, so a store into any
// registered region invalidates every compiled block and permanently
// disables the translator (Space.OnWrite fan-out); unmapping a region
// drops it. Self-modifying programs simply run interpreted.
//
// A proof is a pure function of the program's words and the verifier
// Config, so the process verifies each program once: a table of proofs
// shared by every engine serves each later registration, on any engine
// and at any base. The fresh engine of a machine rebuilt from a
// checkpoint or a migration image takes its predecessor's proofs over
// (Engine.Inherit). The model is proof-carrying code (Necula, POPL'97):
// the proof travels with the code it is about.
package jit

import (
	"runtime"
	"slices"
	"sync"
	"time"
	"weak"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// Step is one compiled instruction. Addr is its fetch address — the
// executor re-translates it each step so TLB behavior matches the
// interpreter exactly. Proven marks an instruction whose site checks
// the verifier all discharged: the executor runs it through the
// interpreter's dispatch with those checks dropped. An unproven step
// runs the same dispatch with every check in place.
type Step struct {
	Addr   uint64
	Inst   isa.Inst
	Proven bool
}

// Block is one compiled superblock: straight-line code entered only at
// Head. Valid is cleared (never reset) when an invalidation covers the
// block; executors must re-check it after every potentially-writing
// step. Elided and Retained count the capverify check sites of its
// proven and unproven steps: the checks the compiled form skips and
// keeps, respectively.
type Block struct {
	Head  uint64
	Steps []Step
	Valid bool

	Elided   int
	Retained int
}

// region is one registered program: its analyzed image and site table,
// shared with every region over the same proof, at its load address.
type region struct {
	base   uint64
	size   uint64 // code segment bytes (2^CodeLog)
	img    *capverify.Image
	sites  *capverify.SiteTable
	blocks []*Block
}

// Config fixes the translator's thresholds.
type Config struct {
	// Threshold is how many times an address must be a taken-branch
	// target before compilation triggers. 0 means the default (64).
	Threshold int
	// MaxBlock caps a block's length in instructions (default 64).
	MaxBlock int
}

// DefaultConfig returns the standard thresholds.
func DefaultConfig() Config {
	return Config{Threshold: 64, MaxBlock: 64}
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 64
	}
	if c.MaxBlock <= 0 {
		c.MaxBlock = 64
	}
	return c
}

// Counters are the translator's telemetry: exported fields so the
// machine's executor can bump Entries without a call.
type Counters struct {
	Compiled      uint64 // blocks compiled
	Invalidated   uint64 // blocks invalidated by code writes or unmaps
	Entries       uint64 // block entries from the dispatch fast path
	ElidedSites   uint64 // check sites elided across compiled blocks
	RetainedSites uint64 // check sites retained across compiled blocks
}

// Direct-mapped table geometry, mirroring the machine's decoded-
// instruction cache: indexed by word address, keyed by vaddr+1 so the
// zero value is empty.
const (
	headEntries = 4096
	headMask    = headEntries - 1
	heatEntries = 4096
	heatMask    = heatEntries - 1
)

type headEntry struct {
	key uint64
	blk *Block
}

type heatEntry struct {
	key   uint64
	count uint32
}

// Engine is one machine's translator instance. It is confined to the
// machine's goroutine like the rest of the simulator core.
type Engine struct {
	cfg     Config
	regions []*region
	heads   [headEntries]headEntry
	heat    [heatEntries]heatEntry
	dead    bool

	Counters Counters
	// CompileLatency observes wall-clock nanoseconds per compilation.
	// Telemetry only: it never feeds back into simulated time.
	CompileLatency *telemetry.Histogram
}

// New returns an engine with the given thresholds (zero fields take
// defaults).
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), CompileLatency: telemetry.NewHistogram()}
}

// Dead reports whether a write into registered code voided all proofs
// and permanently disabled the translator.
func (e *Engine) Dead() bool { return e.dead }

// Register makes a loaded program's code eligible for compilation.
// base is the address its code segment was loaded at (the pointer
// kernel.LoadProgram returned); cfg must describe the environment the
// program actually runs under.
//
// The program is verified once per process: a registration finds its
// proof in a table shared by every engine and verifies only when the
// table holds no proof of prog's current words under cfg. Each
// registration still gets its own region, with no blocks.
//
// Soundness contract: capverify's verdicts assume the program starts at
// its first word with r1 holding a read/write pointer to a segment of
// at least cfg.DataBytes bytes and every other register empty. Callers
// must guarantee that contract (mmsim's loader does); registering a
// program that is entered differently, or with extra capabilities in
// registers, would elide checks the verifier never proved.
func (e *Engine) Register(prog *asm.Program, base uint64, cfg capverify.Config) {
	if e.dead {
		return
	}
	p := proofOf(prog, cfg)
	e.add(base, p.img, p.rep.Sites(base))
}

// Inherit takes over from's regions whose code holds says is still in
// place: the same base, the shared image and site table, and no
// blocks, so a restored or migrated machine's fresh engine compiles
// again without verifying. holds reports whether the restored image
// has words at base; an image taken before the load, or a foreign
// kernel's, fails it and the region stays behind. A dead engine has
// dropped its regions and hands over nothing.
func (e *Engine) Inherit(from *Engine, holds func(base uint64, words []word.Word) bool) {
	if e.dead || from == nil {
		return
	}
	for _, r := range from.regions {
		if holds(r.base, r.img.Words) {
			e.add(r.base, r.img, r.sites)
		}
	}
}

// add installs a region over the code at base.
func (e *Engine) add(base uint64, img *capverify.Image, sites *capverify.SiteTable) {
	size := uint64(img.SegWords()) * 8
	// A reload over a stale registration replaces it.
	e.InvalidateUnmap(base, size)
	e.regions = append(e.regions, &region{
		base:  base,
		size:  size,
		img:   img,
		sites: sites,
	})
}

// proofKey names a program's proof under one verifier Config. The
// program is held weakly, so the table never keeps one alive.
type proofKey struct {
	prog weak.Pointer[asm.Program]
	cfg  capverify.Config
}

// proof is a program's analyzed image and verifier report, which every
// engine registering the program shares read-only.
type proof struct {
	img *capverify.Image
	rep *capverify.Report
}

// proofs is the process-wide proof table, proofKey to *proof. Engines on
// any goroutine register through it (the experiment worker pool runs
// machines on several), and a cleanup on each program deletes its entry
// once the program is unreachable.
var proofs sync.Map

// proofOf returns prog's proof under cfg, verifying only when the table
// has none or prog's words changed since it was verified. Site verdicts
// depend only on the words and cfg (capverify reads Labels and Origins
// for diagnostic text alone), so a proof found in the table compiles
// the same blocks a fresh one would.
func proofOf(prog *asm.Program, cfg capverify.Config) *proof {
	key := proofKey{weak.Make(prog), cfg}
	if v, ok := proofs.Load(key); ok {
		if p := v.(*proof); slices.Equal(p.img.Words[:p.img.ProgWords], prog.Words) {
			return p
		}
	}
	p := &proof{img: capverify.NewImage(prog, cfg), rep: capverify.Verify(prog, cfg)}
	if _, replaced := proofs.Swap(key, p); !replaced {
		runtime.AddCleanup(prog, func(k proofKey) { proofs.Delete(k) }, key)
	}
	return p
}

// Regions returns how many programs are currently registered.
func (e *Engine) Regions() int { return len(e.regions) }

// BlockAt returns the valid compiled block headed at addr, or nil.
func (e *Engine) BlockAt(addr uint64) *Block {
	h := &e.heads[(addr>>3)&headMask]
	if h.key != addr+1 {
		return nil
	}
	if b := h.blk; b.Valid {
		return b
	}
	h.key, h.blk = 0, nil
	return nil
}

// NoteBranch records a taken-branch target; crossing the heat threshold
// triggers compilation at that head.
func (e *Engine) NoteBranch(addr uint64) {
	if e.dead || len(e.regions) == 0 {
		return
	}
	h := &e.heat[(addr>>3)&heatMask]
	if h.key != addr+1 {
		h.key, h.count = addr+1, 1
		return
	}
	h.count++
	if h.count == uint32(e.cfg.Threshold) {
		e.compileAt(addr)
	}
}

// InvalidateWrite handles a store at vaddr (Space.OnWrite fan-out). A
// store outside every registered region is ordinary data traffic; a
// store *into* one is self-modifying code, which voids every proof the
// verifier ever produced for this engine — the written instruction can
// compute register states the fixpoint never saw, and those states flow
// into every block. All blocks die and the translator disables itself.
func (e *Engine) InvalidateWrite(vaddr uint64) {
	if e.dead || len(e.regions) == 0 {
		return
	}
	w := vaddr &^ 7
	for _, r := range e.regions {
		if w >= r.base && w < r.base+r.size {
			e.flushAll()
			e.dead = true
			return
		}
	}
}

// InvalidateUnmap handles an address-range unmap (Space.OnUnmap
// fan-out): regions overlapping the range are dropped and their blocks
// invalidated. Unlike a code write this is not self-modification — the
// remaining regions' proofs still hold.
func (e *Engine) InvalidateUnmap(vaddr, size uint64) {
	if e.dead {
		return
	}
	keep := e.regions[:0]
	for _, r := range e.regions {
		if r.base+r.size <= vaddr || vaddr+size <= r.base {
			keep = append(keep, r)
			continue
		}
		for _, b := range r.blocks {
			if b.Valid {
				b.Valid = false
				e.Counters.Invalidated++
			}
		}
	}
	e.regions = keep
}

// flushAll invalidates every block and clears the lookup tables.
func (e *Engine) flushAll() {
	for _, r := range e.regions {
		for _, b := range r.blocks {
			if b.Valid {
				b.Valid = false
				e.Counters.Invalidated++
			}
		}
	}
	e.heads = [headEntries]headEntry{}
	e.heat = [heatEntries]heatEntry{}
	e.regions = nil
}

// regionFor finds the registered region containing addr.
func (e *Engine) regionFor(addr uint64) *region {
	for _, r := range e.regions {
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

// compileAt builds and installs a block headed at addr, if possible.
func (e *Engine) compileAt(addr uint64) {
	if e.BlockAt(addr) != nil {
		return
	}
	r := e.regionFor(addr)
	if r == nil || (addr-r.base)%8 != 0 {
		return
	}
	start := time.Now()
	blk := e.build(r, addr)
	if blk == nil {
		return
	}
	e.CompileLatency.Observe(uint64(time.Since(start)))
	e.Counters.Compiled++
	e.Counters.ElidedSites += uint64(blk.Elided)
	e.Counters.RetainedSites += uint64(blk.Retained)
	r.blocks = append(r.blocks, blk)
	h := &e.heads[(addr>>3)&headMask]
	h.key, h.blk = addr+1, blk
}

// build compiles the straight-line region starting at head. The block
// ends at the first JMP/JMPL/TRAP (excluded — their control transfer
// and kernel interaction stay interpreted), at BR or HALT (included),
// at any word the verifier found unreachable or undecodable, or at
// MaxBlock steps. Conditional branches stay inside the block: their
// fall-through continues, a taken branch exits.
func (e *Engine) build(r *region, head uint64) *Block {
	pc := int((head - r.base) >> 3)
	n := r.img.SegWords()
	blk := &Block{Head: head, Valid: true}
	for len(blk.Steps) < e.cfg.MaxBlock && pc < n {
		if !r.img.Decodes[pc] {
			break
		}
		checks := r.sites.Checks(r.base + uint64(pc)*8)
		if checks == nil {
			break // unreachable per the verifier: no proof exists here
		}
		proven, ends, ok := classify(r.img.Insts[pc].Op, allSafe(checks))
		if !ok {
			break
		}
		blk.Steps = append(blk.Steps, Step{
			Addr:   r.base + uint64(pc)*8,
			Inst:   r.img.Insts[pc],
			Proven: proven,
		})
		if proven {
			blk.Elided += len(checks)
		} else {
			blk.Retained += len(checks)
		}
		if ends {
			break
		}
		pc++
	}
	if len(blk.Steps) < 2 {
		return nil
	}
	return blk
}

// allSafe reports whether every check at a site is provably safe.
func allSafe(checks []capverify.SiteCheck) bool {
	for _, c := range checks {
		if c.Verdict != capverify.VerdictSafe {
			return false
		}
	}
	return true
}

// Provable reports whether op may run proven: whether the executor can
// drop its checks once the verifier discharged them all. These are the
// integer ALU ops, moves, word and byte loads and stores, the LEA
// family, branches and HALT. The pointer-field ops, floating point and
// MOVIP always keep their checks.
func Provable(op isa.Op) bool {
	switch op {
	case isa.NOP, isa.ADD, isa.ADDI, isa.SUB, isa.SUBI, isa.MUL,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHLI, isa.SHR, isa.SHRI,
		isa.SLT, isa.SLTI, isa.SEQ, isa.SEQI, isa.MOV, isa.LDI,
		isa.LD, isa.ST, isa.LDB, isa.STB,
		isa.LEA, isa.LEAI, isa.LEAB, isa.LEABI,
		isa.BR, isa.BEQZ, isa.BNEZ, isa.HALT:
		return true
	}
	return false
}

// classify decides an instruction's place in a block: proven when the
// op is Provable and every check at its site is safe, ends for the
// block enders BR and HALT, and ok false for JMP, JMPL and TRAP, whose
// control transfer and kernel interaction stay interpreted.
func classify(op isa.Op, safe bool) (proven, ends, ok bool) {
	if op == isa.JMP || op == isa.JMPL || op == isa.TRAP {
		return false, false, false
	}
	return safe && Provable(op), op == isa.BR || op == isa.HALT, true
}

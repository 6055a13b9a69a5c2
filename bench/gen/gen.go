// Package gen generates the benchmark's seeded MAP programs.
//
// Every program comes with the answer a Go model of its loop predicts:
// the value left in r4 at halt and the number of instructions retired.
// The benchmark compares both with what the simulator produced, so a
// seed that has no committed golden digest is still checked for
// correct output.
//
// The same seed always yields byte-identical sources. Each workload
// draws from its own stream, so adding a program to one workload never
// reshuffles another.
package gen

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// PageBytes is the simulated page size; the ckpt-migrate program dirties
// whole pages.
const PageBytes = 4096

// Params are the shaping parameters a workload promises to keep within
// stated ranges (tested in gen_test.go).
type Params struct {
	WorkingSet uint64  // bytes of the data segment the program touches
	Stride     uint64  // bytes between consecutive elements
	Reads      int     // loads per element (domains-mem)
	Writes     int     // stores per element (domains-mem)
	Period     int     // instructions between remote operations (mesh8)
	DirtyFrac  float64 // share of pages stored to per interval (ckpt-migrate)
}

// Program is one generated program with its entry contract and the
// result its Go model predicts. The loader passes a read/write pointer
// to a fresh, zeroed DataBytes segment in r1 and nothing else.
type Program struct {
	Name      string
	Family    string
	Source    string
	DataBytes uint64
	Result    int64  // r4 at halt
	Instr     uint64 // instructions retired by halt
	Params
}

// Workload stream salts.
const (
	saltCorpus  = 0x636f72707573
	saltDomains = 0x646f6d61696e
	saltMesh    = 0x6d657368
	saltCkpt    = 0x636b7074
)

// rngFor derives an independent generator for one workload from the
// benchmark seed (splitmix64 finalizer, so nearby seeds diverge).
func rngFor(seed, salt uint64) *workload.RNG {
	z := seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return workload.NewRNG(z ^ z>>31)
}

// between returns a value in [lo, hi].
func between(r *workload.RNG, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// pow2Between returns a power of two in [lo, hi] (both powers of two).
func pow2Between(r *workload.RNG, lo, hi uint64) uint64 {
	n := 0
	for v := lo; v < hi; v <<= 1 {
		n++
	}
	return lo << uint(r.Intn(n+1))
}

// asmWriter accumulates one program's source.
type asmWriter struct{ strings.Builder }

func (w *asmWriter) op(format string, args ...any) {
	w.WriteString("\t")
	fmt.Fprintf(w, format, args...)
	w.WriteString("\n")
}

func (w *asmWriter) label(name string) { w.WriteString(name + ":\n") }

// --- interp-corpus / jit-corpus ------------------------------------------

// CorpusSize is the number of programs in the interpreter/JIT corpus.
const CorpusSize = 32

// CorpusInstr is the approximate instruction count of one corpus job.
const CorpusInstr = 500_000

// Corpus families, assigned round-robin so every seed has the same mix.
var corpusFamilies = []func(r *workload.RNG, target uint64) Program{aluProgram, sweepProgram, chaseProgram, deriveProgram, byteProgram}

// Corpus returns the seeded single-thread corpus: ALU/branch, store+load
// sweep, capability pointer-chase, derive/restrict and byte-op programs
// over working sets of 512 B to 16 KB.
func Corpus(seed uint64) []Program {
	r := rngFor(seed, saltCorpus)
	out := make([]Program, CorpusSize)
	for i := range out {
		p := corpusFamilies[i%len(corpusFamilies)](r, CorpusInstr)
		p.Name = fmt.Sprintf("%s-%02d", p.Family, i)
		out[i] = p
	}
	return out
}

// Corpus working-set range.
const (
	CorpusMinWS = 512
	CorpusMaxWS = 16 << 10
)

// aluProgram is a multiply/shift/xor recurrence with a data-dependent
// branch; it touches memory only to publish its result.
func aluProgram(r *workload.RNG, target uint64) Program {
	ws := pow2Between(r, CorpusMinWS, CorpusMaxWS)
	a := int64(between(r, 1<<10, 1<<20)) | 1
	c := int64(between(r, 1, 1<<20))
	s := between(r, 7, 29)
	mask := int64(1)<<uint(between(r, 2, 5)) - 1
	x0 := int64(between(r, 1, 1<<30))

	model := func(n int64) (acc int64, instr uint64) {
		x := x0
		instr = 5
		for i := int64(0); i < n; i++ {
			x *= a
			x += c
			x ^= int64(uint64(x) >> uint(s))
			if v := x & mask; v == 0 {
				acc--
				instr += 6 + 1 + 2
			} else {
				acc += v
				instr += 6 + 2 + 2
			}
		}
		return acc, instr + 2
	}
	n := int64(target / 10)

	var w asmWriter
	w.op("ldi  r2, %d", n)
	w.op("ldi  r3, %d", x0)
	w.op("ldi  r4, 0")
	w.op("ldi  r5, %d", a)
	w.op("ldi  r6, %d", mask)
	w.label("loop")
	w.op("mul  r3, r3, r5")
	w.op("addi r3, r3, %d", c)
	w.op("shri r7, r3, %d", s)
	w.op("xor  r3, r3, r7")
	w.op("and  r8, r3, r6")
	w.op("beqz r8, skip")
	w.op("add  r4, r4, r8")
	w.op("br   join")
	w.label("skip")
	w.op("subi r4, r4, 1")
	w.label("join")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, loop")
	w.op("st   r1, 0, r4")
	w.op("halt")
	acc, instr := model(n)
	return Program{Family: "alu", Source: w.String(), DataBytes: ws, Result: acc, Instr: instr,
		Params: Params{WorkingSet: 8}}
}

// sweepProgram streams a load, an accumulate and a store over every
// stride-th word of its working set, pass after pass.
func sweepProgram(r *workload.RNG, target uint64) Program {
	ws := pow2Between(r, CorpusMinWS, CorpusMaxWS)
	stride := uint64(8 << uint(r.Intn(4))) // 8..64
	k0 := int64(between(r, 1, 1<<20))
	inc := int64(between(r, 1, 999))
	cnt := ws/stride - 1
	perPass := 2 + cnt*7 + 2
	passes := (target + perPass/2) / perPass
	if passes == 0 {
		passes = 1
	}

	mem := make([]int64, ws/8)
	var acc int64
	v := k0
	for p := uint64(0); p < passes; p++ {
		for e := uint64(0); e < cnt; e++ {
			i := e * stride / 8
			acc += mem[i]
			mem[i] = v
			v += inc
		}
	}

	var w asmWriter
	w.op("ldi  r2, %d", passes)
	w.op("ldi  r4, 0")
	w.op("ldi  r9, %d", k0)
	w.label("pass")
	w.op("mov  r5, r1")
	w.op("ldi  r3, %d", cnt)
	w.label("sweep")
	w.op("ld   r6, r5, 0")
	w.op("add  r4, r4, r6")
	w.op("st   r5, 0, r9")
	w.op("addi r9, r9, %d", inc)
	w.op("leai r5, r5, %d", stride)
	w.op("subi r3, r3, 1")
	w.op("bnez r3, sweep")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, pass")
	w.op("halt")
	return Program{Family: "sweep", Source: w.String(), DataBytes: ws, Result: acc,
		Instr: 3 + passes*perPass + 1, Params: Params{WorkingSet: ws - stride, Stride: stride}}
}

// chaseProgram builds a ring of capabilities through its working set
// (each 16-byte node holds a pointer to the next and a payload), then
// follows it, summing payloads.
func chaseProgram(r *workload.RNG, target uint64) Program {
	ws := pow2Between(r, CorpusMinWS, CorpusMaxWS)
	nodes := int64(ws / 16)
	step := int64(between(r, 1, int(nodes)-1)) | 1
	build := 2 + uint64(nodes)*11 + 3
	hops := int64((target - build) / 5)

	var acc int64
	slot := int64(0)
	for h := int64(0); h < hops; h++ {
		acc += slot
		slot = (slot + step) & (nodes - 1)
	}

	var w asmWriter
	w.op("ldi  r10, %d", nodes-1)
	w.op("ldi  r2, 0")
	w.label("build")
	w.op("shli r3, r2, 4")
	w.op("lea  r5, r1, r3")
	w.op("addi r6, r2, %d", step)
	w.op("and  r6, r6, r10")
	w.op("shli r6, r6, 4")
	w.op("lea  r7, r1, r6")
	w.op("st   r5, 0, r7")
	w.op("st   r5, 8, r2")
	w.op("addi r2, r2, 1")
	w.op("slti r8, r2, %d", nodes)
	w.op("bnez r8, build")
	w.op("mov  r5, r1")
	w.op("ldi  r4, 0")
	w.op("ldi  r3, %d", hops)
	w.label("chase")
	w.op("ld   r6, r5, 8")
	w.op("add  r4, r4, r6")
	w.op("ld   r5, r5, 0")
	w.op("subi r3, r3, 1")
	w.op("bnez r3, chase")
	w.op("halt")
	return Program{Family: "chase", Source: w.String(), DataBytes: ws, Result: acc,
		Instr: build + uint64(hops)*5 + 1, Params: Params{WorkingSet: ws, Stride: 16}}
}

// deriveProgram derives a pointer into its working set every iteration,
// restricts it to read-only, narrows it with SUBSEG, and loads through
// both derived capabilities.
func deriveProgram(r *workload.RNG, target uint64) Program {
	ws := pow2Between(r, CorpusMinWS, CorpusMaxWS)
	sh := between(r, 3, 7)
	sublog := int64(between(r, 3, 6))
	mask := int64(ws - 8)
	n := int64((target - 6) / 16)

	var acc int64
	for i := n; i > 0; i-- {
		acc += 2*i + 2 + sublog
	}

	var w asmWriter
	w.op("ldi  r11, 2")
	w.op("ldi  r12, %d", sublog)
	w.op("ldi  r10, %d", mask)
	w.op("ldi  r2, %d", n)
	w.op("ldi  r4, 0")
	w.label("loop")
	w.op("shli r3, r2, %d", sh)
	w.op("and  r3, r3, r10")
	w.op("lea  r5, r1, r3")
	w.op("st   r5, 0, r2")
	w.op("restrict r6, r5, r11")
	w.op("ld   r7, r6, 0")
	w.op("add  r4, r4, r7")
	w.op("getperm r8, r6")
	w.op("add  r4, r4, r8")
	w.op("subseg r9, r6, r12")
	w.op("getlen r8, r9")
	w.op("add  r4, r4, r8")
	w.op("ld   r7, r9, 0")
	w.op("add  r4, r4, r7")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, loop")
	w.op("halt")
	return Program{Family: "derive", Source: w.String(), DataBytes: ws, Result: acc,
		Instr: 5 + uint64(n)*16 + 1, Params: Params{WorkingSet: ws, Stride: 8 << uint(sh-3)}}
}

// byteProgram sweeps its working set with byte loads and byte stores at
// an odd or even byte stride, pass after pass.
func byteProgram(r *workload.RNG, target uint64) Program {
	ws := pow2Between(r, CorpusMinWS, CorpusMaxWS)
	stride := uint64(between(r, 1, 7))
	v0 := int64(between(r, 0, 255))
	inc := int64(between(r, 1, 254))
	cnt := (ws - 1) / stride
	perPass := 2 + cnt*7 + 2
	passes := (target + perPass/2) / perPass
	if passes == 0 {
		passes = 1
	}

	mem := make([]byte, ws)
	var acc int64
	v := v0
	for p := uint64(0); p < passes; p++ {
		for e := uint64(0); e < cnt; e++ {
			i := e * stride
			acc += int64(mem[i])
			mem[i] = byte(v)
			v += inc
		}
	}

	var w asmWriter
	w.op("ldi  r2, %d", passes)
	w.op("ldi  r4, 0")
	w.op("ldi  r9, %d", v0)
	w.label("pass")
	w.op("mov  r5, r1")
	w.op("ldi  r3, %d", cnt)
	w.label("bloop")
	w.op("ldb  r6, r5, 0")
	w.op("add  r4, r4, r6")
	w.op("stb  r5, 0, r9")
	w.op("addi r9, r9, %d", inc)
	w.op("leai r5, r5, %d", stride)
	w.op("subi r3, r3, 1")
	w.op("bnez r3, bloop")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, pass")
	w.op("halt")
	return Program{Family: "byte", Source: w.String(), DataBytes: ws, Result: acc,
		Instr: 3 + passes*perPass + 1, Params: Params{WorkingSet: cnt * stride, Stride: stride}}
}

// --- domains-mem ----------------------------------------------------------

// Domains workload shape: DomainsThreads threads, each in its own
// protection domain, streaming over a private segment of
// DomainsMinWS..DomainsMaxWS bytes.
const (
	DomainsJobs    = 16
	DomainsThreads = 8
	DomainsMinWS   = 64 << 10
	DomainsMaxWS   = 192 << 10
	// DomainsPassInstr is the approximate instruction count of one pass
	// of one thread; every thread makes two passes.
	DomainsPassInstr = 9_000
)

// rwMixes are the (reads, writes) per element the domains threads draw
// from: read:write ratios between 1:1 and 3:1.
var rwMixes = [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 2}, {6, 2}}

// Domains returns the seeded domains-mem jobs: DomainsThreads streaming
// programs per job.
func Domains(seed uint64) [][]Program {
	r := rngFor(seed, saltDomains)
	jobs := make([][]Program, DomainsJobs)
	for j := range jobs {
		for t := 0; t < DomainsThreads; t++ {
			p := streamProgram(r)
			p.Name = fmt.Sprintf("dm-%02d-t%d", j, t)
			jobs[j] = append(jobs[j], p)
		}
	}
	return jobs
}

// streamProgram makes two passes over a private segment; every element
// takes a seeded number of loads (accumulated) and stores (of the
// element counter) at word offsets inside the element.
func streamProgram(r *workload.RNG) Program {
	ws := uint64(between(r, DomainsMinWS/PageBytes, DomainsMaxWS/PageBytes)) * PageBytes
	mix := rwMixes[r.Intn(len(rwMixes))]
	reads, writes := mix[0], mix[1]
	perElem := uint64(2*reads + writes + 3)
	stride := (ws*perElem/DomainsPassInstr + 7) &^ 7
	if floor := uint64(8 * (reads + writes)); stride < floor {
		stride = floor
	}
	words := int(stride / 8)
	loadOff := make([]int, reads)
	for i := range loadOff {
		loadOff[i] = 8 * r.Intn(words)
	}
	storeOff := make([]int, writes)
	for i := range storeOff {
		storeOff[i] = 8 * r.Intn(words)
	}
	const passes = 2
	cnt := ws/stride - 1
	perPass := 2 + cnt*perElem + 2

	mem := make(map[uint64]int64)
	var acc int64
	for p := 0; p < passes; p++ {
		for e := uint64(0); e < cnt; e++ {
			base := e * stride
			for _, o := range loadOff {
				acc += mem[base+uint64(o)]
			}
			for _, o := range storeOff {
				mem[base+uint64(o)] = int64(cnt - e)
			}
		}
	}

	var w asmWriter
	w.op("ldi  r2, %d", passes)
	w.op("ldi  r4, 0")
	w.label("pass")
	w.op("mov  r5, r1")
	w.op("ldi  r3, %d", cnt)
	w.label("elem")
	for _, o := range loadOff {
		w.op("ld   r6, r5, %d", o)
		w.op("add  r4, r4, r6")
	}
	for _, o := range storeOff {
		w.op("st   r5, %d, r3", o)
	}
	w.op("leai r5, r5, %d", stride)
	w.op("subi r3, r3, 1")
	w.op("bnez r3, elem")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, pass")
	w.op("halt")
	return Program{Family: "stream", Source: w.String(), DataBytes: ws, Result: acc,
		Instr:  2 + passes*perPass + 1,
		Params: Params{WorkingSet: cnt * stride, Stride: stride, Reads: reads, Writes: writes}}
}

// --- mesh8 ----------------------------------------------------------------

// Mesh workload shape.
const (
	MeshJobs  = 16
	MeshNodes = 8
	// MeshMinPeriod..MeshMaxPeriod bound the instructions between two
	// remote operations of one node.
	MeshMinPeriod = 8
	MeshMaxPeriod = 64
	// MeshNodeInstr is the approximate instruction count of one node.
	MeshNodeInstr = 10_000
	// PublicWords is the size in words of each node's public segment,
	// which the benchmark fills with PublicWord values before the run
	// and no program writes.
	PublicWords = 512
	// MailboxSlotBytes is the slice of a node's mailbox segment that
	// each writer node stores into.
	MailboxSlotBytes = 512
	// MeshDataBytes is the size of each node's local segment; its first
	// two words hold the remote pointers (see MeshNode).
	MeshDataBytes = 4096
)

// PublicWord is the value the benchmark stores at word i of node's
// public segment.
func PublicWord(node, i int) int64 { return int64(node)<<20 | int64(i) }

// MeshNode is one node's program. The benchmark stores, before the
// run, a pointer to LoadFrom's public segment at word 0 of the node's
// local segment and a pointer to this node's slot of StoreTo's mailbox
// at word 1; the program loads both from memory, so the translator's
// entry contract (only r1 live) still holds.
type MeshNode struct {
	Program
	LoadFrom, StoreTo int
}

// Mesh returns the seeded mesh8 jobs.
func Mesh(seed uint64) [][]MeshNode {
	r := rngFor(seed, saltMesh)
	jobs := make([][]MeshNode, MeshJobs)
	for j := range jobs {
		for n := 0; n < MeshNodes; n++ {
			m := meshProgram(r, n)
			m.Name = fmt.Sprintf("mesh-%02d-n%d", j, n)
			jobs[j] = append(jobs[j], m)
		}
	}
	return jobs
}

// otherNode draws a node other than self.
func otherNode(r *workload.RNG, self int) int {
	n := r.Intn(MeshNodes - 1)
	if n >= self {
		n++
	}
	return n
}

// filler is one ALU instruction of a mesh node's padding.
type filler struct {
	kind int
	imm  int64
}

// meshProgram issues a remote load from LoadFrom and a remote store to
// StoreTo every period instructions, with seeded ALU padding between.
func meshProgram(r *workload.RNG, self int) MeshNode {
	period := between(r, MeshMinPeriod, MeshMaxPeriod)
	loadFrom, storeTo := otherNode(r, self), otherNode(r, self)
	// Each remote operation takes 5 (load) or 4 (store) instructions of
	// addressing and accounting; padding fills the rest of the period.
	pad := func() []filler {
		n := period - 5
		if n < 1 {
			n = 1
		}
		fs := make([]filler, n)
		for i := range fs {
			fs[i] = filler{kind: r.Intn(4), imm: int64(between(r, 1, 20))}
		}
		return fs
	}
	padA, padB := pad(), pad()
	perIter := uint64(len(padA)+len(padB)) + 5 + 4 + 2
	iters := int64(MeshNodeInstr / perIter)
	x0 := int64(between(r, 1, 1<<20))

	var r3, r9, acc int64 = x0, 0, 0
	runPad := func(fs []filler, r2 int64) {
		for _, f := range fs {
			switch f.kind {
			case 0:
				r3 += f.imm
			case 1:
				r3 ^= r2
			case 2:
				r9 = int64(uint64(r3) >> uint(f.imm))
			case 3:
				r3 += r9
			}
		}
	}
	for r2 := iters; r2 > 0; r2-- {
		runPad(padA, r2)
		acc += PublicWord(loadFrom, int(r2&(PublicWords-1)))
		runPad(padB, r2)
	}

	var w asmWriter
	emitPad := func(fs []filler) {
		for _, f := range fs {
			switch f.kind {
			case 0:
				w.op("addi r3, r3, %d", f.imm)
			case 1:
				w.op("xor  r3, r3, r2")
			case 2:
				w.op("shri r9, r3, %d", f.imm)
			case 3:
				w.op("add  r3, r3, r9")
			}
		}
	}
	w.op("ld   r10, r1, 0")
	w.op("ld   r11, r1, 8")
	w.op("ldi  r12, %d", (PublicWords-1)*8)
	w.op("ldi  r13, %d", MailboxSlotBytes/8-1)
	w.op("ldi  r2, %d", iters)
	w.op("ldi  r3, %d", x0)
	w.op("ldi  r4, 0")
	w.op("ldi  r9, 0")
	w.label("loop")
	emitPad(padA)
	w.op("shli r7, r2, 3")
	w.op("and  r7, r7, r12")
	w.op("lea  r8, r10, r7")
	w.op("ld   r6, r8, 0")
	w.op("add  r4, r4, r6")
	emitPad(padB)
	w.op("and  r7, r2, r13")
	w.op("shli r7, r7, 3")
	w.op("lea  r8, r11, r7")
	w.op("st   r8, 0, r3")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, loop")
	w.op("halt")
	return MeshNode{
		Program: Program{Family: "mesh", Source: w.String(), DataBytes: MeshDataBytes, Result: acc,
			Instr: 8 + uint64(iters)*perIter + 1, Params: Params{Period: period}},
		LoadFrom: loadFrom, StoreTo: storeTo,
	}
}

// --- ckpt-migrate ---------------------------------------------------------

// Checkpoint workload shape.
const (
	CkptJobs = 16
	// CkptMinWS..CkptMaxWS bound the working set the program stores
	// over; its segment is the next power of two.
	CkptMinWS = 1 << 20
	CkptMaxWS = 2 << 20
	// CkptMinDirty..CkptMaxDirty bound the share of the segment's pages
	// stored to per interval.
	CkptMinDirty = 0.02
	CkptMaxDirty = 0.30
	// CkptInterval is the capture period in cycles; every interval the
	// program dirties its pages and then stores into one hot page for
	// about CkptSpinInstr instructions.
	CkptInterval  = 50_000
	CkptSpinInstr = 30_000
	// CkptIntervals is how many intervals one job runs.
	CkptIntervals = 4
	// ckptStoresPerPage is how many words of each dirtied page are
	// stored to.
	ckptStoresPerPage = 8
)

// CkptJob is one ckpt-migrate job: a store-heavy program and the cycle
// at which it is migrated.
type CkptJob struct {
	Program
	MigrateAt uint64
}

// Ckpt returns the seeded ckpt-migrate jobs.
func Ckpt(seed uint64) []CkptJob {
	r := rngFor(seed, saltCkpt)
	jobs := make([]CkptJob, CkptJobs)
	for j := range jobs {
		p := ckptProgram(r)
		p.Name = fmt.Sprintf("ckpt-%02d", j)
		// Migrate after the first capture and before the middle of the
		// run (one thread retires about one instruction per cycle), so
		// pre-copy overlaps execution and the standby has work left.
		jobs[j] = CkptJob{Program: p, MigrateAt: CkptInterval + uint64(r.Intn(int(p.Instr/2-CkptInterval)))}
	}
	return jobs
}

// ckptProgram stores to a rotating window of its pages each interval,
// then stores into its first page in a counted loop.
func ckptProgram(r *workload.RNG) Program {
	pages := uint64(between(r, CkptMinWS/PageBytes, CkptMaxWS/PageBytes))
	frac := CkptMinDirty + (CkptMaxDirty-CkptMinDirty)*r.Float64()
	dirty := uint64(frac*float64(pages) + 0.5)
	if dirty < 1 {
		dirty = 1
	}
	spin := int64(CkptSpinInstr / 5)
	const wordStride = PageBytes / ckptStoresPerPage

	var acc int64
	var instr uint64 = 4
	cur := uint64(0)
	for r2 := int64(CkptIntervals); r2 > 0; r2-- {
		instr++
		for d := dirty; d > 0; d-- {
			instr += ckptStoresPerPage + 3
			cur++
			if cur == pages {
				cur = 0
				instr += 3
			} else {
				instr += 1
			}
			instr += 2
		}
		instr++
		for r3 := spin; r3 > 0; r3-- {
			acc += 3
			acc ^= r3
			instr += 5
		}
		instr += 2
	}
	instr++

	var w asmWriter
	w.op("ldi  r2, %d", CkptIntervals)
	w.op("ldi  r4, 0")
	w.op("mov  r5, r1")
	w.op("ldi  r12, 0")
	w.label("interval")
	w.op("ldi  r3, %d", dirty)
	w.label("dirty")
	for i := 0; i < ckptStoresPerPage; i++ {
		w.op("st   r5, %d, r2", i*wordStride)
	}
	w.op("addi r12, r12, 1")
	w.op("slti r8, r12, %d", pages)
	w.op("bnez r8, nowrap")
	w.op("mov  r5, r1")
	w.op("ldi  r12, 0")
	w.op("br   next")
	w.label("nowrap")
	w.op("leai r5, r5, %d", PageBytes)
	w.label("next")
	w.op("subi r3, r3, 1")
	w.op("bnez r3, dirty")
	w.op("ldi  r3, %d", spin)
	w.label("spin")
	w.op("addi r4, r4, 3")
	w.op("xor  r4, r4, r3")
	w.op("st   r1, 0, r4")
	w.op("subi r3, r3, 1")
	w.op("bnez r3, spin")
	w.op("subi r2, r2, 1")
	w.op("bnez r2, interval")
	w.op("halt")
	return Program{Family: "ckpt", Source: w.String(), DataBytes: pages * PageBytes, Result: acc, Instr: instr,
		Params: Params{WorkingSet: pages * PageBytes, Stride: PageBytes, DirtyFrac: float64(dirty) / float64(pages)}}
}

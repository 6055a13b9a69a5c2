package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/word"
)

// Compiled blocks run the interpreter's dispatch with proven checks
// dropped. TestJITProvenDispatchMatchesChecked holds the proven forms to
// the checked ones op by op: for every op a block may run proven
// (jit.Provable), seeded random operands that pass every check run once
// checked and once proven on two identically built machines, which must
// then agree on the thread, every statistic and the memory the access
// could reach. The proven run must also report exactly its taken
// branches, which the block executor reads to decide whether to chain.

const (
	provenCode    = 0x10000 // the IP's execute segment: 4 KB
	provenCodeLog = 12
	provenData    = 0x100000 // data segments lie in this 4 KB window
	provenDataLog = 12
)

// provenCase is one instruction with the thread state and data-window
// contents it runs against.
type provenCase struct {
	inst isa.Inst
	regs [isa.NumRegs]word.Word
	ip   core.Pointer
	mem  []word.Word // data window contents; nil when op touches no memory
}

func TestJITProvenDispatchMatchesChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	covered := 0
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !jit.Provable(op) {
			continue
		}
		covered++
		for trial := 0; trial < 100; trial++ {
			c := provenOperands(rng, op)
			where := fmt.Sprintf("%v trial %d (%v, ra=%v rb=%v)", op, trial,
				c.inst, c.regs[c.inst.Ra], c.regs[c.inst.Rb])
			mc, tc, _ := runDispatch(t, c, false)
			if tc.State == Faulted || mc.Stats().Faults != 0 {
				t.Fatalf("%s: checked run faulted: %v", where, tc.Fault)
			}
			mp, tp, jumped := runDispatch(t, c, true)
			sameDispatch(t, where, c, mc, tc, mp, tp)
			taken := op == isa.BR || (op == isa.BEQZ || op == isa.BNEZ) &&
				(c.regs[c.inst.Ra].Int() == 0) == (op == isa.BEQZ)
			if jumped != taken {
				t.Fatalf("%s: proven dispatch reports jumped=%v, want %v", where, jumped, taken)
			}
		}
	}
	if covered == 0 {
		t.Fatal("jit.Provable admits no op")
	}
}

// provenOperands draws operands for op under which every check passes:
// random words in the registers, and for the ops that need one a
// pointer of random permission and length (among those the op
// accepts) with an in-bounds, aligned displacement or branch target.
func provenOperands(rng *rand.Rand, op isa.Op) provenCase {
	c := provenCase{inst: isa.Inst{Op: op, Rd: rng.Intn(isa.NumRegs)}}
	c.inst.Ra = rng.Intn(isa.NumRegs)
	c.inst.Rb = (c.inst.Ra + 1 + rng.Intn(isa.NumRegs-1)) % isa.NumRegs
	c.inst.Imm = rng.Int63n(isa.MaxImm-isa.MinImm+1) + isa.MinImm
	for i := range c.regs {
		c.regs[i] = word.Word{Bits: rng.Uint64(), Tag: rng.Intn(4) == 0}
	}
	codeWords := 1 << provenCodeLog / 8
	ipWord := rng.Intn(codeWords - 1) // room for the sequential advance
	c.ip = mustMake(core.PermExecuteUser, provenCodeLog, provenCode+uint64(ipWord)*8)
	modifiable := []core.Perm{core.PermReadOnly, core.PermReadWrite, core.PermExecuteUser, core.PermExecutePriv}

	switch op {
	case isa.BR, isa.BEQZ, isa.BNEZ:
		c.inst.Imm = int64(rng.Intn(codeWords) - (ipWord + 1))
		if rng.Intn(2) == 0 {
			c.regs[c.inst.Ra] = word.Word{}
		}

	case isa.LEA, isa.LEAI, isa.LEAB, isa.LEABI:
		logLen := uint(rng.Intn(24))
		size := int64(1) << logLen
		own := rng.Int63n(size)
		base := uint64(rng.Intn(1<<12)) << logLen
		c.regs[c.inst.Ra] = mustMake(modifiable[rng.Intn(len(modifiable))], logLen, base+uint64(own)).Word()
		off := rng.Int63n(size) // LEAB: from the base
		if op == isa.LEA || op == isa.LEAI {
			off -= own
		}
		if op == isa.LEA || op == isa.LEAB {
			c.regs[c.inst.Rb] = word.FromInt(off)
		} else {
			c.inst.Imm = off
		}

	case isa.LD, isa.ST, isa.LDB, isa.STB:
		size, minLog := uint64(word.BytesPerWord), 3
		if op == isa.LDB || op == isa.STB {
			size, minLog = 1, 0
		}
		perm := modifiable[rng.Intn(len(modifiable))] // every loadable perm
		if op == isa.ST || op == isa.STB {
			perm = core.PermReadWrite
		}
		logLen := uint(minLog + rng.Intn(provenDataLog+1-minLog))
		seg := uint64(1) << logLen
		base := provenData + uint64(rng.Intn(1<<(provenDataLog-logLen)))<<logLen
		target := uint64(rng.Int63n(int64(seg/size))) * size
		own := uint64(rng.Int63n(int64(seg)))
		if rng.Intn(4) == 0 {
			own = target // no displacement: the checks skip the LEA
		}
		c.regs[c.inst.Ra] = mustMake(perm, logLen, base+own).Word()
		c.inst.Imm = int64(target) - int64(own)
		c.mem = make([]word.Word, 1<<provenDataLog/word.BytesPerWord)
		for i := range c.mem {
			c.mem[i] = word.Word{Bits: rng.Uint64(), Tag: rng.Intn(4) == 0}
		}
	}
	return c
}

// runDispatch builds a fresh machine around c and dispatches c.inst
// once on its only thread, returning what dispatch reported.
func runDispatch(t *testing.T, c provenCase, proven bool) (*Machine, *Thread, bool) {
	t.Helper()
	cfg := testConfig()
	cfg.PhysBytes = 1 << 16 // small memory and cache: a fresh machine per run
	cfg.Cache.Sets = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.mem != nil {
		if err := m.Space.EnsureMapped(provenData, 1<<provenDataLog); err != nil {
			t.Fatal(err)
		}
		for i, w := range c.mem {
			if err := m.Space.WriteWord(provenData+uint64(i)*word.BytesPerWord, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	th, err := m.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	th.IP, th.Regs = c.ip, c.regs
	jumped := m.dispatch(th, &c.inst, proven)
	return m, th, jumped
}

// sameDispatch fails unless the checked run (mc, tc) and the proven run
// (mp, tp) agree on the thread, the machine, cache, TLB and vm
// statistics, and the data window.
func sameDispatch(t *testing.T, where string, c provenCase, mc *Machine, tc *Thread, mp *Machine, tp *Thread) {
	t.Helper()
	if tc.Regs != tp.Regs || tc.IP != tp.IP || tc.State != tp.State ||
		tc.Instret != tp.Instret || tc.blockedUntil != tp.blockedUntil {
		t.Fatalf("%s: thread\nchecked %+v\nproven  %+v", where, tc, tp)
	}
	if mc.Stats() != mp.Stats() {
		t.Fatalf("%s: machine stats\nchecked %+v\nproven  %+v", where, mc.Stats(), mp.Stats())
	}
	if !reflect.DeepEqual(mc.Cache.Stats(), mp.Cache.Stats()) {
		t.Fatalf("%s: cache stats\nchecked %+v\nproven  %+v", where, mc.Cache.Stats(), mp.Cache.Stats())
	}
	if mc.Space.TLB.Stats() != mp.Space.TLB.Stats() || mc.Space.Stats() != mp.Space.Stats() {
		t.Fatalf("%s: vm stats\nchecked %+v %+v\nproven  %+v %+v", where,
			mc.Space.TLB.Stats(), mc.Space.Stats(), mp.Space.TLB.Stats(), mp.Space.Stats())
	}
	for i := range c.mem {
		a := provenData + uint64(i)*word.BytesPerWord
		wc, errc := mc.Space.ReadWord(a)
		wp, errp := mp.Space.ReadWord(a)
		if wc != wp || errc != nil || errp != nil {
			t.Fatalf("%s: memory at %#x: checked %v (%v), proven %v (%v)", where, a, wc, errc, wp, errp)
		}
	}
}

package capverify

import (
	"sort"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// verifier holds one analysis run.
type verifier struct {
	img        *Image
	cfg        Config
	maxTargets int
	ths        []int64 // widening thresholds harvested from comparisons

	out    stepOut // step's result, refilled by every step
	merged []check // the report pass's per-site merge of all contexts
}

const (
	// widenAfter is how many times a program point is re-joined before
	// the join switches to the widening operator.
	widenAfter = 8

	// maxSteps caps fixpoint iterations. Widening guarantees
	// termination; the cap is a second line of defense for the fuzzer.
	maxSteps = 1 << 20

	// maxCtxs caps how many interprocedural contexts the engine creates
	// (one per exact call/enter site). Beyond the cap a call degrades to
	// a plain local edge — the original single-space semantics, which is
	// sound, just less precise.
	maxCtxs = 32
)

// Domain sentinels for ctxInfo.dom: a context either executes in the
// root protection domain, in the domain named by the enter-gated entry
// point it crossed into, or in an unresolvable mix of parents.
const (
	domRoot  int32 = -1
	domMixed int32 = -2
)

// ctxInfo is one interprocedural analysis context: the abstract state
// space of a callee as entered from one exact call or enter site.
// Contexts are 1-level call strings — each exact JMPL (or enter-gated
// jump) site gets its own copy of the callee's state space, so the
// callee's registers are not smeared across unrelated callers and its
// exit state can be returned to exactly the right continuation.
type ctxInfo struct {
	site    int32        // creating call-site pc; -1 for the root context
	retPC   int32        // continuation pc in the caller; -1 if none
	dom     int32        // protection domain (entry pc), domRoot or domMixed
	noRet   bool         // enter via plain JMP: no return continuation
	parents map[int]bool // contexts that call through this site
}

// Verify analyzes an assembled (or linked) program under cfg and
// returns the report. It never executes the program.
func Verify(prog *asm.Program, cfg Config) *Report {
	return newVerifier(prog, cfg).run()
}

// VerifySource assembles a single module and verifies it.
func VerifySource(name, src string, cfg Config) (*Report, error) {
	prog, err := asm.AssembleNamed(name, src)
	if err != nil {
		return nil, err
	}
	return Verify(prog, cfg), nil
}

func newVerifier(prog *asm.Program, cfg Config) *verifier {
	mt := cfg.MaxTargets
	if mt <= 0 {
		mt = 64
	}
	v := &verifier{img: NewImage(prog, cfg), cfg: cfg, maxTargets: mt}
	v.ths = collectThresholds(v.img)
	return v
}

// collectThresholds harvests widening thresholds from the program text:
// every SLTI/SEQI immediate is a bound some loop or guard compares
// against, so a counter interval that is still moving should land there
// (±1 for the strict/inclusive variants) rather than racing to ±∞.
// Bounds are also scaled by every SHLI shift amount in the program:
// counters are routinely scaled to word offsets (`shli r4, r2, 3`), and
// the scaled offset interval needs the scaled bound to stabilise on.
func collectThresholds(img *Image) []int64 {
	bounds := map[int64]bool{-1: true, 0: true, 1: true}
	shifts := map[int64]bool{}
	for i, ok := range img.Decodes {
		if !ok {
			continue
		}
		inst := img.Insts[i]
		switch inst.Op {
		case isa.SLTI, isa.SEQI:
			bounds[inst.Imm-1] = true
			bounds[inst.Imm] = true
			bounds[inst.Imm+1] = true
		case isa.SHLI:
			if inst.Imm > 0 && inst.Imm < 16 {
				shifts[inst.Imm] = true
			}
		}
	}
	set := map[int64]bool{}
	for b := range bounds {
		set[b] = true
		for s := range shifts {
			scaled := b << uint(s)
			if scaled>>uint(s) == b { // no overflow
				set[scaled] = true
			}
		}
	}
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// run drives the interprocedural worklist to fixpoint, then replays
// every reachable instruction in every live context over its final
// in-state, merging the per-context verdicts into one site table.
func (v *verifier) run() *Report {
	n := v.img.SegWords()

	ctxs := []ctxInfo{{site: -1, retPC: -1, dom: domRoot}}
	states := [][]state{make([]state, n)} // in-state per (ctx, word)
	visits := [][]int{make([]int, n)}     // join counts, for widening
	staticReach := [][]bool{make([]bool, n)}
	inWork := [][]bool{make([]bool, n)}
	rets := []state{{}}         // joined return state per context
	retStatic := []bool{false}  // whether any return edge was static
	byCallSite := map[int]int{} // call-site pc -> context index

	type item struct{ c, pc int }
	work := make([]item, 0, n)
	push := func(c, pc int) {
		if !inWork[c][pc] {
			inWork[c][pc] = true
			work = append(work, item{c, pc})
		}
	}

	// prop merges an edge's post-state into (c, t).
	prop := func(c, t int, st state, static bool) {
		changed := false
		if static && !staticReach[c][t] {
			staticReach[c][t] = true
			changed = true
		}
		old := states[c][t]
		merged := v.joinState(old, st, old.live && visits[c][t] >= widenAfter)
		if !stateEq(merged, old) {
			states[c][t] = merged
			visits[c][t]++
			changed = true
		}
		if changed {
			push(c, t)
		}
	}

	// newCtx allocates a fresh context for call-site pc.
	newCtx := func(site, retPC, dom int32, noRet bool) int {
		ctxs = append(ctxs, ctxInfo{site: site, retPC: retPC, dom: dom,
			noRet: noRet, parents: map[int]bool{}})
		states = append(states, make([]state, n))
		visits = append(visits, make([]int, n))
		staticReach = append(staticReach, make([]bool, n))
		inWork = append(inWork, make([]bool, n))
		rets = append(rets, state{})
		retStatic = append(retStatic, false)
		byCallSite[int(site)] = len(ctxs) - 1
		return len(ctxs) - 1
	}

	prop(0, 0, v.entryState(), true)

	abyss := false
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		c, pc := it.c, it.pc
		inWork[c][pc] = false
		in := states[c][pc]
		if !in.live || !v.img.Decodes[pc] {
			continue // unreachable, or fetch faults: no successors
		}
		out := v.step(pc, in)
		if out.abyss && !abyss {
			// An indirect jump could not be bounded: from here, any
			// instruction may execute with any state. Inject the havoc
			// state everywhere, once (it is the lattice top, so a second
			// injection could not change anything), and stop creating
			// contexts — precision is gone anyway.
			abyss = true
			h := havocState()
			for cc := range ctxs {
				for t := 0; t < n; t++ {
					prop(cc, t, h, false)
				}
			}
		}
		for _, e := range out.edges {
			static := staticReach[c][pc] && !e.spec

			// Interprocedural call/enter edge: analyse the callee in a
			// context keyed by this call site. A call to its own return
			// address is degenerate — left as a local edge — but an
			// enter-gated crossing is a domain transition wherever it
			// lands.
			if (e.call || e.enter) && !abyss && !v.cfg.RegistersOnly &&
				!(e.call && !e.enter && e.pc == pc+1) {
				cc, ok := byCallSite[pc]
				if !ok && len(ctxs) < maxCtxs {
					retPC := int32(pc + 1)
					noRet := false
					if !e.call {
						retPC, noRet = -1, true // plain JMP through enter: no continuation
					}
					dom := ctxs[c].dom
					if e.enter {
						dom = int32(e.pc)
					}
					cc = newCtx(int32(pc), retPC, dom, noRet)
					ok = true
				}
				if ok {
					if e.enter && ctxs[cc].dom != int32(e.pc) {
						ctxs[cc].dom = domMixed
					}
					if !e.enter && ctxs[cc].dom != ctxs[c].dom {
						ctxs[cc].dom = domMixed
					}
					if !ctxs[cc].parents[c] {
						ctxs[cc].parents[c] = true
						// A parent attaching after the callee already
						// returned gets the known exit state replayed.
						if rp := ctxs[cc].retPC; rp >= 0 && rets[cc].live {
							prop(c, int(rp), rets[cc], retStatic[cc])
						}
					}
					prop(cc, e.pc, e.st, static)
					continue
				}
				// Context cap reached: fall through to a local edge.
			}

			// Return edge: a non-call jump out of a callee context to its
			// continuation resumes every caller at the call's return pc.
			if ci := &ctxs[c]; ci.site >= 0 && !ci.noRet && !e.call && int32(e.pc) == ci.retPC {
				rets[c] = v.joinState(rets[c], e.st, false)
				if static {
					retStatic[c] = true
				}
				for p := range ci.parents {
					prop(p, e.pc, e.st, static)
				}
				continue
			}

			prop(c, e.pc, e.st, static)
		}
	}

	// Report pass: replay each reachable word in every live context over
	// its fixpoint in-state, merge the per-context verdicts, and collect
	// confinement leaks.
	rep := &Report{Abyss: abyss, sites: make([][]SiteCheck, n)}
	live := make([]int, 0, len(ctxs))
	for pc := 0; pc < n; pc++ {
		live = live[:0]
		for c := range ctxs {
			if states[c][pc].live {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			continue
		}
		rep.ReachableWords++
		rep.sites[pc] = []SiteCheck{} // reachable, even if check-free
		baseIn := &states[live[0]][pc]
		if !v.img.Decodes[pc] {
			// Fetching this word faults. Provable only when the word is
			// certainly reached; a speculative or havoc path makes it an
			// unknown on the fetch check.
			anyStatic := false
			for _, c := range live {
				anyStatic = anyStatic || staticReach[c][pc]
			}
			c := check{class: ClassCtrl, verdict: VerdictUnknown, code: core.FaultPerm, reg: -1, msg: msgFetchMay}
			if anyStatic {
				c.verdict, c.msg = VerdictFault, msgFetchFault
			}
			v.record(rep, pc, baseIn, c)
			continue
		}
		v.merged = v.merged[:0]
		for _, c := range live {
			out := v.step(pc, states[c][pc])
			if !v.cfg.RegistersOnly {
				v.collectLeaks(rep, pc, ctxs[c].dom, states[c][pc], out)
			}
			v.merged = mergeChecks(v.merged, out.checks)
		}
		for _, c := range v.merged {
			v.record(rep, pc, baseIn, c)
		}
	}
	rep.sortDiags()
	rep.sortLeaks()
	return rep
}

// mergeChecks folds one context's check list b into the running merged
// list a for a site, in place in a's storage (the first context's list
// is merged into an empty a, which copies it). Lists from different
// contexts may differ in length (an early provable fault cuts a
// context's list short; a one-sided branch emits only its side's
// control check); the merge keeps the longer list and joins verdicts
// positionwise — agreeing verdicts stand, disagreeing ones degrade to
// unknown. This is sound for the JIT's all-safe test: the merged list
// is all-safe only if every context proved every check it emits, and
// each dynamic instance's checks are covered by the context that
// abstracts it.
func mergeChecks(a, b []check) []check {
	n := len(a)
	if len(b) > n {
		for i := range a {
			a[i] = joinCheck(b[i], a[i])
		}
		return append(a, b[n:]...)
	}
	for i := range b {
		a[i] = joinCheck(a[i], b[i])
	}
	return a
}

// joinCheck merges two contexts' verdicts on the same check; long comes
// from the longer list, and its check stands when the verdicts agree.
func joinCheck(long, short check) check {
	if long.verdict == short.verdict {
		return long
	}
	pick := long
	if pick.verdict == VerdictSafe {
		pick = short // prefer the side that saw a problem
	}
	pick.verdict = VerdictUnknown
	pick.code = core.FaultNone
	return pick
}

// record enters one merged check at pc into the report: it is counted
// and added to the site table, and only a non-safe check — the only
// kind a Report keeps — becomes a Diag with a formatted message.
func (v *verifier) record(rep *Report, pc int, in *state, c check) {
	rep.PerClass[c.class].bump(c.verdict)
	rep.Totals.bump(c.verdict)
	rep.sites[pc] = append(rep.sites[pc], SiteCheck{Class: c.class, Verdict: c.verdict})
	if c.verdict != VerdictSafe {
		rep.Diags = append(rep.Diags, v.diag(pc, in, &c))
	}
}

// diag attaches source provenance to a check verdict: the instruction's
// own origin, plus — when the check blames a register defined at a
// known instruction — the origin of that definition.
func (v *verifier) diag(pc int, in *state, c *check) Diag {
	o := v.img.Origin(pc)
	d := Diag{
		PC: pc, File: o.File, Line: o.Line,
		Class: c.class.String(), Verdict: c.verdict.String(),
		Code: c.code, Msg: c.text(), Reg: c.reg,
		verdict: c.verdict, class: c.class,
	}
	if v.img.Decodes[pc] {
		d.Inst = v.img.Insts[pc].String()
	}
	if c.verdict == VerdictFault && c.code != core.FaultNone {
		d.Fault = c.code.String()
	}
	if c.reg >= 0 && c.reg < isa.NumRegs {
		if def := in.defs[c.reg]; def >= 0 {
			ro := v.img.Origin(int(def))
			d.RegFile, d.RegLine = ro.File, ro.Line
		}
	}
	return d
}

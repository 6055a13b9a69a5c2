package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/word"
)

func init() {
	register("E30",
		"Capability-flow analysis — the abstract store and call contexts discharge the checks register-only analysis retains, and the confinement pass pins every capability escape",
		runE30)
}

// e30LeakPrograms are crafted confinement violations: each leaks a
// capability out of a protection domain at a known line, and the
// experiment gates on the confinement pass naming exactly that site.
var e30LeakPrograms = []struct {
	name string
	src  string
	line int
	kind string
	reg  int
	dom  string
}{
	{"enter-store", `	movip r2
	ldi  r4, =sub
	leab r2, r2, r4
	ldi  r5, 6
	restrict r6, r2, r5
	jmp  r6
sub:
	st   r1, 0, r1
	halt
`, 8, "store", 1, "sub"},
	{"enter-crossing", `	movip r2
	ldi  r4, =sub
	leab r2, r2, r4
	ldi  r5, 6
	restrict r6, r2, r5
	jmp  r6
sub:
	halt
`, 6, "crossing", 1, "root"},
}

// e30Run boots prog under the standard mmsim contract (one user
// thread, 4 KB scratch segment in r1) and reports whether it halted
// cleanly.
func e30Run(prog *asm.Program) error {
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		return err
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		return err
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		return err
	}
	th, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()})
	if err != nil {
		return err
	}
	k.Run(5_000_000)
	if th.State != machine.Halted || th.Fault != nil {
		return fmt.Errorf("ended %v (fault %v), want clean halt", th.State, th.Fault)
	}
	return nil
}

// runE30 is the whole-program capability-flow experiment. Over the full
// E25 corpus it verifies each program twice — once with the flow
// analysis (abstract store, affine relations, call contexts,
// confinement) and once register-only (the PR 5 baseline) — and gates:
//
//   - every *shipped* program discharges >= 90% of its check sites
//     under the flow analysis;
//   - the flow analysis never loses a register-only safety proof
//     (monotone safe counts), never invents a provable fault, never
//     falls into the abyss, and reports zero leaks on the clean corpus;
//   - every corpus program still halts cleanly on the real machine, so
//     the added precision is checked against ground truth;
//   - the crafted leak programs are each flagged at the exact escaping
//     instruction, with the right register and source domain.
func runE30() (string, error) {
	corpus, err := e25Corpus()
	if err != nil {
		return "", err
	}
	tbl := stats.NewTable("Flow analysis vs register-only baseline (per check site)",
		"program", "sites", "reg-only safe", "flow safe", "gained", "discharged")

	for _, p := range corpus {
		full := capverify.Verify(p.Prog, capverify.Config{})
		reg := capverify.Verify(p.Prog, capverify.Config{RegistersOnly: true})
		if full.HasFault() {
			return "", fmt.Errorf("e30: %s provably faults: %s", p.Name, full.Faults()[0])
		}
		if full.Abyss {
			return "", fmt.Errorf("e30: %s: unbounded indirect jump (abyss)", p.Name)
		}
		if len(full.Leaks) != 0 {
			return "", fmt.Errorf("e30: %s: unexpected confinement leak: %s", p.Name, full.Leaks[0])
		}
		if full.Totals.Safe < reg.Totals.Safe {
			return "", fmt.Errorf("e30: %s: flow analysis lost precision (%d safe vs %d register-only)",
				p.Name, full.Totals.Safe, reg.Totals.Safe)
		}
		shipped := !strings.HasPrefix(p.Name, "wl:")
		if shipped && full.DischargeRatio() < 0.90 {
			return "", fmt.Errorf("e30: %s discharge ratio %.2f, want >= 0.90",
				p.Name, full.DischargeRatio())
		}
		if err := e30Run(p.Prog); err != nil {
			return "", fmt.Errorf("e30: %s: %v", p.Name, err)
		}
		tbl.AddRow(p.Name, full.Totals.Total(), reg.Totals.Safe, full.Totals.Safe,
			full.Totals.Safe-reg.Totals.Safe,
			fmt.Sprintf("%.0f%%", 100*full.DischargeRatio()))
	}

	conf := stats.NewTable("Confinement checker on crafted leak programs",
		"program", "site", "kind", "register", "domain")
	for _, lp := range e30LeakPrograms {
		rep, err := capverify.VerifySource(lp.name+".s", lp.src, capverify.Config{})
		if err != nil {
			return "", fmt.Errorf("e30: %s: %v", lp.name, err)
		}
		if rep.HasFault() {
			return "", fmt.Errorf("e30: %s: leak program misflagged as faulting: %s",
				lp.name, rep.Faults()[0])
		}
		found := false
		for _, l := range rep.Leaks {
			if l.Line == lp.line && l.Kind == lp.kind && l.Reg == lp.reg && l.Dom == lp.dom {
				found = true
				conf.AddRow(lp.name, fmt.Sprintf("%s:%d", l.File, l.Line), l.Kind,
					fmt.Sprintf("r%d", l.Reg), l.Dom)
			}
		}
		if !found {
			return "", fmt.Errorf("e30: %s: expected %s leak of r%d from %q at line %d, got %v",
				lp.name, lp.kind, lp.reg, lp.dom, lp.line, rep.Leaks)
		}
	}

	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString("\n")
	b.WriteString(conf.String())
	b.WriteString("\nThe abstract store, affine relations and call contexts keep every\n" +
		"register-only proof and discharge the spill/reload and call-boundary\n" +
		"checks the baseline retains; every shipped program clears the 90%\n" +
		"gate and still halts cleanly. The confinement pass flags each crafted\n" +
		"escape at its exact store or crossing site with origin provenance.\n")
	return b.String(), nil
}

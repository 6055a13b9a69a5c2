package experiments

import (
	"fmt"
	"sort"

	"repro"
	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

func init() {
	register("E25",
		"Static verification — abstract interpretation discharges most dynamic capability checks before the program runs",
		runE25)
}

// e25Corpus gathers every shipped program (usemem.s linked against
// memlib.s, as it ships) and every fault-injection workload.
func e25Corpus() ([]repro.Program, error) {
	out, err := repro.Programs()
	if err != nil {
		return nil, fmt.Errorf("e25: %v", err)
	}
	workloads := faultinject.WorkloadSources()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		prog, err := asm.AssembleNamed(n+".s", workloads[n])
		if err != nil {
			return nil, fmt.Errorf("e25: workload %s: %v", n, err)
		}
		out = append(out, repro.Program{Name: "wl:" + n, Prog: prog})
	}
	return out, nil
}

// runE25 verifies the full program corpus and tabulates, per program,
// how many of the hardware's dynamic check sites the abstract
// interpretation proves safe (a trusting compiler could elide them),
// how many stay dynamic, and how many provably fault. The gates: no
// shipped program or campaign workload may provably fault, and fib.s —
// the paper's running example of pointer-walking code — must discharge
// at least half of its checks statically.
func runE25() (string, error) {
	corpus, err := e25Corpus()
	if err != nil {
		return "", err
	}
	tbl := stats.NewTable("Static discharge of guarded-pointer checks (per check site)",
		"program", "sites", "safe", "dynamic", "fault", "discharged")

	var fibRatio float64
	fibSeen := false
	for _, p := range corpus {
		rep := capverify.Verify(p.Prog, capverify.Config{})
		if rep.HasFault() {
			return "", fmt.Errorf("e25: %s provably faults: %s", p.Name, rep.Faults()[0])
		}
		if rep.Abyss {
			return "", fmt.Errorf("e25: %s: unbounded indirect jump (abyss)", p.Name)
		}
		if p.Name == "fib.s" {
			fibRatio, fibSeen = rep.DischargeRatio(), true
		}
		tbl.AddRow(p.Name, rep.Totals.Total(), rep.Totals.Safe, rep.Totals.Unknown,
			rep.Totals.Fault, fmt.Sprintf("%.0f%%", 100*rep.DischargeRatio()))
	}
	if !fibSeen {
		return "", fmt.Errorf("e25: fib.s missing from corpus")
	}
	if fibRatio < 0.5 {
		return "", fmt.Errorf("e25: fib.s discharge ratio %.2f, want >= 0.5", fibRatio)
	}

	var b []byte
	b = append(b, tbl.String()...)
	b = append(b, fmt.Sprintf("\nEvery program is verifiably free of provable capability faults;\n"+
		"check sites proven safe need no hardware check on that path. fib.s\n"+
		"discharges %.0f%% of its checks, against the >= 50%% gate.\n", 100*fibRatio)...)
	return string(b), nil
}

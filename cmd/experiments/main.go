// Command experiments regenerates the paper's figures and quantitative
// claims as printed tables (the per-experiment index lives in
// DESIGN.md; paper-vs-measured comparisons in EXPERIMENTS.md).
//
// Usage:
//
//	experiments                      # run every experiment
//	experiments -run E6              # run one experiment
//	experiments -list                # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runID := fs.String("run", "", "run a single experiment by id (e.g. E6)")
	list := fs.Bool("list", false, "list experiments and exit")
	workers := fs.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial); output is identical either way")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var selected []experiments.Experiment
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	case *runID != "":
		e, ok := experiments.Lookup(*runID)
		if !ok {
			fmt.Fprintf(stderr, "experiments: unknown id %q (try -list)\n", *runID)
			return 2
		}
		selected = []experiments.Experiment{e}
	default:
		selected = experiments.All()
	}

	outs, errs := experiments.RunList(selected, *workers)
	for i, e := range selected {
		out, err := outs[i], errs[i]
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "=== %s: %s ===\n%s", e.ID, e.Title, out)
		if len(selected) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

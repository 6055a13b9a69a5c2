package harness

import (
	"fmt"
	"path/filepath"

	"repro/bench/gen"
	"repro/internal/asm"
	"repro/internal/capverify"
)

// Workload is one named input set of the benchmark.
type Workload struct {
	Name string
	// build turns the generated programs into runnable jobs.
	build func(seed uint64, progs func([]gen.Program) ([]*loaded, error), storeDir string) ([]job, error)
}

// Workloads lists the benchmark's workloads in the order they are run
// and reported.
var Workloads = []Workload{
	// Interpreter dispatch, decode and guarded-pointer checks do the work;
	// jit, noc, persist and migrate do none.
	{
		Name: "interp-corpus",
		build: func(seed uint64, load func([]gen.Program) ([]*loaded, error), _ string) ([]job, error) {
			return corpusJobs(seed, load, false)
		},
	},
	// The same programs with the translator on: compilation, the block
	// executor and per-job JITRegister dominate.
	{
		Name: "jit-corpus",
		build: func(seed uint64, load func([]gen.Program) ([]*loaded, error), _ string) ([]job, error) {
			return corpusJobs(seed, load, true)
		},
	},
	// The paper's scenario: 8 domains interleaved per cycle, streaming
	// loads and stores past the cache and TLB reach.
	{
		Name: "domains-mem",
		build: func(seed uint64, load func([]gen.Program) ([]*loaded, error), _ string) ([]job, error) {
			var jobs []job
			for i, threads := range gen.Domains(seed) {
				ps, err := load(threads)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, &nodeJob{label: fmt.Sprintf("dm-%02d", i), progs: ps, withJIT: true})
			}
			return jobs, nil
		},
	},
	// 2x2x2 mesh with remote loads and stores: the cycle barrier, remote
	// service, noc delivery and the reliable transport dominate.
	{
		Name: "mesh8",
		build: func(seed uint64, load func([]gen.Program) ([]*loaded, error), _ string) ([]job, error) {
			var jobs []job
			for i, nodes := range gen.Mesh(seed) {
				progs := make([]gen.Program, len(nodes))
				for n := range nodes {
					progs[n] = nodes[n].Program
				}
				ps, err := load(progs)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, &meshJob{label: fmt.Sprintf("mesh-%02d", i), nodes: ps, targets: nodes, withJIT: true})
			}
			return jobs, nil
		},
	},
	// The only workload that writes checkpoints: incremental capture,
	// encode and commit, live migration and restore.
	{
		Name: "ckpt-migrate",
		build: func(seed uint64, load func([]gen.Program) ([]*loaded, error), storeDir string) ([]job, error) {
			var jobs []job
			for i, cj := range gen.Ckpt(seed) {
				ps, err := load([]gen.Program{cj.Program})
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, &ckptJob{label: cj.Name, prog: ps[0], migrateAt: cj.MigrateAt,
					storeDir: filepath.Join(storeDir, fmt.Sprintf("job%02d", i))})
			}
			return jobs, nil
		},
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func corpusJobs(seed uint64, load func([]gen.Program) ([]*loaded, error), withJIT bool) ([]job, error) {
	ps, err := load(gen.Corpus(seed))
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(ps))
	for i, p := range ps {
		jobs[i] = &nodeJob{label: p.Name, progs: []*loaded{p}, withJIT: withJIT}
	}
	return jobs, nil
}

// corpus is one workload after set-up.
type corpus struct {
	jobs  []job
	progs []*loaded // every program, in generation order
	// check sites over every program, and how many capverify proved safe
	sites, safeSites int
}

// prepare generates the workload's programs for seed, assembles and
// verifies every one, and builds the jobs. A program the verifier
// proves will fault is a set-up error: the generator is wrong.
func prepare(w Workload, seed uint64, tr *tracer, storeDir string) (*corpus, error) {
	c := &corpus{}
	load := func(gps []gen.Program) ([]*loaded, error) {
		out := make([]*loaded, len(gps))
		for i, gp := range gps {
			sp := tr.begin("asm.Assemble")
			prog, err := asm.AssembleNamed(gp.Name, gp.Source)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("assemble %s: %w", gp.Name, err)
			}
			sp = tr.begin("capverify.Verify")
			rep := capverify.Verify(prog, capverify.Config{DataBytes: gp.DataBytes})
			tr.end(sp)
			if rep.HasFault() {
				return nil, fmt.Errorf("verify %s: %v", gp.Name, rep.Faults()[0])
			}
			c.sites += rep.Totals.Total()
			c.safeSites += rep.Totals.Safe
			out[i] = &loaded{Program: gp, prog: prog}
		}
		c.progs = append(c.progs, out...)
		return out, nil
	}
	jobs, err := w.build(seed, load, storeDir)
	if err != nil {
		return nil, err
	}
	c.jobs = jobs
	return c, nil
}

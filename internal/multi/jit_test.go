package multi

import "testing"

// TestJITMatchesInterpreter: enabling the translator on the
// multicomputer must leave the entire fingerprint — cycles, machine,
// cache, TLB and network counters, registers, memory — bit-identical
// to the interpreter. The trip count crosses the translator's compile
// threshold; the mesh steps each node one cycle at a time, and a Step
// is one cycle on either tier, so the cycle schedule is untouched.
func TestJITMatchesInterpreter(t *testing.T) {
	_, base, baseMem := runCrossNode(t, crossNodeCase{name: "interp", trips: 200})
	x, got, gotMem := runCrossNode(t, crossNodeCase{name: "jit", trips: 200, jit: true})
	if d := diff(base, got); d != "" {
		t.Errorf("jit diverges from the interpreter: %s", d)
	}
	if baseMem != gotMem {
		t.Errorf("memory diverges:\nbase:\n%sgot:\n%s", baseMem, gotMem)
	}
	for i, nd := range x.s.Nodes {
		if c := nd.K.M.JIT().Counters; c.Compiled == 0 || c.Entries == 0 {
			t.Fatalf("node %d: translator never engaged: %+v", i, c)
		}
	}
}

// TestJITSurvivesMigrateAndRecover: a node replaced by a live migration,
// and every node rebuilt by auto-recovery, keeps its translator
// registrations, so each compiles and enters blocks again on its new
// engine, and the run stays bit-identical to the interpreter's run of
// the same case.
func TestJITSurvivesMigrateAndRecover(t *testing.T) {
	for _, c := range []crossNodeCase{
		{name: "migrate", trips: 400, migrateAt: 1500},
		{name: "recover", trips: 400, killAt: 2500},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, base, baseMem := runCrossNode(t, c)
			c.jit = true
			x, got, gotMem := runCrossNode(t, c)
			if d := diff(base, got); d != "" {
				t.Errorf("jit diverges from the interpreter: %s", d)
			}
			if baseMem != gotMem {
				t.Errorf("memory diverges:\nbase:\n%sgot:\n%s", baseMem, gotMem)
			}
			s := x.s
			nodes := s.Nodes
			if c.migrateAt != 0 {
				if rep := s.MigrateReport(); rep == nil || !rep.Committed {
					t.Fatalf("migration did not commit: %+v", rep)
				}
				nodes = nodes[:1]
			} else if s.Restores() == 0 {
				t.Fatal("no restore performed")
			}
			// Each engine is the one its node got at the cutover or the
			// restore, so its counters count only what came after.
			for i, nd := range nodes {
				e := nd.K.M.JIT()
				if e.Regions() != 1 || e.Counters.Compiled == 0 || e.Counters.Entries == 0 {
					t.Errorf("node %d: %d regions, %+v after the cutover", i, e.Regions(), e.Counters)
				}
			}
		})
	}
}

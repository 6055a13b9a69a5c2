package multi

import "testing"

// TestJITMatchesInterpreter: enabling the translator on the
// multicomputer must leave the entire fingerprint — cycles, machine,
// cache, TLB and network counters, registers, memory — bit-identical
// to the interpreter. The trip count crosses the translator's compile
// threshold; nodes run compiled blocks in paced mode, one step per
// cycle, so the cycle schedule is untouched.
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

package telemetry

import (
	"testing"
	"time"
)

// TestSnapshotSamplerMayUseRegistry is the regression test for the
// Snapshot deadlock: samplers used to run under the registry mutex, so
// any sampler that touched the registry — registering a lazy metric,
// taking a nested snapshot — deadlocked the scrape. Samplers now run
// on a copied table outside the lock.
func TestSnapshotSamplerMayUseRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register("self.names", func() float64 { return float64(len(reg.Names())) })
	var nesting bool
	reg.Register("self.nested", func() float64 {
		// A nested snapshot re-enters the registry completely (guarded
		// so the sampler does not recurse into itself forever).
		if nesting {
			return 0
		}
		nesting = true
		defer func() { nesting = false }()
		return reg.Snapshot().Get("self.names")
	})
	reg.Register("self.lazy", func() float64 {
		reg.Counter("self.registered_late", func() uint64 { return 1 })
		return 1
	})

	done := make(chan Snapshot, 1)
	go func() { done <- reg.Snapshot() }()
	select {
	case s := <-done:
		// 3 samplers, plus one more if self.lazy happened to run first
		// (sampler order follows map iteration).
		if n := s.Get("self.names"); n != 3 && n != 4 {
			t.Errorf("self.names = %v, want 3 or 4", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked with a registry-touching sampler")
	}
	if reg.Snapshot().Get("self.registered_late") != 1 {
		t.Error("lazily registered metric missing from later snapshot")
	}
}

func TestRegistrySubPrefixesNames(t *testing.T) {
	reg := NewRegistry()
	for id := 0; id < 3; id++ {
		id := id
		sub := reg.Sub("node." + string(rune('0'+id)) + ".")
		sub.Counter("machine.cycles", func() uint64 { return uint64(100 + id) })
	}
	s := reg.Snapshot()
	for id := 0; id < 3; id++ {
		name := "node." + string(rune('0'+id)) + ".machine.cycles"
		if s.Get(name) != float64(100+id) {
			t.Errorf("%s = %v, want %d", name, s.Get(name), 100+id)
		}
	}
	// Nested subs compose prefixes.
	reg.Sub("a.").Sub("b.").Counter("x", func() uint64 { return 7 })
	if reg.Snapshot().Get("a.b.x") != 7 {
		t.Errorf("nested sub: %v", reg.Snapshot())
	}
}

func TestRegisterHistogramDerivedGauges(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram()
	reg.RegisterHistogram("machine.hist.remote_rt", h)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := reg.Snapshot()
	if got := s.Get("machine.hist.remote_rt.count"); got != 100 {
		t.Errorf("count = %v", got)
	}
	if got := s.Get("machine.hist.remote_rt.sum"); got != 5050 {
		t.Errorf("sum = %v", got)
	}
	if got := s.Get("machine.hist.remote_rt.mean"); got != 50.5 {
		t.Errorf("mean = %v", got)
	}
	if got := s.Get("machine.hist.remote_rt.max"); got != 100 {
		t.Errorf("max = %v", got)
	}
	// p50 of 1..100 lands in the bucket covering 50 → upper edge 63.
	if got := s.Get("machine.hist.remote_rt.p50"); got != 63 {
		t.Errorf("p50 = %v, want 63", got)
	}
	// p99 lands in the bucket [64,127], whose edge is clamped to the
	// largest observation.
	if got := s.Get("machine.hist.remote_rt.p99"); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
	if hs := reg.Histograms(); hs["machine.hist.remote_rt"] != h {
		t.Error("Histograms() does not return the registered histogram")
	}
}

func TestRegisterHistogramUnderSub(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram()
	reg.Sub("node.5.").RegisterHistogram("noc.hist.retransmit", h)
	h.Observe(8)
	if got := reg.Snapshot().Get("node.5.noc.hist.retransmit.count"); got != 1 {
		t.Errorf("prefixed histogram count = %v", got)
	}
	if _, ok := reg.Histograms()["node.5.noc.hist.retransmit"]; !ok {
		t.Errorf("prefixed histogram missing from Histograms(): %v", reg.Histograms())
	}
}

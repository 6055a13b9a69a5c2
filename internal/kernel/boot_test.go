package kernel

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// bootBytes returns the bytes the Go heap allocates for one call of
// boot, after a warm-up call.
func bootBytes(boot func()) uint64 {
	boot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	boot()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Booting allocates what the kernel touches, not the machine's 8 MB of
// physical memory: pages appear on first write.
func TestBootAllocatesLittle(t *testing.T) {
	n := bootBytes(func() {
		if _, err := New(machine.MMachine()); err != nil {
			t.Fatal(err)
		}
	})
	if n >= 512<<10 {
		t.Errorf("kernel.New(MMachine()) allocates %d bytes, want under 512 KB", n)
	}
}

// The page table grows with the pages mapped: a first segment costs its
// pages and their entries, not a table sized by the address space.
func TestFirstSegmentAllocatesLittle(t *testing.T) {
	n := bootBytes(func() {
		k, err := New(machine.MMachine())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.AllocSegment(4096); err != nil {
			t.Fatal(err)
		}
	})
	if n >= 512<<10 {
		t.Errorf("kernel.New(MMachine()) plus AllocSegment(4096) allocates %d bytes, want under 512 KB", n)
	}
}

// BenchmarkNew boots the default single-node kernel, the setup every
// single-node job pays before its first instruction.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(machine.MMachine()); err != nil {
			b.Fatal(err)
		}
	}
}

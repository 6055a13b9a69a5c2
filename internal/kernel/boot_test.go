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
	if n >= 1<<20 {
		t.Errorf("kernel.New(MMachine()) allocates %d bytes, want under 1 MB", n)
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

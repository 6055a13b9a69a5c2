package cache

import (
	"testing"

	"repro/internal/vm"
	"repro/internal/word"
)

// BenchmarkReadWord times one load in a cache-hit stream: a word per
// cycle over a 2 KB window, the sweep of machine's BenchmarkRun, which
// the default 128 KB cache keeps resident after one pass. Every
// simulated load pays it, so it must not allocate, and it fails if the
// stream misses.
func BenchmarkReadWord(b *testing.B) {
	const base, span = 0x10000, 2048
	s, err := vm.NewSpace(1<<22, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.EnsureMapped(base, span); err != nil {
		b.Fatal(err)
	}
	c, err := New(s, MMachine())
	if err != nil {
		b.Fatal(err)
	}
	var now uint64
	read := func(vaddr uint64) {
		if _, _, err := c.ReadWord(vaddr, now); err != nil {
			b.Fatal(err)
		}
		now++
	}
	for a := uint64(0); a < span; a += word.BytesPerWord {
		read(base + a)
	}
	if a := testing.AllocsPerRun(100, func() { read(base) }); a != 0 {
		b.Fatalf("ReadWord allocates %v times per call, want 0", a)
	}
	misses := c.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	var a uint64
	for i := 0; i < b.N; i++ {
		read(base + a)
		a = (a + word.BytesPerWord) % span
	}
	b.StopTimer()
	if n := c.Stats().Misses - misses; n != 0 {
		b.Fatalf("%d misses in a hit stream", n)
	}
}

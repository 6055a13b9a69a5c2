package vm

import (
	"testing"

	"repro/internal/word"
)

// BenchmarkTranslate times one translation in a TLB-hit stream, as an
// instruction fetch sees it: consecutive words of a four-page code
// region that the TLB and its micro-cache keep resident. The
// interpreter and every compiled step translate each fetch address, so
// it must not allocate, and it fails if the stream misses.
func BenchmarkTranslate(b *testing.B) {
	const base, span = 0x10000, 4 * PageSize
	s, err := NewSpace(1<<22, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.EnsureMapped(base, span); err != nil {
		b.Fatal(err)
	}
	for a := uint64(0); a < span; a += word.BytesPerWord {
		if _, _, err := s.Translate(base + a); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _, _ = s.Translate(base) }); a != 0 {
		b.Fatalf("Translate allocates %v times per call, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var a uint64
	for i := 0; i < b.N; i++ {
		if _, hit, err := s.Translate(base + a); err != nil || !hit {
			b.Fatalf("translating %#x: hit %v, err %v", base+a, hit, err)
		}
		a = (a + word.BytesPerWord) % span
	}
}

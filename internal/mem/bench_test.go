package mem

import (
	"testing"

	"repro/internal/word"
)

// BenchmarkReadWriteWord streams a read and a write of one word per op
// over 64 resident 4 KB pages, striding 520 bytes so that most ops land
// on a new page: every simulated load and store goes through ReadWord
// or WriteWord. It must not allocate. It uses only New, ReadWord and
// WriteWord, so the same file can be run on an older tree to compare.
func BenchmarkReadWriteWord(b *testing.B) {
	const span = 64 * 4096
	m := New(span)
	for a := uint64(0); a < span; a += word.BytesPerWord {
		if err := m.WriteWord(a, word.FromInt(int64(a)+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var a uint64
	for i := 0; i < b.N; i++ {
		w, err := m.ReadWord(a)
		if err != nil {
			b.Fatal(err)
		}
		w.Bits++
		if err := m.WriteWord(a, w); err != nil {
			b.Fatal(err)
		}
		a = (a + 520) % span
	}
}

package core

import "testing"

// The hot entry points of the guarded-pointer datapath (Fig. 1 and
// Fig. 2): the combinational paths a real MAP implements in hardware
// and that every simulated load, store and LEA goes through. Each row
// that a correct program hits on every access must not allocate.

// sink keeps the compiler from discarding a benchmarked call's result.
var sink Pointer

// requireNoAllocs fails the benchmark if f allocates, then starts the
// benchmark's clock and allocation count afresh.
func requireNoAllocs(b *testing.B, f func()) {
	b.Helper()
	if a := testing.AllocsPerRun(100, f); a != 0 {
		b.Fatalf("allocates %v times per call, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
}

func BenchmarkDecode(b *testing.B) {
	w := mustMake(PermReadWrite, 12, 0x5a5a5a0).Word()
	requireNoAllocs(b, func() { _, _ = Decode(w) })
	for i := 0; i < b.N; i++ {
		p, err := Decode(w)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

func BenchmarkCheckLoad(b *testing.B) {
	w := mustMake(PermReadWrite, 12, 0x5a5a000).Word()
	requireNoAllocs(b, func() { _, _ = CheckLoad(w, 8) })
	for i := 0; i < b.N; i++ {
		p, err := CheckLoad(w, 8)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

// leaRecompute is the conventional alternative to Fig. 2's masked
// comparator: recompute segment base and limit, then range-check. Same
// semantics, more datapath work — the recompute-bounds row quantifies
// the hardware argument for the comparator.
func leaRecompute(p Pointer, off int64) (Pointer, bool) {
	base := p.Base()
	limit := base + p.SegSize()
	na := p.Addr() + uint64(off)
	if na < base || na >= limit {
		return Pointer{}, false
	}
	q, err := LEA(p, off) // reuse the committed path for the result
	return q, err == nil
}

// BenchmarkLEA times the committed masked-comparator LEA and, as an
// ablation, the same offsets through leaRecompute.
func BenchmarkLEA(b *testing.B) {
	p := mustMake(PermReadWrite, 20, 1<<30)
	b.Run("masked-comparator", func(b *testing.B) {
		requireNoAllocs(b, func() { _, _ = LEA(p, 0x1234) })
		for i := 0; i < b.N; i++ {
			q, err := LEA(p, int64(i&0xffff))
			if err != nil {
				b.Fatal(err)
			}
			sink = q
		}
	})
	b.Run("recompute-bounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q, ok := leaRecompute(p, int64(i&0xffff))
			if !ok {
				b.Fatal("unexpected bounds failure")
			}
			sink = q
		}
	})
}

// BenchmarkLEAFaultPath times an LEA that leaves its segment: the
// fault a program provokes, not one it hits on every access.
func BenchmarkLEAFaultPath(b *testing.B) {
	p := mustMake(PermReadWrite, 6, 0x1000)
	for i := 0; i < b.N; i++ {
		if _, err := LEA(p, 1<<20); err == nil {
			b.Fatal("expected fault")
		}
	}
}

func BenchmarkRestrict(b *testing.B) {
	p := mustMake(PermReadWrite, 12, 0x4000)
	requireNoAllocs(b, func() { _, _ = Restrict(p, PermReadOnly) })
	for i := 0; i < b.N; i++ {
		q, err := Restrict(p, PermReadOnly)
		if err != nil {
			b.Fatal(err)
		}
		sink = q
	}
}

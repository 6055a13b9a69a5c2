package noc

import "testing"

// BenchmarkSend times one message across the default 2×2×2 mesh: route,
// link reservations and arrival cycle. Every remote load and store
// pays it, so it must not allocate.
func BenchmarkSend(b *testing.B) {
	n, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	if a := testing.AllocsPerRun(100, func() { now, _ = n.Send(0, 7, now) }); a != 0 {
		b.Fatalf("Send allocates %v times per call, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, err := n.Send(i%8, (i+3)%8, now)
		if err != nil {
			b.Fatal(err)
		}
		now = arr
	}
}

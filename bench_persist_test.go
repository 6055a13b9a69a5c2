// Benchmarks for the incremental checkpoint pipeline (E28's wall-time
// twin, docs/ROBUSTNESS.md): a full gob image versus a dirty-page delta
// in the durable on-disk encoding, at 1% / 10% / 50% of a dense
// 200-page footprint dirty per capture. The acceptance target is the
// delta at 10% dirty beating the full image by >= 5x in both bytes
// (gated deterministically by E28) and ns/op.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/persist"
	"repro/internal/vm"
	"repro/internal/word"
)

const persistBenchPages = 200

// persistBenchKernel boots a kernel holding persistBenchPages resident
// pages of dense data (every word non-zero, so gob cannot shrink the
// full image by omitting zero fields).
func persistBenchKernel(b *testing.B) (*kernel.Kernel, uint64) {
	b.Helper()
	cfg := machine.MMachine()
	cfg.PhysBytes = 8 << 20
	k, err := kernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := k.AllocSegment(persistBenchPages * vm.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	base := seg.Addr()
	for p := 0; p < persistBenchPages; p++ {
		for w := 0; w < vm.PageSize/8; w++ {
			off := uint64(p)*vm.PageSize + uint64(w)*8
			if err := k.M.Space.WriteWord(base+off, word.FromInt(int64(off*2654435761+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return k, base
}

// dirtyPages touches n distinct pages, salted by round so consecutive
// captures write different values.
func dirtyPages(b *testing.B, k *kernel.Kernel, base uint64, n, round int) {
	b.Helper()
	stride := persistBenchPages / n
	for i := 0; i < n; i++ {
		addr := base + uint64(i*stride)*vm.PageSize
		if err := k.M.Space.WriteWord(addr, word.FromInt(int64(round*persistBenchPages+i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPersist_FullGob(b *testing.B) {
	for _, pct := range []int{1, 10, 50} {
		b.Run(pctName(pct), func(b *testing.B) {
			k, base := persistBenchKernel(b)
			n := persistBenchPages * pct / 100
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			var lastLen int
			for i := 0; i < b.N; i++ {
				dirtyPages(b, k, base, n, i)
				cp, err := k.Checkpoint()
				if err != nil {
					b.Fatal(err)
				}
				buf.Reset()
				if err := cp.Encode(&buf); err != nil {
					b.Fatal(err)
				}
				lastLen = buf.Len()
			}
			b.ReportMetric(float64(lastLen), "bytes/image")
		})
	}
}

func BenchmarkPersist_Delta(b *testing.B) {
	for _, pct := range []int{1, 10, 50} {
		b.Run(pctName(pct), func(b *testing.B) {
			k, base := persistBenchKernel(b)
			n := persistBenchPages * pct / 100
			_, st, err := k.CheckpointIncremental(nil) // arm the chain
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			var lastLen int
			for i := 0; i < b.N; i++ {
				dirtyPages(b, k, base, n, i)
				cp, nst, err := k.CheckpointIncremental(st)
				if err != nil {
					b.Fatal(err)
				}
				st = nst
				buf.Reset()
				hdr := persist.Header{Gen: uint64(i) + 2, Parent: uint64(i) + 1, Delta: true}
				if err := persist.Encode(&buf, hdr, cp); err != nil {
					b.Fatal(err)
				}
				lastLen = buf.Len()
			}
			b.ReportMetric(float64(lastLen), "bytes/image")
		})
	}
}

func pctName(pct int) string {
	switch pct {
	case 1:
		return "dirty1pct"
	case 10:
		return "dirty10pct"
	case 50:
		return "dirty50pct"
	}
	return "dirty?"
}

// Benchmark for the live-migration pipeline (E29's wall-time twin,
// docs/ROBUSTNESS.md): a full iterative pre-copy migration of the same
// dense 200-page footprint the persist benchmarks use, at 1% / 10% /
// 50% of the pages dirtied per pre-copy round. The wire codec alone is
// BenchmarkFrameCodec in internal/migrate. The acceptance target is
// the stop-the-world window at <= 10% dirty beating the full-image wire
// time by >= 5x (gated deterministically by E29); the stw-cycles /
// fullwire-cycles metrics here are the same quantities with wall time
// alongside.
package repro

import (
	"testing"

	"repro/internal/migrate"
)

func BenchmarkMigrate_PreCopy(b *testing.B) {
	for _, pct := range []int{1, 10, 50} {
		b.Run(pctName(pct), func(b *testing.B) {
			k, base := persistBenchKernel(b)
			n := persistBenchPages * pct / 100
			round := 0
			var last *migrate.Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recv := migrate.NewReceiver()
				link := migrate.NewLink(migrate.LinkConfig{
					LatencyCycles: 16, BytesPerCycle: 64, RetransmitTimeout: 64,
				})
				link.Deliver = recv.Deliver
				step := func(uint64) {
					round++
					dirtyPages(b, k, base, n, round)
				}
				rep, err := migrate.Run(k, link, recv, step, migrate.Config{
					RoundBudget: 6, ConvergePages: persistBenchPages / 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Committed {
					b.Fatalf("migration did not commit: %s", rep.Reason)
				}
				last = rep
			}
			b.ReportMetric(float64(last.STWCycles), "stw-cycles")
			b.ReportMetric(float64(last.Rounds[0].WireCycles), "fullwire-cycles")
			b.ReportMetric(float64(len(last.Rounds)), "rounds")
		})
	}
}

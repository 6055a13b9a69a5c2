package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// HistBuckets is the fixed bucket count of a Histogram: bucket b holds
// observations v with bits.Len64(v) == b, i.e. bucket 0 is exactly
// {0}, bucket b ≥ 1 is [2^(b-1), 2^b). 65 buckets cover the full
// uint64 range, so Observe never range-checks.
const HistBuckets = 65

// Histogram is a fixed-bucket log2 latency histogram. Observe is
// allocation-free and wait-free (three uncontended atomic adds), so
// rare-event paths — a domain switch, a remote round trip, a TLB
// refill, a transport retransmit — can record into it while a metrics
// server scrapes concurrently. The log2 buckets trade fine resolution
// for zero configuration: cycle-latency distributions in this simulator
// span five orders of magnitude, and the paper's claims are about the
// shape of the tail, which powers of two resolve.
//
// The zero value is ready to use. All methods are safe for concurrent
// use; readers see each observation's count/sum/bucket effects settle
// independently, which for monotone counters only ever under-reports a
// scrape taken mid-observation by one sample.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps an observation to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper returns the inclusive upper edge of bucket b (the value
// reported for quantiles resolved to that bucket).
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket returns the count in bucket b.
func (h *Histogram) Bucket(b int) uint64 {
	if b < 0 || b >= HistBuckets {
		return 0
	}
	return h.buckets[b].Load()
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the first bucket at which the cumulative count reaches
// q·Count, clamped to Max so it never exceeds an observed value.
// Returns 0 when the histogram is empty. The bound is exact to within
// the bucket's factor-of-two width, which is the resolution the log2
// layout buys.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// ceil(q·total) without float rounding surprises at the edges.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	var cum uint64
	for b := 0; b < HistBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= rank {
			return min(BucketUpper(b), h.max.Load())
		}
	}
	return h.max.Load()
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observe calls; callers quiesce writers first (experiment harness use).
func (h *Histogram) Reset() {
	for b := range h.buckets {
		h.buckets[b].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Summary renders a one-line "count=… mean=… p50=… p95=… p99=… max=…"
// digest, the text face of the derived gauges RegisterHistogram exports.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("count=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// String renders the populated buckets as "[lo,hi] count" lines with a
// proportional bar, for quick terminal inspection.
func (h *Histogram) String() string {
	total := h.Count()
	if total == 0 {
		return "(empty)\n"
	}
	var peak uint64
	for b := 0; b < HistBuckets; b++ {
		if n := h.Bucket(b); n > peak {
			peak = n
		}
	}
	var sb strings.Builder
	for b := 0; b < HistBuckets; b++ {
		n := h.Bucket(b)
		if n == 0 {
			continue
		}
		lo := uint64(0)
		if b > 0 {
			lo = BucketUpper(b-1) + 1
		}
		bar := strings.Repeat("#", int(1+n*39/peak))
		fmt.Fprintf(&sb, "[%12d,%12d] %10d %s\n", lo, BucketUpper(b), n, bar)
	}
	return sb.String()
}

package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	if got := h.Bucket(0); got != 1 {
		t.Errorf("bucket 0 = %d, want 1 (exactly zero)", got)
	}
	if got := h.Bucket(1); got != 1 {
		t.Errorf("bucket 1 = %d, want 1 ({1})", got)
	}
	if got := h.Bucket(2); got != 2 {
		t.Errorf("bucket 2 = %d, want 2 ([2,3])", got)
	}
	if got := h.Bucket(3); got != 1 {
		t.Errorf("bucket 3 = %d, want 1 ([4,7])", got)
	}
	if h.Count() != 5 || h.Sum() != 10 || h.Max() != 4 {
		t.Errorf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(^uint64(0)) // must not panic or misindex
	if got := h.Bucket(64); got != 1 {
		t.Errorf("top bucket = %d, want 1", got)
	}
	if h.Max() != ^uint64(0) {
		t.Errorf("max = %d", h.Max())
	}
	if q := h.Quantile(1); q != ^uint64(0) {
		t.Errorf("q1 = %d", q)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 90 fast observations, 10 slow ones: the p95 must land in the
	// slow bucket — exactly the tail the scalar mean hides.
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket [8,15]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket [512,1023]
	}
	if q := h.Quantile(0.50); q != 15 {
		t.Errorf("p50 = %d, want 15", q)
	}
	// The slow bucket's upper edge is 1023, but nothing above 1000 was
	// observed: the bound is clamped to Max.
	if q := h.Quantile(0.95); q != 1000 {
		t.Errorf("p95 = %d, want 1000", q)
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000", q)
	}
}

// TestHistogramQuantileNeverExceedsMax: a quantile is the upper edge of
// a bucket, clamped to the largest observed value, so it lies between
// the exact quantile and Max. Round trips of 8–27 cycles, as E26's
// remote loads see, fill [8,15] and [16,31]; the median is in [16,31]
// and must read 27, not the edge 31.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 800; i++ {
		h.Observe(uint64(8 + i%20))
	}
	if q := h.Quantile(0.5); q != 27 {
		t.Errorf("p50 = %d, want 27 (the max)", q)
	}

	h = NewHistogram()
	var seen []uint64
	x := uint64(1)
	for n := 1; n <= 300; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x >> (x % 64) // magnitudes from 0 up to 2^64-1
		h.Observe(v)
		seen = append(seen, v)
		sorted := append([]uint64(nil), seen...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.95, 0.99, 1} {
			exact := sorted[int(math.Ceil(q*float64(n)))-1]
			if got := h.Quantile(q); got > h.Max() || got < exact {
				t.Fatalf("n=%d q=%v: Quantile %d outside [exact %d, max %d]", n, q, got, exact, h.Max())
			}
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Bucket(3) != 0 {
		t.Errorf("reset left state: %s", h.Summary())
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	if !strings.Contains(h.String(), "empty") {
		t.Errorf("empty render = %q", h.String())
	}
	h.Observe(3)
	h.Observe(100)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Errorf("render has no bars: %q", s)
	}
	sum := h.Summary()
	for _, want := range []string{"count=2", "p50=", "p95=", "max=100"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}

// TestHistogramConcurrent drives observers against readers under the
// race detector: the scrape path (Count, Quantile, Bucket) must be
// safe while the hot path records.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Observe(uint64(g*1000 + i))
			}
		}(g)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Mean()
				_ = h.Summary()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if h.Count() != 40000 {
		t.Errorf("count = %d, want 40000", h.Count())
	}
}

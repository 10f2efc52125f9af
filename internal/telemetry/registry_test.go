package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer drives many goroutines through every
// metric kind concurrently; run with -race. Totals must be exact because
// counters/histograms never drop updates.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	var wg sync.WaitGroup
	routes := []string{"/a", "/b", "/c"}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Vecs are intentionally re-looked-up inside the loop to
			// exercise the get-or-create paths concurrently.
			for i := 0; i < iters; i++ {
				route := routes[(g+i)%len(routes)]
				reg.Counter("hammer_requests_total", "h", "route").With(route).Inc()
				reg.Gauge("hammer_in_flight", "h").With().Add(1)
				reg.Gauge("hammer_in_flight", "h").With().Add(-1)
				reg.Histogram("hammer_latency_seconds", "h", nil, "route").
					With(route).Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	// Concurrent scrapers.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reg.Gather()
			}
		}()
	}
	wg.Wait()

	var totalC float64
	var totalH uint64
	for _, route := range routes {
		totalC += reg.Counter("hammer_requests_total", "h", "route").With(route).Value()
		totalH += reg.Histogram("hammer_latency_seconds", "h", nil, "route").With(route).Count()
	}
	if want := float64(goroutines * iters); totalC != want {
		t.Errorf("counter total = %v, want %v", totalC, want)
	}
	if want := uint64(goroutines * iters); totalH != want {
		t.Errorf("histogram total = %d, want %d", totalH, want)
	}
	if got := reg.Gauge("hammer_in_flight", "h").With().Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %v, want 5", got)
	}
}

func TestFamilyShapeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shape_total", "h", "route")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	reg.Gauge("shape_total", "h", "route")
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{0.1, 0.2, 0.5, 1})
	// 100 observations uniform in (0, 0.1]: p50 should interpolate to
	// ~0.05 inside the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-0.05) > 0.001 {
		t.Errorf("p50 = %v, want ~0.05", p50)
	}
	// Add 100 observations in (0.2, 0.5]: p99 lands in that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.3)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.2 || p99 > 0.5 {
		t.Errorf("p99 = %v, want in (0.2, 0.5]", p99)
	}
	// Overflow observations clamp to the last finite bound.
	for i := 0; i < 1000; i++ {
		h.Observe(5)
	}
	if p99 := h.Quantile(0.99); p99 != 1 {
		t.Errorf("overflow p99 = %v, want clamp to 1", p99)
	}
	if h.Count() != 1200 {
		t.Errorf("Count = %d, want 1200", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-(100*0.05+100*0.3+1000*5)) > 1e-6 {
		t.Errorf("Sum = %v", sum)
	}
}

func TestEmptyHistogramQuantile(t *testing.T) {
	h := newHistogram(DefLatencyBuckets)
	if q := h.Quantile(0.95); q != 0 {
		t.Errorf("empty p95 = %v, want 0", q)
	}
}

func TestGatherSortsFamiliesAndSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "last").With().Inc()
	reg.Counter("aa_total", "first", "k").With("b").Inc()
	reg.Counter("aa_total", "first", "k").With("a").Inc()
	fams := reg.Gather()
	if len(fams) != 2 || fams[0].Name != "aa_total" || fams[1].Name != "zz_total" {
		t.Fatalf("family order wrong: %+v", fams)
	}
	if fams[0].Series[0].Labels[0].Value != "a" || fams[0].Series[1].Labels[0].Value != "b" {
		t.Errorf("series order wrong: %+v", fams[0].Series)
	}
}

package telemetry

import (
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value; values beyond the last bound
// land in the implicit +Inf overflow slot.
type Histogram struct {
	bounds []float64       // sorted upper bounds, without +Inf
	counts []atomic.Uint64 // len(bounds)+1, last slot is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count is the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum is the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot copies the per-bucket counts (non-cumulative), sum, and count.
// The reads are individually atomic, not a consistent cut — fine for
// monitoring.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.Load(), h.count.Load()
}

// Quantile estimates the q-quantile (e.g. 0.5, 0.95, 0.99) from the
// bucket counts by linear interpolation inside the owning bucket.
func (h *Histogram) Quantile(q float64) float64 {
	counts, _, count := h.snapshot()
	return bucketQuantile(q, h.bounds, counts, count)
}

// bucketQuantile is the shared estimator over a (bounds, per-bucket
// counts) snapshot. Values in the +Inf overflow bucket clamp to the last
// finite bound; the first bucket interpolates from 0 (latencies are
// non-negative).
func bucketQuantile(q float64, bounds []float64, counts []uint64, total uint64) float64 {
	if total == 0 || len(counts) == 0 || q <= 0 || q >= 1 {
		if q >= 1 && total > 0 && len(bounds) > 0 {
			return bounds[len(bounds)-1]
		}
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		inBucket := float64(c)
		if inBucket == 0 {
			return hi
		}
		below := cum - inBucket
		return lo + (hi-lo)*((rank-below)/inBucket)
	}
	return bounds[len(bounds)-1]
}

package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of an ascending slice by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns v ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// run-to-run spread is written against. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// sample is one completed request or operation as the client saw it.
type sample struct {
	end   time.Duration // completion time since the driver started
	lat   time.Duration
	cpu   time.Duration // process CPU time at completion; operations only
	class uint8
	ok    bool
	trace string // X-Trace-Id of a single request; "" on a composite operation
}

// Request classes. clsOp is the workload's one gated class (N1: a
// latency metric never straddles two classes); the others are reported
// per layer only.
const (
	clsOp uint8 = iota
	clsSHAP
	clsLIME
	clsPromote
	numClasses
)

// window is the reduction of one measured interval.
type window struct {
	attempted int // operations (clsOp + clsPromote) that completed inside
	failed    int
	// per-slice values over clsOp successes: operations per second,
	// median latency (ms) and process CPU per operation (ms)
	sliceRPS []float64
	sliceP50 []float64
	sliceCPU []float64
	// whole-window latencies (ms, ascending) of successes, by class
	lat [numClasses][]float64
	// clsOp successes at or under the workload's latency limit, as a
	// share of clsOp attempts (a failure misses the limit)
	withinLimit float64
	ops         int // clsOp successes
}

const (
	// numSlices is how many runs of consecutive completions a window is
	// cut into (N3). Slices hold equal counts, not equal times, so a
	// slice's throughput is a count over a measured span and is not
	// quantised to one operation per slice length on slow workloads.
	numSlices = 40
	// quietShare picks the gated value out of the slices: the best tenth
	// is dropped and the next slice is reported. A neighbour on the
	// shared host only ever slows a slice down, for seconds at a time, so
	// the quiet end of a run repeats where its middle does not.
	quietShare = 0.1
)

// quiet is the gated reduction of per-slice values: the value that
// quietShare of the slices beat. higher says which end is the better
// one; 0 for no slices.
func quiet(v []float64, higher bool) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	k := int(quietShare * float64(len(s))) // slices better than the one reported
	if higher {
		return s[len(s)-1-k]
	}
	return s[k]
}

// reduce reduces the samples of l that completed inside its window.
// Samples outside (warm-up, and whatever was in flight at the end) are
// dropped. The clsOp successes, in completion order, are cut into
// numSlices equal runs; a slice spans from the last completion of the
// slice before it (the window's opening for the first) to its own last.
func reduce(l load, limit time.Duration) window {
	var w window
	var ops []sample
	var opAttempts, within int
	for _, s := range l.samples {
		if s.end <= l.from || s.end >= l.from+l.length {
			continue
		}
		if s.class == clsOp || s.class == clsPromote {
			w.attempted++
			if !s.ok {
				w.failed++
			}
		}
		if s.class == clsOp {
			opAttempts++
		}
		if !s.ok {
			continue
		}
		w.lat[s.class] = append(w.lat[s.class], ms(s.lat))
		if s.class == clsOp {
			ops = append(ops, s)
			if s.lat <= limit {
				within++
			}
		}
	}
	for c := range w.lat {
		sort.Float64s(w.lat[c])
	}
	w.ops = len(ops)
	if opAttempts > 0 {
		w.withinLimit = float64(within) / float64(opAttempts)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	n := min(numSlices, len(ops))
	prevEnd, prevCPU := l.from, l.cpu0
	for i := 0; i < n; i++ {
		part := ops[i*len(ops)/n : (i+1)*len(ops)/n]
		lats := make([]float64, len(part))
		for k, s := range part {
			lats[k] = ms(s.lat)
		}
		last, count := part[len(part)-1], float64(len(part))
		w.sliceRPS = append(w.sliceRPS, count/max(last.end-prevEnd, time.Nanosecond).Seconds())
		w.sliceP50 = append(w.sliceP50, median(lats))
		w.sliceCPU = append(w.sliceCPU, ms(last.cpu-prevCPU)/count)
		prevEnd, prevCPU = last.end, last.cpu
	}
	return w
}

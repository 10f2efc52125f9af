package mat

import (
	"fmt"
	"math"
)

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dist2 length mismatch: %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element of x (first on ties).
// It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mat: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Softmax writes the softmax of logits into dst (allocating when dst is
// nil) using the max-subtraction trick for numerical stability.
func Softmax(logits, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(logits))
	} else if len(dst) != len(logits) {
		panic(fmt.Sprintf("mat: Softmax dst length %d != %d", len(dst), len(logits)))
	}
	// Reslice hint: both branches above pin len(dst) == len(logits); the
	// restatement survives the merge and makes dst[i] provably in bounds.
	dst = dst[:len(logits)]
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		uniform := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = uniform
		}
		return dst
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

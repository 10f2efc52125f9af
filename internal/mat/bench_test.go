package mat

import (
	"math"
	"math/rand"
	"testing"
)

var benchBeta []float64

// BenchmarkRidgeWLS solves the explain probe's LIME surrogate: 2 048
// perturbations of 21 features plus the intercept, kernel-weighted. It
// uses exported names only, so the same file runs on an older checkout.
func BenchmarkRidgeWLS(b *testing.B) {
	const n, d = 2048, 22
	rng := rand.New(rand.NewSource(1))
	x := NewDense(n, d)
	y := make([]float64, n)
	w := make([]float64, n)
	width := 0.75 * math.Sqrt(d-1)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var dist2 float64
		for j := 0; j < d-1; j++ {
			row[j] = rng.NormFloat64()
			dist2 += row[j] * row[j]
		}
		row[d-1] = 1
		w[i] = math.Exp(-dist2 / (width * width))
		y[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beta, err := RidgeWLS(x, y, w, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		benchBeta = beta
	}
}

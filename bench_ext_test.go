package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/privacy"
)

// benchBlobs builds a reusable two-class dataset for the DP ablation.
func benchBlobs(b *testing.B, n int) *dataset.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("bench", []string{"f0", "f1", "f2"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		if err := tb.Append([]float64{
			float64(y)*3 + rng.NormFloat64(),
			rng.NormFloat64(),
			-float64(y)*2 + rng.NormFloat64(),
		}, y); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkAblationDPNoise sweeps the DP-SGD noise multiplier — the
// privacy/utility dial (more noise: smaller epsilon, slower convergence).
func BenchmarkAblationDPNoise(b *testing.B) {
	data := benchBlobs(b, 300)
	for _, noise := range []float64{0, 0.5, 2.0} {
		b.Run(fmt.Sprintf("noise=%.1f", noise), func(b *testing.B) {
			cfg := privacy.DefaultDPLogRegConfig()
			cfg.NoiseMultiplier = noise
			for i := 0; i < b.N; i++ {
				m := privacy.NewDPLogReg(cfg)
				if err := m.Fit(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

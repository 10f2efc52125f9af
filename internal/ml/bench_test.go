package ml

import (
	"testing"
)

// benchNet is the explain probe's network, 21→128→64→3, with 256 rows to
// score. Training length does not change what a predict costs.
func benchNet(b *testing.B) (*MLP, [][]float64) {
	b.Helper()
	data := blobs(5, 256, 21, 3, 2.0)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 1
	m := NewMLP(cfg)
	if err := m.Fit(data); err != nil {
		b.Fatal(err)
	}
	return m, data.X
}

var benchSink [][]float64

// BenchmarkMLPPredictSerial scores 256 rows one PredictProba at a time.
func BenchmarkMLPPredictSerial(b *testing.B) {
	m, X := benchNet(b)
	out := make([][]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range X {
			out[j] = m.PredictProba(x)
		}
	}
	benchSink = out
}

// BenchmarkMLPPredictBatch scores the same 256 rows through
// PredictProbaAll, the call the serving workers and the explainers make.
func BenchmarkMLPPredictBatch(b *testing.B) {
	m, X := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = PredictProbaAll(m, X)
	}
}

// BenchmarkUnmarshalModel decodes a forest and a leaf-wise boosted
// ensemble: what a cold load, a replica push and an inline-model explain
// pay before the first row is scored. It uses only exported names, so it
// runs unchanged on either side of a change to the in-memory trees.
func BenchmarkUnmarshalModel(b *testing.B) {
	data := blobs(5, 600, 21, 3, 2.0)
	for _, name := range []string{"rf", "lgbm"} {
		c, err := NewByName(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Fit(data); err != nil {
			b.Fatal(err)
		}
		blob, err := MarshalModel(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalModel(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

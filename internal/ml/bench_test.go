package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
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

var (
	benchSink [][]float64
	rowSink   []float64
)

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

// benchTable is the end-to-end benchmark's training table: the UC2 flow
// table at twice the paper's trace counts, min-max scaled.
func benchTable(b *testing.B) *dataset.Table {
	b.Helper()
	cfg := datagen.DefaultNetTrafficConfig()
	cfg.Web, cfg.Interactive, cfg.Video = 2*cfg.Web, 2*cfg.Interactive, 2*cfg.Video
	table, _, err := datagen.NetTraffic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mm, err := dataset.FitMinMax(table)
	if err != nil {
		b.Fatal(err)
	}
	if err := mm.Transform(table); err != nil {
		b.Fatal(err)
	}
	return table
}

// BenchmarkMLPFit trains the end-to-end benchmark's nn — the default
// 21→128→64→3 network, seed 1 — on its table, for 10 of the 100 epochs
// the benchmark's set-up runs, so one iteration stays well under a second.
// It uses only exported names, so it runs unchanged on either side of a
// change to training.
func BenchmarkMLPFit(b *testing.B) {
	table := benchTable(b)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewMLP(cfg).Fit(table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeKernel scores the end-to-end benchmark's tree fixture — the
// UC2 flow table at twice the paper's trace counts, min-max scaled, with
// lgbm and rf trained on it — at the shapes its predict workloads send:
// 256-row lgbm batches, 64-row rf batches, and one rf row through
// PredictProba. Each case cycles through 96 distinct batches drawn as the
// benchmark draws its bodies (a training row plus jitter): on one batch
// repeated, the branch predictor learns the walk and flatters a kernel
// that branches on the data. It uses only exported names, so it runs
// unchanged on either side of a change to the kernels.
func BenchmarkTreeKernel(b *testing.B) {
	table := benchTable(b)
	var err error
	models := make(map[string]Classifier)
	for _, name := range []string{"lgbm", "rf"} {
		if models[name], err = NewByName(name, 1); err != nil {
			b.Fatal(err)
		}
		if err := models[name].Fit(table); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, bc := range []struct {
		model string
		rows  int
	}{{"lgbm", 256}, {"rf", 64}, {"rf", 1}} {
		batches := make([][][]float64, 96)
		for i := range batches {
			batches[i] = make([][]float64, bc.rows)
			for r := range batches[i] {
				src := table.X[rng.Intn(table.Len())]
				row := make([]float64, len(src))
				for j, v := range src {
					row[j] = math.Min(1, math.Max(0, v+0.02*rng.NormFloat64()))
				}
				batches[i][r] = row
			}
		}
		m := models[bc.model]
		b.Run(fmt.Sprintf("%s/%d", bc.model, bc.rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				X := batches[i%len(batches)]
				if len(X) == 1 {
					rowSink = m.PredictProba(X[0])
				} else {
					benchSink = PredictProbaAll(m, X)
				}
			}
		})
	}
}

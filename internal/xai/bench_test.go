package xai

import (
	"testing"

	"repro/internal/ml"
)

// The explain probe's budgets (bench/workload.go): KernelSHAP scores
// (128 + 2) coalitions × 16 background rows, LIME 2 048 perturbations,
// both on a 21→128→64→3 network.
const (
	probeSHAPSamples    = 128
	probeSHAPBackground = 16
	probeLIMESamples    = 2048
)

// probeModel is the probe's network and its data. Training length does
// not change what an explanation costs.
func probeModel(tb testing.TB) (ml.Classifier, [][]float64, []float64) {
	tb.Helper()
	data := goldenTable(21, 256, 21, 3, 1)
	cfg := ml.DefaultMLPConfig()
	cfg.Epochs = 1
	m := ml.NewMLP(cfg)
	if err := m.Fit(data); err != nil {
		tb.Fatal(err)
	}
	scale := make([]float64, data.NumFeatures())
	for j := range scale {
		scale[j] = 1
	}
	return m, data.X, scale
}

var benchAttr []float64

func benchExplain(b *testing.B, e Explainer, x []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attr, err := e.Explain(x, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchAttr = attr
	}
}

func BenchmarkExplainSHAP(b *testing.B) {
	m, X, _ := probeModel(b)
	benchExplain(b, &KernelSHAP{Model: m, Background: X[:probeSHAPBackground], Samples: probeSHAPSamples, Seed: 1}, X[100])
}

func BenchmarkExplainLIME(b *testing.B) {
	m, X, scale := probeModel(b)
	benchExplain(b, &TabularLIME{Model: m, Scale: scale, Samples: probeLIMESamples, Seed: 1}, X[100])
}

// TestExplainAllocCeilings pins what one explanation at the probe's
// budgets allocates: the design matrices, the ridge solve and a handful of
// buffers per scored block — not five slices per perturbed row (10 545 and
// 10 251 allocations before the explainers scored blocks).
func TestExplainAllocCeilings(t *testing.T) {
	m, X, scale := probeModel(t)
	for _, tc := range []struct {
		name    string
		e       Explainer
		ceiling float64
	}{
		{"SHAP", &KernelSHAP{Model: m, Background: X[:probeSHAPBackground], Samples: probeSHAPSamples, Seed: 1}, 54},
		{"LIME", &TabularLIME{Model: m, Scale: scale, Samples: probeLIMESamples, Seed: 1}, 48},
	} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := tc.e.Explain(X[100], 0); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: %v allocs per explanation, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// Package repro holds the benchmark harness: one testing.B benchmark per
// table/figure of the paper (backed by internal/experiments in Quick mode)
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-size experiment runs (paper-scale datasets and sweeps) are driven
// by cmd/spatial-experiments instead.
package repro

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/attack"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/xai"
)

// quick is the reduced-size configuration shared by the per-figure
// benchmarks.
var quick = experiments.Config{Quick: true, Seed: 1}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, quick); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkUC1Baseline regenerates the §VII use-case-1 baseline table.
func BenchmarkUC1Baseline(b *testing.B) { benchExperiment(b, "uc1-baseline") }

// BenchmarkFig6LabelFlip regenerates Fig. 6(a) i-iii.
func BenchmarkFig6LabelFlip(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig6SHAPDissim regenerates Fig. 6(a)-iv.
func BenchmarkFig6SHAPDissim(b *testing.B) { benchExperiment(b, "fig6-shap") }

// BenchmarkUC2Baseline regenerates the §VII use-case-2 baseline table.
func BenchmarkUC2Baseline(b *testing.B) { benchExperiment(b, "uc2-baseline") }

// BenchmarkFig7FGSM regenerates the §VII evasion table (impact and
// complexity per model).
func BenchmarkFig7FGSM(b *testing.B) { benchExperiment(b, "uc2-fgsm") }

// BenchmarkFig7SHAP regenerates Fig. 7(a,b).
func BenchmarkFig7SHAP(b *testing.B) { benchExperiment(b, "fig7-shap") }

// BenchmarkFig7Poisoning regenerates Fig. 7(c,d).
func BenchmarkFig7Poisoning(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8ImpactLoad regenerates Fig. 8(b).
func BenchmarkFig8ImpactLoad(b *testing.B) { benchExperiment(b, "fig8b") }

// BenchmarkFig8XAILoad regenerates Fig. 8(c).
func BenchmarkFig8XAILoad(b *testing.B) { benchExperiment(b, "fig8c") }

// BenchmarkFig8LIMEHeavy regenerates Fig. 8(d).
func BenchmarkFig8LIMEHeavy(b *testing.B) { benchExperiment(b, "fig8d") }

// --- ablation benchmarks (DESIGN.md §5) ----------------------------------

func uc2Model(b *testing.B) (ml.Classifier, *dataset.Table) {
	b.Helper()
	table, _, err := datagen.NetTraffic(datagen.NetTrafficConfig{Web: 120, Interactive: 14, Video: 18, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := table.StratifiedSplit(rng, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	scaler, err := dataset.FitMinMax(train)
	if err != nil {
		b.Fatal(err)
	}
	if err := scaler.Transform(train); err != nil {
		b.Fatal(err)
	}
	if err := scaler.Transform(test); err != nil {
		b.Fatal(err)
	}
	model, err := ml.NewByName("nn", 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := model.Fit(train); err != nil {
		b.Fatal(err)
	}
	return model, test
}

// BenchmarkAblationSHAPBudget sweeps the KernelSHAP coalition budget — the
// knob behind the fig-8c/8d latency story (cost grows linearly, estimate
// variance shrinks).
func BenchmarkAblationSHAPBudget(b *testing.B) {
	model, test := uc2Model(b)
	for _, samples := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			explainer := &xai.KernelSHAP{
				Model:      model,
				Background: test.X[1:5],
				Samples:    samples,
				Seed:       1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := explainer.Explain(test.X[0], test.Y[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationForestSize sweeps the random-forest ensemble size — the
// paper's "RF is the most poisoning-resilient model" observation depends
// on enough trees voting.
func BenchmarkAblationForestSize(b *testing.B) {
	data, err := datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	poisoned, err := attack.LabelFlip(data, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, trees := range []int{10, 40, 100} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := ml.NewForest(ml.ForestConfig{Trees: trees, MaxFeatures: -1, MinLeaf: 1, Seed: 1})
				if err := f.Fit(poisoned); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGBDTGrowth compares the two boosted-tree growth
// strategies (leaf-wise histogram vs level-wise exact) on the same data —
// the LightGBM/XGBoost split.
func BenchmarkAblationGBDTGrowth(b *testing.B) {
	table, _, err := datagen.NetTraffic(datagen.NetTrafficConfig{Web: 120, Interactive: 14, Video: 18, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	configs := map[string]ml.GBDTConfig{
		"leaf-wise-hist":   {Rounds: 40, LearningRate: 0.1, MaxLeaves: 31, MinChildWeight: 1e-3, Lambda: 1, Growth: ml.GrowLeafWise, MaxBins: 64, Seed: 1},
		"level-wise-exact": {Rounds: 40, LearningRate: 0.1, MaxDepth: 6, MinChildWeight: 1e-3, Lambda: 1, Growth: ml.GrowLevelWise, Seed: 1},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := ml.NewGBDT(cfg)
				if err := g.Fit(table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGatewayPolicy compares round-robin and least-connections
// balancing through the real proxy path.
func BenchmarkAblationGatewayPolicy(b *testing.B) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	policies := map[string]gateway.Balancing{
		"round-robin": gateway.RoundRobin,
		"least-conn":  gateway.LeastConnections,
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			gw := gateway.New(gateway.Config{})
			if err := gw.AddRoute("/svc", policy, backend.URL, backend.URL); err != nil {
				b.Fatal(err)
			}
			front := httptest.NewServer(gw)
			defer front.Close()
			client := front.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(front.URL + "/svc/x")
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
			}
		})
	}
}

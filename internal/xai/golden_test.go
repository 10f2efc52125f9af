package xai

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// goldenPath holds the math.Float64bits of every perturbation explainer's
// attributions for nn, rf, lgbm and lr at three seeds, recorded from the
// row-at-a-time implementation. RNG draw order and every summation order
// are the explainers' contract; a scoring path that changes either changes
// these bits. Regenerate only on purpose: delete the file and run the test
// (it rewrites the file and fails).
const goldenPath = "testdata/golden_bits.json"

var goldenModels = []string{"nn", "rf", "lgbm", "lr"}

// goldenTable builds a deterministic, learnable table: class c shifts
// feature j by c·shift·(0.5 + j mod 3). A small shift on a wide table keeps
// the models away from saturated probabilities.
func goldenTable(seed int64, rows, d, classes int, shift float64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	classNames := make([]string, classes)
	for c := range classNames {
		classNames[c] = fmt.Sprintf("c%d", c)
	}
	tb := dataset.New("golden", names, classNames)
	for i := 0; i < rows; i++ {
		y := i % classes
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(y)*shift*(0.5+float64(j%3))
		}
		if err := tb.Append(row, y); err != nil {
			panic(err)
		}
	}
	return tb
}

// goldenModel trains one of the four families small enough for the race
// detector. "nn" is the probe's 128-64 shape at a handful of epochs.
func goldenModel(t *testing.T, name string, tb *dataset.Table) ml.Classifier {
	t.Helper()
	var m ml.Classifier
	switch name {
	case "nn":
		cfg := ml.DefaultMLPConfig()
		cfg.Epochs = 6
		m = ml.NewMLP(cfg)
	case "rf":
		m = ml.NewForest(ml.ForestConfig{Trees: 12, MaxDepth: 6, MinLeaf: 1, MaxFeatures: -1, Seed: 1})
	case "lgbm":
		cfg := ml.DefaultLightGBMConfig()
		cfg.Rounds = 12
		m = ml.NewGBDT(cfg)
	case "lr":
		m = ml.NewLogReg(ml.DefaultLogRegConfig())
	}
	if err := m.Fit(tb); err != nil {
		t.Fatalf("%s fit: %v", name, err)
	}
	return m
}

// serialOnly hides every optional interface of a model (the batch kernel,
// the input width), leaving the explainers the per-row fallback.
type serialOnly struct{ ml.Classifier }

// goldenAttributions runs the five explainers at three seeds on the tabular
// (6 features, 3 classes) and image (144 inputs, 2 classes) models.
// Budgets are sized so every explainer scores more than one block.
func goldenAttributions(t *testing.T, wrap func(ml.Classifier) ml.Classifier) map[string][]float64 {
	t.Helper()
	tab := goldenTable(11, 150, 6, 3, 1)
	img := goldenTable(12, 120, 144, 2, 0.08)
	scale := make([]float64, tab.NumFeatures())
	for j := range scale {
		scale[j] = 1 + 0.25*float64(j)
	}
	out := make(map[string][]float64)
	for _, name := range goldenModels {
		tm := wrap(goldenModel(t, name, tab))
		im := wrap(goldenModel(t, name, img))
		for seed := int64(1); seed <= 3; seed++ {
			tx, ix := tab.X[seed*7], img.X[seed*5]
			class := int(seed) % 2
			runs := []struct {
				name string
				e    Explainer
				x    []float64
			}{
				{"KernelSHAP", &KernelSHAP{Model: tm, Background: tab.X[20:25], Samples: 300, Seed: seed}, tx},
				{"TabularLIME", &TabularLIME{Model: tm, Scale: scale, Samples: 1500, Seed: seed}, tx},
				{"ExactSHAP", &ExactSHAP{Model: tm, Background: tab.X[30:60]}, tx},
				{"ImageLIME", &ImageLIME{Model: im, W: 12, H: 12, Patch: 3, Samples: 300, Seed: seed}, ix},
				{"Occlusion", &Occlusion{Model: im, W: 12, H: 12, Window: 3, Stride: 1, Baseline: 0.5}, ix},
			}
			for _, r := range runs {
				attr, err := r.e.Explain(r.x, class)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", r.name, name, seed, err)
				}
				out[fmt.Sprintf("%s/%s/seed%d", r.name, name, seed)] = attr
			}
		}
	}
	return out
}

func floatBits(attr []float64) []string {
	bits := make([]string, len(attr))
	for i, v := range attr {
		bits[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return bits
}

// TestGoldenBits holds the explainers to the recorded attributions bit
// for bit, through the models' batch kernels and — for a model wrapped to
// hide them — through the per-row fallback.
func TestGoldenBits(t *testing.T) {
	got := make(map[string][]string)
	for key, attr := range goldenAttributions(t, func(c ml.Classifier) ml.Classifier { return c }) {
		got[key] = floatBits(attr)
	}
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded %d attributions — review and commit", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d attributions, golden file has %d", len(got), len(want))
	}
	for key, bits := range want {
		if !reflect.DeepEqual(got[key], bits) {
			t.Errorf("%s: attribution bits drifted\n got %v\nwant %v", key, got[key], bits)
		}
	}

	hidden := goldenAttributions(t, func(c ml.Classifier) ml.Classifier { return serialOnly{c} })
	for key, attr := range hidden {
		if !reflect.DeepEqual(floatBits(attr), want[key]) {
			t.Errorf("%s: model without a batch kernel gives different bits", key)
		}
	}
}

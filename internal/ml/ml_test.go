package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// blobs generates an easily separable k-class Gaussian-blob dataset.
func blobs(seed int64, n, d, k int, spread float64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	feats := make([]string, d)
	for j := range feats {
		feats[j] = "f" + string(rune('0'+j%10))
	}
	classes := make([]string, k)
	centers := make([][]float64, k)
	for c := range classes {
		classes[c] = "c" + string(rune('0'+c))
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 4
		}
	}
	t := dataset.New("blobs", feats, classes)
	for i := 0; i < n; i++ {
		c := i % k
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		if err := t.Append(row, c); err != nil {
			panic(err)
		}
	}
	return t
}

// xorTable is a non-linearly-separable dataset that a linear model cannot
// solve but trees/MLPs can.
func xorTable(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	t := dataset.New("xor", []string{"a", "b"}, []string{"neg", "pos"})
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		y := 0
		if (a > 0) != (b > 0) {
			y = 1
		}
		_ = t.Append([]float64{a, b}, y)
	}
	return t
}

func trainEval(t *testing.T, c Classifier, data *dataset.Table) Metrics {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	train, test, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(c, test)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLogRegLearnsBlobs(t *testing.T) {
	m := trainEval(t, NewLogReg(DefaultLogRegConfig()), blobs(1, 300, 4, 3, 0.5))
	if m.Accuracy < 0.95 {
		t.Fatalf("lr blob accuracy %.3f < 0.95", m.Accuracy)
	}
}

func TestLogRegCannotSolveXOR(t *testing.T) {
	m := trainEval(t, NewLogReg(DefaultLogRegConfig()), xorTable(2, 400))
	if m.Accuracy > 0.75 {
		t.Fatalf("lr should struggle on xor, got %.3f", m.Accuracy)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	m := trainEval(t, NewTree(DefaultTreeConfig()), xorTable(3, 500))
	if m.Accuracy < 0.9 {
		t.Fatalf("dt xor accuracy %.3f < 0.9", m.Accuracy)
	}
}

func TestForestLearnsXOR(t *testing.T) {
	cfg := DefaultForestConfig()
	cfg.Trees = 20
	m := trainEval(t, NewForest(cfg), xorTable(4, 500))
	if m.Accuracy < 0.9 {
		t.Fatalf("rf xor accuracy %.3f < 0.9", m.Accuracy)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	cfg := DefaultMLPConfig()
	cfg.Epochs = 120
	m := trainEval(t, NewMLP(cfg), xorTable(5, 600))
	if m.Accuracy < 0.9 {
		t.Fatalf("mlp xor accuracy %.3f < 0.9", m.Accuracy)
	}
}

func TestDNNLearnsBlobs(t *testing.T) {
	m := trainEval(t, NewDNN(DefaultDNNConfig()), blobs(6, 300, 6, 3, 0.7))
	if m.Accuracy < 0.95 {
		t.Fatalf("dnn blob accuracy %.3f < 0.95", m.Accuracy)
	}
}

func TestGBDTLeafWiseLearnsXOR(t *testing.T) {
	cfg := DefaultLightGBMConfig()
	cfg.Rounds = 30
	m := trainEval(t, NewGBDT(cfg), xorTable(7, 500))
	if m.Accuracy < 0.9 {
		t.Fatalf("lgbm xor accuracy %.3f < 0.9", m.Accuracy)
	}
}

func TestGBDTLevelWiseLearnsXOR(t *testing.T) {
	cfg := DefaultXGBoostConfig()
	cfg.Rounds = 30
	m := trainEval(t, NewGBDT(cfg), xorTable(8, 500))
	if m.Accuracy < 0.9 {
		t.Fatalf("xgb xor accuracy %.3f < 0.9", m.Accuracy)
	}
}

func TestPredictProbaSumsToOne(t *testing.T) {
	data := blobs(9, 120, 3, 3, 0.8)
	models := []Classifier{
		NewLogReg(DefaultLogRegConfig()),
		NewTree(DefaultTreeConfig()),
		NewForest(ForestConfig{Trees: 5, MaxDepth: 6, MinLeaf: 1, MaxFeatures: -1, Seed: 1}),
		NewMLP(DefaultMLPConfig()),
		NewGBDT(GBDTConfig{Rounds: 5, LearningRate: 0.2, MaxLeaves: 7, MinChildWeight: 1e-3, Lambda: 1, Growth: GrowLeafWise, MaxBins: 16, Seed: 1}),
		NewGBDT(GBDTConfig{Rounds: 5, LearningRate: 0.2, MaxDepth: 3, MinChildWeight: 1e-3, Lambda: 1, Growth: GrowLevelWise, Seed: 1}),
	}
	for _, c := range models {
		if err := c.Fit(data); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, x := range data.X[:10] {
			p := c.PredictProba(x)
			if len(p) != 3 {
				t.Fatalf("%s: %d probs", c.Name(), len(p))
			}
			var sum float64
			for _, v := range p {
				if v < 0 || v > 1+1e-9 {
					t.Fatalf("%s: prob %v out of range", c.Name(), v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s: probs sum to %v", c.Name(), sum)
			}
		}
	}
}

func TestFitOnEmptyDatasetErrors(t *testing.T) {
	empty := dataset.New("e", []string{"a"}, []string{"x", "y"})
	models := []Classifier{
		NewLogReg(DefaultLogRegConfig()),
		NewTree(DefaultTreeConfig()),
		NewForest(DefaultForestConfig()),
		NewMLP(DefaultMLPConfig()),
		NewGBDT(DefaultLightGBMConfig()),
	}
	for _, c := range models {
		if err := c.Fit(empty); err == nil {
			t.Fatalf("%s: expected error on empty dataset", c.Name())
		}
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	data := blobs(10, 200, 4, 2, 1.0)
	for _, name := range []string{"lr", "dt", "rf", "mlp", "lgbm", "xgb"} {
		a, err := NewByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Fit(data); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(data); err != nil {
			t.Fatal(err)
		}
		for _, x := range data.X[:20] {
			pa, pb := a.PredictProba(x), b.PredictProba(x)
			for i := range pa {
				if math.Abs(pa[i]-pb[i]) > 1e-12 {
					t.Fatalf("%s: nondeterministic prediction %v vs %v", name, pa, pb)
				}
			}
		}
	}
}

// TestInputGradientMatchesFiniteDifference verifies the analytic FGSM
// gradient against a numerical approximation for both differentiable
// models.
func TestInputGradientMatchesFiniteDifference(t *testing.T) {
	data := blobs(11, 200, 5, 3, 1.0)
	grads := []GradientClassifier{
		NewLogReg(DefaultLogRegConfig()),
		NewMLP(MLPConfig{Hidden: []int{16, 8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 20, BatchSize: 16, Seed: 3}),
	}
	for _, g := range grads {
		if err := g.Fit(data); err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), data.X[0]...)
		class := data.Y[0]
		analytic := g.InputGradient(x, class)
		const h = 1e-5
		for j := range x {
			loss := func(v float64) float64 {
				old := x[j]
				x[j] = v
				p := g.PredictProba(x)
				x[j] = old
				return -math.Log(math.Max(p[class], 1e-15))
			}
			num := (loss(x[j]+h) - loss(x[j]-h)) / (2 * h)
			if math.Abs(num-analytic[j]) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("%s: gradient mismatch at %d: analytic %v numeric %v", g.Name(), j, analytic[j], num)
			}
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic predicting with untrained model")
		}
	}()
	NewTree(DefaultTreeConfig()).PredictProba([]float64{1})
}

func TestTreeDepthRespectsLimit(t *testing.T) {
	cfg := DefaultTreeConfig()
	cfg.MaxDepth = 3
	tr := NewTree(cfg)
	if err := tr.Fit(blobs(12, 300, 4, 4, 2.0)); err != nil {
		t.Fatal(err)
	}
	if d := maxDepthOf(tr.nodes, 0); d > 3 {
		t.Fatalf("tree depth %d exceeds limit 3", d)
	}
}

func TestForestRejectsZeroTrees(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 0})
	if err := f.Fit(blobs(13, 50, 2, 2, 1)); err == nil {
		t.Fatal("expected config error")
	}
}

func TestNewByNameUnknown(t *testing.T) {
	if _, err := NewByName("svm", 1); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestLogRegLossDecreases(t *testing.T) {
	data := blobs(14, 200, 3, 2, 1.0)
	short := NewLogReg(LogRegConfig{LearningRate: 0.1, Epochs: 1, BatchSize: 32, Seed: 1})
	long := NewLogReg(LogRegConfig{LearningRate: 0.1, Epochs: 50, BatchSize: 32, Seed: 1})
	if err := short.Fit(data); err != nil {
		t.Fatal(err)
	}
	if err := long.Fit(data); err != nil {
		t.Fatal(err)
	}
	// Mean cross-entropy of the true class, from the public one-row form.
	loss := func(m *LogReg) float64 {
		var total float64
		for i, x := range data.X {
			total -= math.Log(math.Max(m.PredictProba(x)[data.Y[i]], 1e-15))
		}
		return total / float64(data.Len())
	}
	if loss(long) >= loss(short) {
		t.Fatalf("loss did not decrease with training: %v vs %v", loss(long), loss(short))
	}
}

package ml

import (
	"math"
	"testing"
)

func TestScorePredictionsPerfect(t *testing.T) {
	m, err := ScorePredictions([]int{0, 1, 1, 0}, []int{0, 1, 1, 0}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 1 || m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Fatalf("perfect metrics: %+v", m)
	}
	if m.Confusion[0][0] != 2 || m.Confusion[1][1] != 2 {
		t.Fatalf("confusion %v", m.Confusion)
	}
}

func TestScorePredictionsKnownValues(t *testing.T) {
	// truth:  a a a b b
	// pred:   a b a b a
	m, err := ScorePredictions([]int{0, 1, 0, 1, 0}, []int{0, 0, 0, 1, 1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Accuracy-0.6) > 1e-12 {
		t.Fatalf("accuracy %v", m.Accuracy)
	}
	// class a: tp=2 fp=1 fn=1 -> P=2/3 R=2/3
	a := m.PerClass[0]
	if math.Abs(a.Precision-2.0/3) > 1e-12 || math.Abs(a.Recall-2.0/3) > 1e-12 {
		t.Fatalf("class a stats %+v", a)
	}
	// class b: tp=1 fp=1 fn=1 -> P=0.5 R=0.5
	b := m.PerClass[1]
	if math.Abs(b.Precision-0.5) > 1e-12 || math.Abs(b.Recall-0.5) > 1e-12 {
		t.Fatalf("class b stats %+v", b)
	}
	if a.Support != 3 || b.Support != 2 {
		t.Fatalf("supports %d %d", a.Support, b.Support)
	}
}

func TestScorePredictionsValidation(t *testing.T) {
	if _, err := ScorePredictions([]int{0}, []int{0, 1}, []string{"a", "b"}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := ScorePredictions(nil, nil, []string{"a"}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := ScorePredictions([]int{5}, []int{0}, []string{"a", "b"}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestScorePredictionsAbsentClassIsZero(t *testing.T) {
	// Class "c" never appears: its precision/recall must be 0, not NaN.
	m, err := ScorePredictions([]int{0, 1}, []int{0, 1}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	c := m.PerClass[2]
	if c.Precision != 0 || c.Recall != 0 || math.IsNaN(m.F1) {
		t.Fatalf("absent class stats %+v macroF1 %v", c, m.F1)
	}
}

func TestSerializationRoundTripPreservesPredictions(t *testing.T) {
	data := blobs(22, 200, 4, 3, 1.0)
	models := []Classifier{
		NewLogReg(DefaultLogRegConfig()),
		NewTree(DefaultTreeConfig()),
		NewForest(ForestConfig{Trees: 7, MaxDepth: 8, MinLeaf: 1, MaxFeatures: -1, Seed: 2}),
		NewMLP(MLPConfig{Hidden: []int{16}, LearningRate: 0.05, Momentum: 0.9, Epochs: 15, BatchSize: 16, Seed: 2}),
		NewDNN(MLPConfig{Hidden: []int{16, 8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 15, BatchSize: 16, Seed: 2}),
		NewGBDT(GBDTConfig{Rounds: 8, LearningRate: 0.2, MaxLeaves: 7, MinChildWeight: 1e-3, Lambda: 1, Growth: GrowLeafWise, MaxBins: 16, Seed: 2}),
		NewGBDT(GBDTConfig{Rounds: 8, LearningRate: 0.2, MaxDepth: 3, MinChildWeight: 1e-3, Lambda: 1, Growth: GrowLevelWise, Seed: 2}),
	}
	for _, c := range models {
		if err := c.Fit(data); err != nil {
			t.Fatalf("%s fit: %v", c.Name(), err)
		}
		blob, err := MarshalModel(c)
		if err != nil {
			t.Fatalf("%s marshal: %v", c.Name(), err)
		}
		back, err := UnmarshalModel(blob)
		if err != nil {
			t.Fatalf("%s unmarshal: %v", c.Name(), err)
		}
		if back.Name() != c.Name() {
			t.Fatalf("name changed: %s -> %s", c.Name(), back.Name())
		}
		if back.NumClasses() != c.NumClasses() {
			t.Fatalf("%s classes changed", c.Name())
		}
		for _, x := range data.X[:25] {
			pa, pb := c.PredictProba(x), back.PredictProba(x)
			for i := range pa {
				if math.Abs(pa[i]-pb[i]) > 1e-12 {
					t.Fatalf("%s: prediction changed after round trip", c.Name())
				}
			}
		}
	}
}

func TestMarshalUntrainedErrors(t *testing.T) {
	if _, err := MarshalModel(NewTree(DefaultTreeConfig())); err == nil {
		t.Fatal("expected ErrNotTrained")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalModel([]byte("not json")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := UnmarshalModel([]byte(`{"kind":"nope","spec":{}}`)); err == nil {
		t.Fatal("expected unknown-kind error")
	}
	if _, err := UnmarshalModel([]byte(`{"kind":"lr","spec":{"w":{"rows":2,"cols":2,"data":[1]}}}`)); err == nil {
		t.Fatal("expected invalid dense spec error")
	}
}

func TestUnmarshaledGradientClassifierStillDifferentiable(t *testing.T) {
	data := blobs(23, 100, 3, 2, 1.0)
	m := NewMLP(MLPConfig{Hidden: []int{8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 10, BatchSize: 16, Seed: 4})
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := back.(GradientClassifier)
	if !ok {
		t.Fatal("round-tripped MLP lost GradientClassifier")
	}
	grad := g.InputGradient(data.X[0], data.Y[0])
	if len(grad) != data.NumFeatures() {
		t.Fatalf("gradient dim %d", len(grad))
	}
	want := m.InputGradient(data.X[0], data.Y[0])
	for i := range grad {
		if math.Abs(grad[i]-want[i]) > 1e-12 {
			t.Fatal("gradient changed after round trip")
		}
	}
}

func TestDatasetValidAfterBlobGeneration(t *testing.T) {
	if err := blobs(30, 50, 3, 2, 1).Validate(); err != nil {
		t.Fatal(err)
	}
}

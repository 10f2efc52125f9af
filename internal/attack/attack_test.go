package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
)

func toyTable(t *testing.T, n, k int) *dataset.Table {
	t.Helper()
	classes := make([]string, k)
	for c := range classes {
		classes[c] = string(rune('a' + c))
	}
	tb := dataset.New("toy", []string{"f0", "f1"}, classes)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		y := i % k
		if err := tb.Append([]float64{float64(y)*4 + rng.NormFloat64(), rng.NormFloat64()}, y); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func countDiffs(a, b []int) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestLabelFlipRate(t *testing.T) {
	tb := toyTable(t, 200, 3)
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		out, err := LabelFlip(tb, rate, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := int(rate * 200)
		if got := countDiffs(tb.Y, out.Y); got != want {
			t.Fatalf("rate %v flipped %d labels, want %d", rate, got, want)
		}
	}
}

func TestLabelFlipNeverKeepsLabel(t *testing.T) {
	tb := toyTable(t, 100, 2)
	out, err := LabelFlip(tb, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Y {
		if tb.Y[i] == out.Y[i] {
			t.Fatal("flip must change the label")
		}
	}
}

func TestLabelFlipDoesNotMutateInput(t *testing.T) {
	tb := toyTable(t, 50, 2)
	orig := append([]int(nil), tb.Y...)
	if _, err := LabelFlip(tb, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if tb.Y[i] != orig[i] {
			t.Fatal("LabelFlip mutated its input")
		}
	}
}

func TestLabelFlipValidation(t *testing.T) {
	tb := toyTable(t, 10, 2)
	if _, err := LabelFlip(tb, -0.1, 1); err == nil {
		t.Fatal("expected rate error")
	}
	if _, err := LabelFlip(tb, 1.5, 1); err == nil {
		t.Fatal("expected rate error")
	}
	single := dataset.New("s", []string{"f"}, []string{"only"})
	_ = single.Append([]float64{1}, 0)
	if _, err := LabelFlip(single, 0.5, 1); err == nil {
		t.Fatal("expected class-count error")
	}
}

func TestLabelFlipDeterministic(t *testing.T) {
	tb := toyTable(t, 100, 3)
	a, err := LabelFlip(tb, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LabelFlip(tb, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed, different flips")
		}
	}
}

func TestTargetedFlipOnlyToTarget(t *testing.T) {
	tb := toyTable(t, 150, 3)
	out, err := TargetedFlip(tb, 0.2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range tb.Y {
		if tb.Y[i] != out.Y[i] {
			changed++
			if out.Y[i] != 2 {
				t.Fatalf("flip target %d, want 2", out.Y[i])
			}
		}
	}
	if changed != 30 {
		t.Fatalf("changed %d labels, want 30", changed)
	}
}

func TestTargetedFlipCapsAtCandidates(t *testing.T) {
	tb := toyTable(t, 30, 2) // 15 candidates for target 0
	out, err := TargetedFlip(tb, 1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range out.Y {
		if y != 0 {
			t.Fatal("rate 1 should flip every candidate")
		}
	}
}

func TestTargetedFlipValidation(t *testing.T) {
	tb := toyTable(t, 10, 2)
	if _, err := TargetedFlip(tb, 0.5, 9, 1); err == nil {
		t.Fatal("expected target range error")
	}
}

func TestRandomSwapPreservesClassCounts(t *testing.T) {
	tb := toyTable(t, 120, 3)
	out, err := RandomSwap(tb, 0.4, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tb.ClassCounts(), out.ClassCounts()
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("swap changed class counts %v -> %v", a, b)
		}
	}
}

func TestRandomSwapTouchesRequestedFraction(t *testing.T) {
	tb := toyTable(t, 100, 2)
	out, err := RandomSwap(tb, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 25 pairs = up to 50 touched labels (pairs with equal labels are
	// no-ops, so diffs <= 50 but the pair count is exact).
	diffs := countDiffs(tb.Y, out.Y)
	if diffs > 50 {
		t.Fatalf("touched %d labels, expected <= 50", diffs)
	}
	if diffs == 0 {
		t.Fatal("swap changed nothing at rate 0.5")
	}
}

func TestFGSMPerturbsByEps(t *testing.T) {
	tb := toyTable(t, 200, 2)
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	res, err := FGSM(m, tb, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversarial.Len() != tb.Len() {
		t.Fatal("adversarial set size changed")
	}
	for i := range tb.X {
		for j := range tb.X[i] {
			d := math.Abs(res.Adversarial.X[i][j] - tb.X[i][j])
			if d > 0.25+1e-12 {
				t.Fatalf("perturbation %v exceeds eps", d)
			}
		}
	}
	if res.CraftCost < 0 {
		t.Fatal("negative craft cost")
	}
}

func TestFGSMDegradesAccuracy(t *testing.T) {
	tb := toyTable(t, 400, 2)
	m := ml.NewMLP(ml.MLPConfig{Hidden: []int{16}, LearningRate: 0.05, Momentum: 0.9, Epochs: 30, BatchSize: 16, Seed: 1})
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	base, err := ml.Evaluate(m, tb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FGSM(m, tb, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := ml.Evaluate(m, res.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Accuracy >= base.Accuracy {
		t.Fatalf("FGSM did not degrade accuracy: %.3f -> %.3f", base.Accuracy, adv.Accuracy)
	}
}

func TestFGSMValidation(t *testing.T) {
	tb := toyTable(t, 10, 2)
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := FGSM(m, tb, 0); err == nil {
		t.Fatal("expected eps error")
	}
	if _, err := FGSM(nil, tb, 0.1); err == nil {
		t.Fatal("expected nil model error")
	}
	empty := dataset.New("e", tb.FeatureNames, tb.ClassNames)
	if _, err := FGSM(m, empty, 0.1); err == nil {
		t.Fatal("expected empty dataset error")
	}
}

func TestGMMSynthesizerSamplesNearClassMeans(t *testing.T) {
	tb := toyTable(t, 300, 3)
	g := &gmmSynthesizer{seed: 1}
	if err := g.Fit(tb); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		rows, err := g.Sample(c, 100, 9)
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, r := range rows {
			mean += r[0]
		}
		mean /= 100
		want := float64(c) * 4
		if math.Abs(mean-want) > 1.0 {
			t.Fatalf("class %d synthetic mean %.2f, want ~%.1f", c, mean, want)
		}
	}
}

func TestGMMSynthesizerValidation(t *testing.T) {
	g := &gmmSynthesizer{}
	if _, err := g.Sample(0, 5, 1); err == nil {
		t.Fatal("expected not-fitted error")
	}
	tb := toyTable(t, 30, 2)
	if err := g.Fit(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Sample(5, 1, 1); err == nil {
		t.Fatal("expected class range error")
	}
}

func TestPoisonSyntheticGrowsDataset(t *testing.T) {
	tb := toyTable(t, 100, 2)
	out, err := PoisonSynthetic(tb, 50, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 150 {
		t.Fatalf("poisoned size %d, want 150", out.Len())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Original rows untouched.
	for i := 0; i < 100; i++ {
		if out.Y[i] != tb.Y[i] {
			t.Fatal("original labels modified")
		}
	}
}

func TestPoisonSyntheticValidation(t *testing.T) {
	tb := toyTable(t, 20, 2)
	if _, err := PoisonSynthetic(tb, -1, 0, 1); err == nil {
		t.Fatal("expected count error")
	}
	if _, err := PoisonSynthetic(tb, 5, 2, 1); err == nil {
		t.Fatal("expected mislabel rate error")
	}
}

func TestPoisonSyntheticDegradesModel(t *testing.T) {
	tb := toyTable(t, 300, 2)
	clean := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := clean.Fit(tb); err != nil {
		t.Fatal(err)
	}
	base, err := ml.Evaluate(clean, tb)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := PoisonSynthetic(tb, 300, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	dirty := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := dirty.Fit(poisoned); err != nil {
		t.Fatal(err)
	}
	after, err := ml.Evaluate(dirty, tb)
	if err != nil {
		t.Fatal(err)
	}
	if after.Accuracy >= base.Accuracy {
		t.Fatalf("synthetic poison did not degrade: %.3f -> %.3f", base.Accuracy, after.Accuracy)
	}
}

package privacy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// noisyBlobs builds a two-class task with enough overlap that an
// overfitting model memorizes rather than generalizes.
func noisyBlobs(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("noisy", []string{"f0", "f1", "f2", "f3"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		row := []float64{
			float64(y)*1.2 + rng.NormFloat64(),
			rng.NormFloat64(),
			rng.NormFloat64(),
			rng.NormFloat64(),
		}
		_ = tb.Append(row, y)
	}
	return tb
}

func TestMembershipInferenceDetectsOverfitting(t *testing.T) {
	data := noisyBlobs(1, 400)
	rng := rand.New(rand.NewSource(1))
	train, test, err := data.StratifiedSplit(rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// An unconstrained tree memorizes its training set perfectly.
	overfit := ml.NewTree(ml.TreeConfig{MaxDepth: 0, MinLeaf: 1, Seed: 1})
	if err := overfit.Fit(train); err != nil {
		t.Fatal(err)
	}
	res, err := MembershipInference(overfit, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage < 0.2 {
		t.Fatalf("overfit model advantage %.3f too low", res.Advantage)
	}
	if res.MeanMemberConf <= res.MeanNonMemberConf {
		t.Fatal("members should have higher confidence")
	}
	if res.AttackAccuracy < 0.5 || res.AttackAccuracy > 1 {
		t.Fatalf("attack accuracy %.3f out of range", res.AttackAccuracy)
	}
}

func TestMembershipInferenceLowOnGeneralizingModel(t *testing.T) {
	data := noisyBlobs(2, 400)
	rng := rand.New(rand.NewSource(2))
	train, test, err := data.StratifiedSplit(rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lr := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	res, err := MembershipInference(lr, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage > 0.15 {
		t.Fatalf("generalizing model advantage %.3f suspiciously high", res.Advantage)
	}
}

func TestMembershipInferenceValidation(t *testing.T) {
	data := noisyBlobs(3, 10)
	empty := dataset.New("e", data.FeatureNames, data.ClassNames)
	m := ml.NewTree(ml.DefaultTreeConfig())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	if _, err := MembershipInference(nil, data, data); err == nil {
		t.Fatal("expected nil-model error")
	}
	if _, err := MembershipInference(m, empty, data); err == nil {
		t.Fatal("expected empty-members error")
	}
}

func TestPrivacyScore(t *testing.T) {
	if PrivacyScore(0) != 1 || PrivacyScore(-1) != 1 {
		t.Fatal("no leakage should score 1")
	}
	if PrivacyScore(1) != 0 || PrivacyScore(2) != 0 {
		t.Fatal("total leakage should score 0")
	}
	if math.Abs(PrivacyScore(0.3)-0.7) > 1e-12 {
		t.Fatal("linear mapping broken")
	}
}

func TestDPLogRegLearnsWithModerateNoise(t *testing.T) {
	data := noisyBlobs(4, 600)
	rng := rand.New(rand.NewSource(4))
	train, test, err := data.StratifiedSplit(rng, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDPLogRegConfig()
	cfg.NoiseMultiplier = 0.5
	m := NewDPLogReg(cfg)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	metrics, err := ml.Evaluate(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Accuracy < 0.6 {
		t.Fatalf("dp-lr accuracy %.3f too low", metrics.Accuracy)
	}
}

func TestDPLogRegNoiseDegradesGracefully(t *testing.T) {
	data := noisyBlobs(5, 600)
	accWithNoise := func(noise float64) float64 {
		cfg := DefaultDPLogRegConfig()
		cfg.NoiseMultiplier = noise
		m := NewDPLogReg(cfg)
		if err := m.Fit(data); err != nil {
			t.Fatal(err)
		}
		metrics, err := ml.Evaluate(m, data)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Accuracy
	}
	clean := accWithNoise(0)
	veryNoisy := accWithNoise(50)
	if veryNoisy >= clean {
		t.Fatalf("extreme noise should hurt: %.3f vs %.3f", veryNoisy, clean)
	}
}

func TestDPLogRegEpsilonMonotonicity(t *testing.T) {
	data := noisyBlobs(6, 200)
	epsAt := func(noise float64) float64 {
		cfg := DefaultDPLogRegConfig()
		cfg.NoiseMultiplier = noise
		m := NewDPLogReg(cfg)
		if err := m.Fit(data); err != nil {
			t.Fatal(err)
		}
		eps, err := m.Epsilon(1e-5)
		if err != nil {
			t.Fatal(err)
		}
		return eps
	}
	if epsAt(2) >= epsAt(0.5) {
		t.Fatal("more noise must give smaller epsilon")
	}
}

func TestDPLogRegEpsilonUntrained(t *testing.T) {
	m := NewDPLogReg(DefaultDPLogRegConfig())
	if _, err := m.Epsilon(1e-5); err == nil {
		t.Fatal("expected not-trained error")
	}
}

func TestDPLogRegValidation(t *testing.T) {
	data := noisyBlobs(7, 50)
	bad := DefaultDPLogRegConfig()
	bad.NoiseMultiplier = -1
	if err := NewDPLogReg(bad).Fit(data); err == nil {
		t.Fatal("expected noise error")
	}
	empty := dataset.New("e", data.FeatureNames, data.ClassNames)
	if err := NewDPLogReg(DefaultDPLogRegConfig()).Fit(empty); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestApproxEpsilonValidation(t *testing.T) {
	if _, err := ApproxEpsilon(0, 0.1, 10, 1e-5); err == nil {
		t.Fatal("expected noise error")
	}
	if _, err := ApproxEpsilon(1, 0, 10, 1e-5); err == nil {
		t.Fatal("expected rate error")
	}
	if _, err := ApproxEpsilon(1, 0.1, 0, 1e-5); err == nil {
		t.Fatal("expected steps error")
	}
	if _, err := ApproxEpsilon(1, 0.1, 10, 2); err == nil {
		t.Fatal("expected delta error")
	}
	eps, err := ApproxEpsilon(1, 0.1, 100, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("epsilon %v", eps)
	}
}

// TestDPReducesMembershipAdvantage is the end-to-end privacy story: the
// same data, a non-private overfitting model vs the DP model, attacked
// with membership inference.
func TestDPReducesMembershipAdvantage(t *testing.T) {
	data := noisyBlobs(8, 500)
	rng := rand.New(rand.NewSource(8))
	train, test, err := data.StratifiedSplit(rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	overfit := ml.NewTree(ml.TreeConfig{MaxDepth: 0, MinLeaf: 1, Seed: 1})
	if err := overfit.Fit(train); err != nil {
		t.Fatal(err)
	}
	leaky, err := MembershipInference(overfit, train, test)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultDPLogRegConfig()
	cfg.NoiseMultiplier = 1.0
	dp := NewDPLogReg(cfg)
	if err := dp.Fit(train); err != nil {
		t.Fatal(err)
	}
	private, err := MembershipInference(dp, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if private.Advantage >= leaky.Advantage {
		t.Fatalf("DP training did not reduce leakage: %.3f vs %.3f", private.Advantage, leaky.Advantage)
	}
}

// membershipOracle is MembershipInference with one PredictProba call per
// row and a left-to-right mean: the per-row reference the batch scoring
// path must match bit for bit.
func membershipOracle(model ml.Classifier, members, nonMembers *dataset.Table) MembershipResult {
	confidences := func(t *dataset.Table) []float64 {
		out := make([]float64, t.Len())
		for i, x := range t.X {
			out[i] = model.PredictProba(x)[t.Y[i]]
		}
		return out
	}
	mean := func(vals []float64) float64 {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	memberConf, nonMemberConf := confidences(members), confidences(nonMembers)
	res := MembershipResult{MeanMemberConf: mean(memberConf), MeanNonMemberConf: mean(nonMemberConf)}
	candidates := append(append([]float64(nil), memberConf...), nonMemberConf...)
	sort.Float64s(candidates)
	best := -1.0
	for _, thr := range candidates {
		if adv := fracAtLeast(memberConf, thr) - fracAtLeast(nonMemberConf, thr); adv > best {
			best, res.Threshold = adv, thr
		}
	}
	best = max(best, 0)
	res.Advantage, res.AttackAccuracy = best, 0.5+best/2
	return res
}

// TestMembershipInferenceMatchesPerRow holds the batch-scored attack to
// the per-row oracle on the two model families with batch kernels (an
// MLP and a random forest): every field of the result, bit for bit.
func TestMembershipInferenceMatchesPerRow(t *testing.T) {
	data := noisyBlobs(4, 300)
	train, test, err := data.StratifiedSplit(rand.New(rand.NewSource(4)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	nn := ml.NewMLP(ml.MLPConfig{Hidden: []int{16, 8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 20, BatchSize: 16, Seed: 4})
	rf := ml.NewForest(ml.ForestConfig{Trees: 15, MinLeaf: 1, MaxFeatures: -1, Seed: 4})
	for _, m := range []ml.Classifier{nn, rf} {
		if _, ok := m.(ml.BatchPredictor); !ok {
			t.Fatalf("%s has no batch kernel; the comparison would test nothing", m.Name())
		}
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		got, err := MembershipInference(m, train, test)
		if err != nil {
			t.Fatal(err)
		}
		want := membershipOracle(m, train, test)
		bits := func(r MembershipResult) [5]uint64 {
			return [5]uint64{
				math.Float64bits(r.Advantage), math.Float64bits(r.AttackAccuracy), math.Float64bits(r.Threshold),
				math.Float64bits(r.MeanMemberConf), math.Float64bits(r.MeanNonMemberConf),
			}
		}
		if bits(got) != bits(want) {
			t.Fatalf("%s: batch-scored result %+v, per-row oracle %+v", m.Name(), got, want)
		}
	}
}

package fairness

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml"
)

func TestEvaluateKnownValues(t *testing.T) {
	// Group 0: 4 samples, 2 predicted positive; truth: 2 pos (both
	// caught), 2 neg (0 false alarms). Group 1: 4 samples, 1 predicted
	// positive; truth 2 pos (1 caught), 2 neg (0 false alarms).
	pred := []int{1, 1, 0, 0, 1, 0, 0, 0}
	truth := []int{1, 1, 0, 0, 1, 1, 0, 0}
	group := []int{0, 0, 0, 0, 1, 1, 1, 1}
	rep, err := Evaluate(pred, truth, group, 1, [2]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DemographicParityDiff-0.25) > 1e-12 {
		t.Fatalf("DP diff %v, want 0.25", rep.DemographicParityDiff)
	}
	if math.Abs(rep.DisparateImpactRatio-0.5) > 1e-12 {
		t.Fatalf("DI ratio %v, want 0.5", rep.DisparateImpactRatio)
	}
	if math.Abs(rep.EqualOpportunityDiff-0.5) > 1e-12 {
		t.Fatalf("EO diff %v, want 0.5", rep.EqualOpportunityDiff)
	}
	if math.Abs(rep.EqualizedOddsDiff-0.5) > 1e-12 {
		t.Fatalf("EOdds %v, want 0.5", rep.EqualizedOddsDiff)
	}
	if rep.Groups[0].N != 4 || rep.Groups[1].N != 4 {
		t.Fatalf("group sizes %+v", rep.Groups)
	}
}

func TestEvaluatePerfectParity(t *testing.T) {
	pred := []int{1, 0, 1, 0}
	truth := []int{1, 0, 1, 0}
	group := []int{0, 0, 1, 1}
	rep, err := Evaluate(pred, truth, group, 1, [2]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DemographicParityDiff != 0 || rep.EqualizedOddsDiff != 0 {
		t.Fatalf("parity broken: %+v", rep)
	}
	if rep.DisparateImpactRatio != 1 {
		t.Fatalf("DI ratio %v", rep.DisparateImpactRatio)
	}
	if Score(rep) != 1 {
		t.Fatalf("score %v", Score(rep))
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(nil, nil, nil, 1, [2]string{"A", "B"}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Evaluate([]int{1}, []int{1, 0}, []int{0}, 1, [2]string{"A", "B"}); err == nil {
		t.Fatal("expected misalignment error")
	}
	if _, err := Evaluate([]int{1}, []int{1}, []int{7}, 1, [2]string{"A", "B"}); err == nil {
		t.Fatal("expected group-value error")
	}
	if _, err := Evaluate([]int{1, 0}, []int{1, 0}, []int{0, 0}, 1, [2]string{"A", "B"}); err == nil {
		t.Fatal("expected one-sided-group error")
	}
}

func TestScoreBounds(t *testing.T) {
	if Score(Report{DemographicParityDiff: 2}) != 0 {
		t.Fatal("score should clamp at 0")
	}
	if math.Abs(Score(Report{DemographicParityDiff: 0.2, EqualizedOddsDiff: 0.4})-0.6) > 1e-12 {
		t.Fatal("score should use the worst metric")
	}
}

// TestBiasedLoanHistoryProducesUnfairModel is the paper's loan scenario:
// train on biased history, measure group disparity with the fairness
// sensor metrics.
func TestBiasedLoanHistoryProducesUnfairModel(t *testing.T) {
	data, _, err := datagen.Loan(datagen.DefaultLoanConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	model := ml.NewTree(ml.DefaultTreeConfig())
	if err := model.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictBatch(model, test)
	group := make([]int, test.Len())
	for i, row := range test.X {
		group[i] = int(row[datagen.LoanGroupFeature])
	}
	rep, err := Evaluate(pred, test.Y, group, 1, [2]string{"groupA", "groupB"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DemographicParityDiff < 0.1 {
		t.Fatalf("biased history should yield a visible parity gap, got %.3f", rep.DemographicParityDiff)
	}
	if rep.Groups[1].PositiveRate >= rep.Groups[0].PositiveRate {
		t.Fatal("minority group should have the lower approval rate")
	}
	if Score(rep) >= 1 {
		t.Fatal("fairness score should flag the disparity")
	}
}

// TestFairHistoryProducesFairerModel: the same history with the group
// column shuffled across applicants — so group membership no longer says
// who was held to the stricter bar — shows a much smaller disparity,
// confirming the metric tracks the injected bias rather than generator
// artifacts.
func TestFairHistoryProducesFairerModel(t *testing.T) {
	biasedGap := loanGap(t, false)
	fairGap := loanGap(t, true)
	if fairGap >= biasedGap {
		t.Fatalf("fair history gap %.3f should be below biased gap %.3f", fairGap, biasedGap)
	}
}

func loanGap(t *testing.T, shuffleGroups bool) float64 {
	t.Helper()
	data, _, err := datagen.Loan(datagen.DefaultLoanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if shuffleGroups {
		g := datagen.LoanGroupFeature
		rand.New(rand.NewSource(3)).Shuffle(data.Len(), func(i, j int) {
			data.X[i][g], data.X[j][g] = data.X[j][g], data.X[i][g]
		})
	}
	rng := rand.New(rand.NewSource(2))
	train, test, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	model := ml.NewTree(ml.DefaultTreeConfig())
	if err := model.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictBatch(model, test)
	group := make([]int, test.Len())
	for i, row := range test.X {
		group[i] = int(row[datagen.LoanGroupFeature])
	}
	rep, err := Evaluate(pred, test.Y, group, 1, [2]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	return rep.DemographicParityDiff
}

func TestLoanGeneratorValidation(t *testing.T) {
	if _, _, err := datagen.Loan(datagen.LoanConfig{Samples: 0}); err == nil {
		t.Fatal("expected samples error")
	}
	data, groups, err := datagen.Loan(datagen.LoanConfig{Samples: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 200 || len(groups) != 200 {
		t.Fatalf("sizes %d/%d", data.Len(), len(groups))
	}
	if err := data.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if int(data.X[i][datagen.LoanGroupFeature]) != g {
			t.Fatal("group column misaligned with group slice")
		}
	}
}

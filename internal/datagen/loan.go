package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
)

// Loan-approval dataset: the fairness example the paper's challenges
// section describes ("in a loan application, fairness can be applied to
// identify data biases in individual or specific groups"). The generator
// produces applicants from two demographic groups with identical
// creditworthiness distributions but historically biased approval labels,
// so a model trained on the raw history inherits measurable group unfairness.

// LoanConfig parameterizes the generator.
type LoanConfig struct {
	// Samples is the number of applicants.
	Samples int
	// Seed drives all randomness.
	Seed int64
}

// DefaultLoanConfig returns the calibrated generator settings.
func DefaultLoanConfig() LoanConfig {
	return LoanConfig{Samples: 1000, Seed: 1}
}

const (
	// minorityFrac is the fraction of group-B applicants.
	minorityFrac = 0.3
	// loanBias is the extra approval-score margin demanded of group B in
	// the historical labels.
	loanBias = 1.5
)

// LoanGroupFeature is the index of the protected-attribute column in the
// generated table (0 = group A, 1 = group B).
const LoanGroupFeature = 5

// loanFeatureNames: the protected attribute is an explicit column so bias
// detection (and bias mitigation by dropping it) can be demonstrated.
var loanFeatureNames = []string{
	"income_k", "debt_ratio", "years_employed", "credit_history_years", "prior_defaults", "group",
}

// Loan generates the dataset. Class 0 = denied, 1 = approved. The
// returned group slice holds each applicant's group (0 or 1), aligned
// with the table rows.
func Loan(cfg LoanConfig) (*dataset.Table, []int, error) {
	if cfg.Samples <= 0 {
		return nil, nil, fmt.Errorf("datagen: Samples must be positive, got %d", cfg.Samples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := dataset.New("loan-synthetic", loanFeatureNames, []string{"denied", "approved"})
	groups := make([]int, 0, cfg.Samples)

	for i := 0; i < cfg.Samples; i++ {
		group := 0
		if rng.Float64() < minorityFrac {
			group = 1
		}
		// Identical creditworthiness distributions for both groups.
		income := 30 + rng.ExpFloat64()*40
		debt := clamp01(0.1 + rng.Float64()*0.7)
		years := rng.Float64() * 20
		history := rng.Float64() * 25
		defaults := float64(rng.Intn(4))

		// True creditworthiness score.
		score := 0.03*income - 2.5*debt + 0.08*years + 0.05*history - 0.9*defaults + rng.NormFloat64()*0.4

		// Historical decision: group B was held to a stricter bar.
		threshold := 0.5
		if group == 1 {
			threshold += loanBias
		}
		label := 0
		if score > threshold {
			label = 1
		}
		row := []float64{income, debt, years, history, defaults, float64(group)}
		if err := t.Append(row, label); err != nil {
			return nil, nil, err
		}
		groups = append(groups, group)
	}
	return t, groups, nil
}

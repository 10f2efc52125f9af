package xai

import (
	"fmt"
	"math/bits"

	"repro/internal/ml"
)

// ExactSHAP computes exact Shapley values by enumerating all 2^d feature
// coalitions — tractable for small d (the implementation refuses d > 20).
// It serves as the ground truth the KernelSHAP estimator is validated
// against, and as the production choice for narrow tabular models where
// exactness is worth 2^d model evaluations.
type ExactSHAP struct {
	// Model is the classifier to explain.
	Model ml.Classifier
	// Background supplies the reference distribution for absent
	// features, exactly as in KernelSHAP.
	Background [][]float64
}

var _ Explainer = (*ExactSHAP)(nil)

// maxExactFeatures bounds the enumeration (2^20 coalition evaluations).
const maxExactFeatures = 20

// Explain returns the exact Shapley attribution of the class probability.
func (e *ExactSHAP) Explain(x []float64, class int) ([]float64, error) {
	if e.Model == nil {
		return nil, fmt.Errorf("xai: ExactSHAP has no model")
	}
	if len(e.Background) == 0 {
		return nil, fmt.Errorf("xai: ExactSHAP needs background data")
	}
	d := len(x)
	if d == 0 {
		return nil, fmt.Errorf("xai: empty instance")
	}
	if d > maxExactFeatures {
		return nil, fmt.Errorf("xai: exact SHAP limited to %d features, got %d (use KernelSHAP)", maxExactFeatures, d)
	}
	if class < 0 || class >= e.Model.NumClasses() {
		return nil, fmt.Errorf("xai: class %d out of range", class)
	}
	for _, b := range e.Background {
		if len(b) != d {
			return nil, fmt.Errorf("xai: background dim %d != instance dim %d", len(b), d)
		}
	}

	// Value of every coalition, indexed by bitmask.
	values, err := coalitionValues(e.Model, class, x, e.Background, 1<<d,
		func(mask, j int) bool { return mask&(1<<j) != 0 })
	if err != nil {
		return nil, err
	}

	// Shapley weights by coalition size: |S|! (d-|S|-1)! / d!.
	weights := make([]float64, d)
	for s := 0; s < d; s++ {
		weights[s] = 1 / (float64(d) * binomial(d-1, s))
	}

	phi := make([]float64, d)
	for j := 0; j < d; j++ {
		bit := 1 << j
		for mask := 0; mask < 1<<d; mask++ {
			if mask&bit != 0 {
				continue // j must be absent from S
			}
			s := bits.OnesCount(uint(mask))
			phi[j] += weights[s] * (values[mask|bit] - values[mask])
		}
	}
	return phi, nil
}

// binomial computes C(n, k) in float64 (exact for the small n used here).
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

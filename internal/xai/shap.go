// Package xai implements the explainability methods SPATIAL's
// accountability micro-services expose: KernelSHAP, LIME for tabular and
// image inputs, occlusion sensitivity, and the SHAP-dissimilarity
// poisoning detector from the paper's use case 1.
package xai

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
	"repro/internal/ml"
)

// Explainer produces a per-feature attribution vector for one instance and
// one target class.
type Explainer interface {
	Explain(x []float64, class int) ([]float64, error)
}

// KernelSHAP approximates Shapley values with the KernelSHAP estimator:
// coalition sampling, model evaluation on background-imputed hybrids, and
// a constrained weighted least-squares solve. The efficiency property
// (attributions sum to f(x) − E[f]) holds exactly by construction.
type KernelSHAP struct {
	// Model is the classifier to explain.
	Model ml.Classifier
	// Background supplies the reference distribution used to impute
	// "absent" features. A handful of rows is enough in practice.
	Background [][]float64
	// Samples is the number of sampled coalitions (min 2·d recommended;
	// lower values are regularized by shapLambda; at most MaxSamples).
	Samples int
	// Seed drives coalition sampling.
	Seed int64
}

var _ Explainer = (*KernelSHAP)(nil)

// shapLambda is KernelSHAP's ridge regularizer for under-determined
// systems.
const shapLambda = 1e-6

// Explain returns the d-dimensional SHAP attribution of class probability
// for instance x.
func (k *KernelSHAP) Explain(x []float64, class int) ([]float64, error) {
	if k.Model == nil {
		return nil, fmt.Errorf("xai: KernelSHAP has no model")
	}
	if len(k.Background) == 0 {
		return nil, fmt.Errorf("xai: KernelSHAP needs background data")
	}
	d := len(x)
	if d == 0 {
		return nil, fmt.Errorf("xai: empty instance")
	}
	if class < 0 || class >= k.Model.NumClasses() {
		return nil, fmt.Errorf("xai: class %d out of range", class)
	}
	for _, b := range k.Background {
		if len(b) != d {
			return nil, fmt.Errorf("xai: background dim %d != instance dim %d", len(b), d)
		}
	}
	samples := k.Samples
	if samples <= 0 {
		samples = 2*d + 512
	}
	if err := checkSamples(samples); err != nil {
		return nil, err
	}
	if d == 1 {
		v, err := coalitionValues(k.Model, class, x, k.Background, 2, func(c, _ int) bool { return c == 1 })
		if err != nil {
			return nil, err
		}
		return []float64{v[1] - v[0]}, nil
	}
	rng := rand.New(rand.NewSource(k.Seed))

	// Sample coalitions with sizes drawn according to the SHAP kernel
	// weights (never empty or full — those are the constraints). Every
	// coalition is drawn before any is scored: the draws do not depend on
	// the model, and the scorer takes the hybrids a block at a time.
	sizeW := make([]float64, d-1) // size s = 1..d-1
	var sizeSum float64
	for s := 1; s < d; s++ {
		sizeW[s-1] = float64(d-1) / (float64(s) * float64(d-s))
		sizeSum += sizeW[s-1]
	}
	z := mat.NewDense(samples, d-1)
	// Coalition 0 is empty (every feature from the background), coalition
	// 1 is full, coalition 2+i is sample i.
	masks := make([]bool, (samples+2)*d)
	for j := 0; j < d; j++ {
		masks[d+j] = true
	}
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < samples; i++ {
		// Draw a coalition size.
		r := rng.Float64() * sizeSum
		s := 1
		for acc := 0.0; s < d; s++ {
			acc += sizeW[s-1]
			if acc >= r {
				break
			}
		}
		if s >= d {
			s = d - 1
		}
		rng.Shuffle(d, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		mask := masks[(i+2)*d : (i+3)*d]
		for _, j := range perm[:s] {
			mask[j] = true
		}
		// Eliminate the last feature to enforce the efficiency
		// constraint exactly.
		last := 0.0
		if mask[d-1] {
			last = 1
		}
		row := z.Row(i)
		for j := 0; j < d-1; j++ {
			zj := 0.0
			if mask[j] {
				zj = 1
			}
			row[j] = zj - last
		}
	}

	values, err := coalitionValues(k.Model, class, x, k.Background, samples+2,
		func(c, j int) bool { return masks[c*d+j] })
	if err != nil {
		return nil, err
	}
	f0 := values[0]
	total := values[1] - f0
	y := make([]float64, samples)
	w := make([]float64, samples)
	for i := range y {
		last := 0.0
		if masks[(i+2)*d+d-1] {
			last = 1
		}
		y[i] = values[i+2] - f0 - last*total
		// All sampled coalitions get unit weight because sampling
		// already followed the kernel distribution.
		w[i] = 1
	}

	phiHead, err := mat.RidgeWLS(z, y, w, shapLambda)
	if err != nil {
		return nil, fmt.Errorf("kernelshap solve: %w", err)
	}
	phi := make([]float64, d)
	copy(phi, phiHead)
	var sum float64
	for _, v := range phiHead {
		sum += v
	}
	phi[d-1] = total - sum
	return phi, nil
}

// FeatureImportance ranks features by mean |attribution| over a set of
// explanations. It returns indices sorted by descending importance and the
// importance values aligned with the original feature order.
func FeatureImportance(explanations [][]float64) (order []int, importance []float64) {
	if len(explanations) == 0 {
		return nil, nil
	}
	d := len(explanations[0])
	importance = make([]float64, d)
	for _, e := range explanations {
		for j, v := range e {
			importance[j] += math.Abs(v)
		}
	}
	for j := range importance {
		importance[j] /= float64(len(explanations))
	}
	order = make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return importance[order[a]] > importance[order[b]] })
	return order, importance
}

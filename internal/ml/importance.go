package ml

// Feature importance for the tree-based models: impurity-decrease
// importance for CART trees and forests, and split-gain importance for the
// boosted ensembles. These are the "global" importances operators compare
// against the local SHAP/LIME attributions on the dashboard.

import "math"

// FeatureImportance returns normalized Gini-importance scores (summing to
// 1 when any split exists). The tree must be trained; the caller passes
// the feature dimensionality because leaves do not record it.
func (t *Tree) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	if len(t.nodes) == 0 {
		return imp
	}
	t.accumulateImportance(0, imp)
	normalize(imp)
	return imp
}

// accumulateImportance adds each internal node's weighted impurity
// decrease (n·g_parent − n_l·g_l − n_r·g_r) to its split feature and
// returns the subtree's class-count vector.
func (t *Tree) accumulateImportance(idx int32, imp []float64) []float64 {
	node := &t.nodes[idx]
	if node.Feature < 0 {
		return append([]float64(nil), t.counts[node.Left:][:t.classes]...)
	}
	left := t.accumulateImportance(node.Left, imp)
	right := t.accumulateImportance(node.Right, imp)
	var nl, nr float64
	for _, c := range left {
		nl += c
	}
	for _, c := range right {
		nr += c
	}
	parent := make([]float64, len(left))
	for i := range parent {
		parent[i] = left[i] + right[i]
	}
	n := nl + nr
	if int(node.Feature) < len(imp) {
		decrease := n*gini(parent, n) - nl*gini(left, nl) - nr*gini(right, nr)
		if decrease > 0 {
			imp[node.Feature] += decrease
		}
	}
	return parent
}

// FeatureImportance returns the mean normalized importance across the
// forest's members.
func (f *Forest) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	if len(f.Members) == 0 {
		return imp
	}
	for _, tr := range f.Members {
		for j, v := range tr.FeatureImportance(numFeatures) {
			imp[j] += v
		}
	}
	normalize(imp)
	return imp
}

// FeatureImportance returns normalized importance summed over every tree
// of the boosted ensemble: each split contributes the spread between its
// children's values, which tracks how much the split moves scores.
func (g *GBDT) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	if g.TreesPerClass == nil {
		return imp
	}
	for _, class := range g.TreesPerClass {
		for _, tr := range class {
			for _, n := range tr.nodes {
				if n.Feature >= 0 && int(n.Feature) < numFeatures {
					// A child that is itself a split counts as 0 and
					// accumulates through its own splits.
					spread := tr.nodes[n.Left].value() - tr.nodes[n.Right].value()
					imp[n.Feature] += math.Abs(spread) + 1e-12
				}
			}
		}
	}
	normalize(imp)
	return imp
}

// value is a boosted leaf's value, and 0 for a split.
func (n node) value() float64 {
	if n.Feature < 0 {
		return n.Threshold
	}
	return 0
}

func normalize(x []float64) {
	var sum float64
	for _, v := range x {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range x {
		x[i] /= sum
	}
}

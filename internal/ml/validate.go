package ml

import (
	"fmt"

	"repro/internal/mat"
)

// Structural validation of deserialized models. Model envelopes cross
// service boundaries, so a malformed or malicious envelope must be
// rejected at decode time: without these checks a cyclic tree would make
// PredictProba loop forever (found by FuzzUnmarshalModel) and mismatched
// layer shapes would panic mid-request. The tree kinds are checked as they
// are built, in serialize.go.

// validateLogRegSpec checks weight-matrix geometry against the declared
// shape.
func validateLogRegSpec(w *mat.Dense, classes, dim int) error {
	if classes < 2 || dim < 1 {
		return fmt.Errorf("ml: lr spec shape %d classes x %d features invalid", classes, dim)
	}
	if w.Rows() != classes || w.Cols() != dim+1 {
		return fmt.Errorf("ml: lr weights %dx%d do not match %d classes x %d features", w.Rows(), w.Cols(), classes, dim)
	}
	return nil
}

// validateMLPSpec checks layer geometry: sizes chain, weight shapes, bias
// lengths, and the output width.
func validateMLPSpec(weights []*mat.Dense, biases [][]float64, sizes []int, classes int) error {
	if len(sizes) < 2 {
		return fmt.Errorf("ml: mlp spec has %d layer sizes", len(sizes))
	}
	if len(weights) != len(sizes)-1 || len(biases) != len(sizes)-1 {
		return fmt.Errorf("ml: mlp spec has %d weight and %d bias layers for %d sizes", len(weights), len(biases), len(sizes))
	}
	for i, s := range sizes {
		if s < 1 {
			return fmt.Errorf("ml: mlp layer %d has width %d", i, s)
		}
	}
	if sizes[len(sizes)-1] != classes || classes < 2 {
		return fmt.Errorf("ml: mlp output width %d != %d classes", sizes[len(sizes)-1], classes)
	}
	for l, w := range weights {
		if w.Rows() != sizes[l+1] || w.Cols() != sizes[l] {
			return fmt.Errorf("ml: mlp layer %d weights %dx%d, want %dx%d", l, w.Rows(), w.Cols(), sizes[l+1], sizes[l])
		}
		if len(biases[l]) != sizes[l+1] {
			return fmt.Errorf("ml: mlp layer %d biases %d, want %d", l, len(biases[l]), sizes[l+1])
		}
	}
	return nil
}

package attack

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/ml"

	"repro/internal/clock"
)

// FGSMResult carries the adversarial variants of a dataset plus the
// measured crafting cost, which feeds the resilience "complexity" metric.
type FGSMResult struct {
	// Adversarial has the same labels as the input but perturbed
	// features.
	Adversarial *dataset.Table
	// CraftCost is the mean wall-clock cost to craft one adversarial
	// sample.
	CraftCost time.Duration
}

// FGSM runs the Fast Gradient Sign Method against a differentiable model:
// x' = x + eps · sign(∇_x loss(x, y)). The perturbation uses each sample's
// true label (an untargeted attack maximizing its loss), matching the
// white-box setting of use case 2.
func FGSM(model ml.GradientClassifier, t *dataset.Table, eps float64) (FGSMResult, error) {
	if model == nil {
		return FGSMResult{}, fmt.Errorf("attack: fgsm needs a model")
	}
	if eps <= 0 {
		return FGSMResult{}, fmt.Errorf("attack: fgsm eps %v must be positive", eps)
	}
	if t.Len() == 0 {
		return FGSMResult{}, fmt.Errorf("attack: fgsm on empty dataset")
	}
	if err := ml.CheckInput(model, t.NumFeatures(), t.Y); err != nil {
		return FGSMResult{}, fmt.Errorf("attack: fgsm: %w", err)
	}
	out := t.Clone()
	start := clock.Real().Now()
	for i, x := range out.X {
		grad := model.InputGradient(x, out.Y[i])
		for j, g := range grad {
			switch {
			case g > 0:
				x[j] += eps
			case g < 0:
				x[j] -= eps
			}
		}
	}
	elapsed := clock.Real().Since(start)
	return FGSMResult{
		Adversarial: out,
		CraftCost:   elapsed / time.Duration(t.Len()),
	}, nil
}

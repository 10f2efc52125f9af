// Package resilience implements the paper's two resilience metrics:
//
//   - Impact quantifies the extent of an attack's effect on the model —
//     performance drift for poisoning attacks, misclassification gain for
//     evasion attacks. Higher impact means a more vulnerable model.
//   - Complexity quantifies the effort an attacker needs — crafting cost
//     per adversarial sample for evasion, poisoned-data fraction for
//     poisoning. Higher complexity means a harder attack.
package resilience

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// Report is the resilience assessment of one (model, attack) pair.
type Report struct {
	// Impact is in [0, 1]: 0 = the attack achieved nothing.
	Impact float64 `json:"impact"`
	// Complexity is the attacker-effort measure; its unit is in
	// ComplexityUnit ("us/sample" for evasion, "poison-fraction" for
	// poisoning).
	Complexity     float64 `json:"complexity"`
	ComplexityUnit string  `json:"complexityUnit"`
	// BaselineAccuracy and AttackedAccuracy give the drift context.
	BaselineAccuracy float64 `json:"baselineAccuracy"`
	AttackedAccuracy float64 `json:"attackedAccuracy"`
}

// PoisonImpact measures relative performance drift: (base − poisoned)/base
// on the given metric values, clamped to [0, 1]. Poisoning that improves
// the model reports zero impact.
func PoisonImpact(baseline, poisoned float64) float64 {
	if baseline <= 0 {
		return 0
	}
	imp := (baseline - poisoned) / baseline
	if imp < 0 {
		return 0
	}
	if imp > 1 {
		return 1
	}
	return imp
}

// Poisoning builds the resilience report for a poisoning attack from the
// baseline and poisoned evaluation metrics and the poison rate, which is
// the attack's complexity measure (the attacker must control that fraction
// of the training data).
func Poisoning(baseline, poisoned ml.Metrics, rate float64) (Report, error) {
	if rate < 0 || rate > 1 {
		return Report{}, fmt.Errorf("resilience: poison rate %v outside [0,1]", rate)
	}
	return Report{
		Impact:           PoisonImpact(baseline.Accuracy, poisoned.Accuracy),
		Complexity:       rate,
		ComplexityUnit:   "poison-fraction",
		BaselineAccuracy: baseline.Accuracy,
		AttackedAccuracy: poisoned.Accuracy,
	}, nil
}

// Evasion builds the resilience report for an evasion attack: impact is
// the fraction of originally-correct predictions flipped by the
// adversarial inputs (misclassification gain), and complexity is the
// measured crafting cost per sample in microseconds.
func Evasion(victim ml.Classifier, clean, adversarial *dataset.Table, craftCost time.Duration) (Report, error) {
	if clean.Len() == 0 || clean.Len() != adversarial.Len() {
		return Report{}, fmt.Errorf("resilience: clean/adversarial size mismatch %d vs %d", clean.Len(), adversarial.Len())
	}
	if err := ml.CheckInput(victim, clean.NumFeatures(), nil); err != nil {
		return Report{}, fmt.Errorf("resilience: clean table: %w", err)
	}
	if err := ml.CheckInput(victim, adversarial.NumFeatures(), nil); err != nil {
		return Report{}, fmt.Errorf("resilience: adversarial table: %w", err)
	}
	// Two prediction passes carry every number of the report.
	before, after := ml.PredictBatch(victim, clean), ml.PredictBatch(victim, adversarial)
	var correctBefore, flipped int
	for i, y := range clean.Y {
		if before[i] != y {
			continue
		}
		correctBefore++
		if after[i] != y {
			flipped++
		}
	}
	var impact float64
	if correctBefore > 0 {
		impact = float64(flipped) / float64(correctBefore)
	}
	baseMetrics, err := ml.ScorePredictions(before, clean.Y, clean.ClassNames)
	if err != nil {
		return Report{}, fmt.Errorf("evasion baseline eval: %w", err)
	}
	advMetrics, err := ml.ScorePredictions(after, adversarial.Y, adversarial.ClassNames)
	if err != nil {
		return Report{}, fmt.Errorf("evasion attacked eval: %w", err)
	}
	return Report{
		Impact:           impact,
		Complexity:       float64(craftCost.Nanoseconds()) / 1e3,
		ComplexityUnit:   "us/sample",
		BaselineAccuracy: baseMetrics.Accuracy,
		AttackedAccuracy: advMetrics.Accuracy,
	}, nil
}

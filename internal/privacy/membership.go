// Package privacy implements the privacy side of SPATIAL's trustworthy
// properties: a membership-inference attack (the confidentiality threat of
// Fig. 1 — "its output predictions leak information that can be used to
// ... reconstruct its training data") used as a measurable privacy sensor,
// and differentially-private training as the corresponding mitigation.
package privacy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/ml"
)

// MembershipResult quantifies how well a confidence-threshold attacker
// (Yeom et al. style) separates training members from non-members.
type MembershipResult struct {
	// Advantage is TPR − FPR at the attacker's best threshold, in
	// [0, 1]; 0 means the model leaks nothing.
	Advantage float64 `json:"advantage"`
	// AttackAccuracy is the attacker's best balanced accuracy.
	AttackAccuracy float64 `json:"attackAccuracy"`
	// Threshold is the confidence cut the attacker would deploy.
	Threshold float64 `json:"threshold"`
	// MeanMemberConf / MeanNonMemberConf expose the raw gap.
	MeanMemberConf    float64 `json:"meanMemberConf"`
	MeanNonMemberConf float64 `json:"meanNonMemberConf"`
}

// MembershipInference runs the confidence-threshold attack: the model's
// confidence in the true label is computed for known members (training
// rows) and non-members (held-out rows), and the attacker picks the
// threshold maximizing balanced accuracy. Models that overfit assign
// visibly higher confidence to members and yield a positive advantage.
func MembershipInference(model ml.Classifier, members, nonMembers *dataset.Table) (MembershipResult, error) {
	if model == nil {
		return MembershipResult{}, fmt.Errorf("privacy: nil model")
	}
	if members.Len() == 0 || nonMembers.Len() == 0 {
		return MembershipResult{}, fmt.Errorf("privacy: need both member and non-member samples")
	}
	if err := ml.CheckInput(model, members.NumFeatures(), members.Y); err != nil {
		return MembershipResult{}, fmt.Errorf("privacy: members table: %w", err)
	}
	if err := ml.CheckInput(model, nonMembers.NumFeatures(), nonMembers.Y); err != nil {
		return MembershipResult{}, fmt.Errorf("privacy: nonMembers table: %w", err)
	}
	confidences := func(t *dataset.Table) []float64 {
		out := make([]float64, t.Len())
		for i, p := range ml.PredictProbaAll(model, t.X) {
			out[i] = p[t.Y[i]]
		}
		return out
	}
	memberConf := confidences(members)
	nonMemberConf := confidences(nonMembers)

	res := MembershipResult{
		MeanMemberConf:    mat.Mean(memberConf),
		MeanNonMemberConf: mat.Mean(nonMemberConf),
	}

	// Sweep candidate thresholds (every observed confidence).
	candidates := make([]float64, 0, len(memberConf)+len(nonMemberConf))
	candidates = append(candidates, memberConf...)
	candidates = append(candidates, nonMemberConf...)
	sort.Float64s(candidates)

	best := -1.0
	for _, thr := range candidates {
		tpr := fracAtLeast(memberConf, thr)
		fpr := fracAtLeast(nonMemberConf, thr)
		adv := tpr - fpr
		if adv > best {
			best = adv
			res.Threshold = thr
		}
	}
	if best < 0 {
		best = 0
	}
	res.Advantage = best
	res.AttackAccuracy = 0.5 + best/2
	return res, nil
}

func fracAtLeast(vals []float64, thr float64) float64 {
	n := 0
	for _, v := range vals {
		if v >= thr {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}

// PrivacyScore converts an attack advantage into a [0, 1] sensor value
// (1 = no measurable leakage), the normalization SPATIAL's privacy sensor
// publishes.
func PrivacyScore(advantage float64) float64 {
	if advantage <= 0 {
		return 1
	}
	if advantage >= 1 {
		return 0
	}
	return 1 - advantage
}

// ApproxEpsilon estimates the (ε, δ)-DP budget of DP-SGD-style training
// with the given noise multiplier, sampling rate and number of steps,
// using the strong-composition-style bound
//
//	ε ≈ q·steps^(1/2) · sqrt(2·ln(1/δ)) / σ
//
// This is a coarse, documented approximation (the reproduction does not
// ship a moments accountant); it is monotone in the right directions —
// more noise → smaller ε, more steps or higher sampling rate → larger ε —
// which is what the privacy sensor needs.
func ApproxEpsilon(noiseMultiplier, samplingRate float64, steps int, delta float64) (float64, error) {
	if noiseMultiplier <= 0 {
		return 0, fmt.Errorf("privacy: noise multiplier must be positive")
	}
	if samplingRate <= 0 || samplingRate > 1 {
		return 0, fmt.Errorf("privacy: sampling rate %v outside (0,1]", samplingRate)
	}
	if steps <= 0 {
		return 0, fmt.Errorf("privacy: steps must be positive")
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("privacy: delta %v outside (0,1)", delta)
	}
	return samplingRate * math.Sqrt(float64(steps)) * math.Sqrt(2*math.Log(1/delta)) / noiseMultiplier, nil
}

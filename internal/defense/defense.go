// Package defense implements the corrective actions SPATIAL's human
// operators apply when the dashboard flags an attack (§VII: "requiring to
// monitor further the model to apply corrective actions, e.g., Label
// sanitization methods"):
//
//   - label sanitization: kNN-consensus relabeling or filtering of
//     suspicious training labels, the standard counter to label-flipping
//     poisoning;
//   - ensemble smoothing: majority voting over independently trained
//     models, which damps the influence of poisoned subsets (bagging
//     defense);
//   - adversarial input filtering: a distance-to-training-manifold test
//     that flags evasion inputs before they reach the model.
package defense

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/ml"
)

// SanitizeMode selects what happens to a label that disagrees with its
// neighbourhood.
type SanitizeMode int

// Sanitization modes.
const (
	// Relabel replaces a suspicious label with the neighbourhood
	// majority.
	Relabel SanitizeMode = iota + 1
	// Drop removes the suspicious sample entirely.
	Drop
)

// SanitizeReport describes what label sanitization changed.
type SanitizeReport struct {
	Inspected int `json:"inspected"`
	Relabeled int `json:"relabeled"`
	Dropped   int `json:"dropped"`
}

// SanitizeLabels applies kNN-consensus label cleaning: for every sample,
// the labels of its k nearest neighbours (in feature space, excluding
// itself) are tallied, and if a strict majority disagrees with the
// sample's label the sample is relabeled or dropped per mode. It returns a
// cleaned copy and a report.
//
// This is the classical defense against random label flipping: flipped
// labels sit inside a neighbourhood of clean ones and lose the vote.
func SanitizeLabels(t *dataset.Table, k int, mode SanitizeMode) (*dataset.Table, SanitizeReport, error) {
	var rep SanitizeReport
	if k < 1 {
		return nil, rep, fmt.Errorf("defense: k must be >= 1, got %d", k)
	}
	if mode != Relabel && mode != Drop {
		return nil, rep, fmt.Errorf("defense: unknown sanitize mode %d", mode)
	}
	n := t.Len()
	if n < k+1 {
		return nil, rep, fmt.Errorf("defense: need more than k=%d samples, have %d", k, n)
	}

	// Majority label among each sample's k nearest neighbours.
	majority := make([]int, n)
	type distIdx struct {
		d float64
		i int
	}
	dists := make([]distIdx, 0, n-1)
	counts := make([]int, t.NumClasses())
	for i := 0; i < n; i++ {
		dists = dists[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dists = append(dists, distIdx{d: mat.Dist2(t.X[i], t.X[j]), i: j})
		}
		sort.Slice(dists, func(a, b int) bool { return dists[a].d < dists[b].d })
		for c := range counts {
			counts[c] = 0
		}
		for _, nb := range dists[:k] {
			counts[t.Y[nb.i]]++
		}
		best, bestCount := t.Y[i], 0
		for c, cnt := range counts {
			if cnt > bestCount {
				best, bestCount = c, cnt
			}
		}
		// Strict majority required to overrule the recorded label.
		if bestCount*2 > k && best != t.Y[i] {
			majority[i] = best
		} else {
			majority[i] = t.Y[i]
		}
	}

	out := dataset.New(t.Name, t.FeatureNames, t.ClassNames)
	for i := 0; i < n; i++ {
		rep.Inspected++
		switch {
		case majority[i] == t.Y[i]:
			if err := out.Append(t.X[i], t.Y[i]); err != nil {
				return nil, rep, err
			}
		case mode == Relabel:
			rep.Relabeled++
			if err := out.Append(t.X[i], majority[i]); err != nil {
				return nil, rep, err
			}
		default: // Drop
			rep.Dropped++
		}
	}
	if out.Len() == 0 {
		return nil, rep, fmt.Errorf("defense: sanitization dropped every sample")
	}
	return out, rep, nil
}

// VotingEnsemble is a majority-probability ensemble over independently
// trained models — the bagging-style smoothing defense against poisoning.
type VotingEnsemble struct {
	Members []ml.Classifier
	classes int
}

var _ ml.Classifier = (*VotingEnsemble)(nil)

// NewVotingEnsemble builds an ensemble from model factories; each member
// trains on an independent bootstrap of the data during Fit.
func NewVotingEnsemble(factories ...func() (ml.Classifier, error)) (*VotingEnsemble, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("defense: ensemble needs at least one member factory")
	}
	e := &VotingEnsemble{}
	for i, f := range factories {
		m, err := f()
		if err != nil {
			return nil, fmt.Errorf("defense: factory %d: %w", i, err)
		}
		e.Members = append(e.Members, m)
	}
	return e, nil
}

// Name implements ml.Classifier.
func (e *VotingEnsemble) Name() string { return "vote-ensemble" }

// NumClasses implements ml.Classifier.
func (e *VotingEnsemble) NumClasses() int { return e.classes }

// Fit implements ml.Classifier: each member trains on its own bootstrap
// resample, so a poisoned subset cannot dominate every member.
func (e *VotingEnsemble) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("defense: ensemble fit on empty dataset")
	}
	e.classes = t.NumClasses()
	for i, m := range e.Members {
		rng := rand.New(rand.NewSource(int64(i)*104729 + 1))
		idx := make([]int, t.Len())
		for j := range idx {
			idx[j] = rng.Intn(t.Len())
		}
		if err := m.Fit(t.Subset(idx)); err != nil {
			return fmt.Errorf("defense: member %d fit: %w", i, err)
		}
	}
	return nil
}

// PredictProba implements ml.Classifier by averaging member probabilities.
func (e *VotingEnsemble) PredictProba(x []float64) []float64 {
	if e.classes == 0 {
		panic(ml.ErrNotTrained)
	}
	acc := make([]float64, e.classes)
	for _, m := range e.Members {
		p := m.PredictProba(x)
		// Reslice hint: members were fitted on the same class count, so
		// each row is acc-length; accumulate through the pinned view.
		sum := acc[:len(p)]
		for c, v := range p {
			sum[c] += v
		}
	}
	inv := 1 / float64(len(e.Members))
	for c := range acc {
		acc[c] *= inv
	}
	return acc
}

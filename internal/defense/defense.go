// Package defense implements the corrective actions SPATIAL's human
// operators apply when the dashboard flags an attack (§VII: "requiring to
// monitor further the model to apply corrective actions, e.g., Label
// sanitization methods"): label sanitization, the kNN-consensus
// relabeling or filtering of suspicious training labels that is the
// standard counter to label-flipping poisoning.
package defense

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mat"
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

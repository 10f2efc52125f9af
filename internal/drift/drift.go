// Package drift implements the data-drift detection SPATIAL's monitoring
// stage needs: trustworthy computing demands "a quantifiable understanding
// of performance sensitivity to drifts" (§I), and the paper's roadmap
// flags stale monitoring baselines as a vulnerability. The detector
// compares live feature distributions against a training-time reference
// with the two standard measures — the Kolmogorov–Smirnov statistic and
// the Population Stability Index — and feeds a drift sensor.
package drift

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
)

// FeatureReport is the drift assessment of one feature.
type FeatureReport struct {
	Feature string  `json:"feature"`
	KS      float64 `json:"ks"`      // two-sample KS statistic in [0,1]
	KSPLow  bool    `json:"ksPLow"`  // KS p-value below the configured alpha
	PSI     float64 `json:"psi"`     // population stability index
	Drifted bool    `json:"drifted"` // either test flags this feature
}

// Report is the drift assessment of a batch against the reference.
type Report struct {
	Features []FeatureReport `json:"features"`
	// DriftedFraction is the share of features flagged.
	DriftedFraction float64 `json:"driftedFraction"`
	// Drifted aggregates: true when any feature drifted.
	Drifted bool `json:"drifted"`
}

// Detector holds the reference distribution fitted from training data.
type Detector struct {
	// alpha is the KS significance level (default 0.01).
	alpha float64
	// psiThreshold flags a feature when its PSI exceeds it; the
	// conventional "significant shift" bar is 0.2 (default).
	psiThreshold float64
	// bins is the PSI histogram resolution (default 10).
	bins int

	featureNames []string
	// sortedRef[j] is feature j's reference sample, sorted.
	sortedRef [][]float64
	// binEdges[j] are the PSI quantile edges; refFrac[j] the reference
	// mass per bin.
	binEdges [][]float64
	refFrac  [][]float64
}

// Fit builds a detector from reference (training-time) data.
func Fit(reference *dataset.Table, alpha, psiThreshold float64, bins int) (*Detector, error) {
	if reference.Len() < 10 {
		return nil, fmt.Errorf("drift: need at least 10 reference samples, have %d", reference.Len())
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.01
	}
	if psiThreshold <= 0 {
		psiThreshold = 0.2
	}
	if bins < 2 {
		bins = 10
	}
	d := reference.NumFeatures()
	det := &Detector{
		alpha:        alpha,
		psiThreshold: psiThreshold,
		bins:         bins,
		featureNames: append([]string(nil), reference.FeatureNames...),
		sortedRef:    make([][]float64, d),
		binEdges:     make([][]float64, d),
		refFrac:      make([][]float64, d),
	}
	n := reference.Len()
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		for i, row := range reference.X {
			col[i] = row[j]
		}
		sort.Float64s(col)
		det.sortedRef[j] = col

		// Quantile bin edges (interior edges only).
		edges := make([]float64, 0, bins-1)
		for q := 1; q < bins; q++ {
			v := col[q*n/bins]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		det.binEdges[j] = edges
		det.refFrac[j] = histogramFrac(col, edges)
	}
	return det, nil
}

// Detect scores a live batch against the reference.
func (det *Detector) Detect(batch *dataset.Table) (Report, error) {
	if batch.NumFeatures() != len(det.sortedRef) {
		return Report{}, fmt.Errorf("drift: batch has %d features, reference %d", batch.NumFeatures(), len(det.sortedRef))
	}
	if batch.Len() < 2 {
		return Report{}, fmt.Errorf("drift: need at least 2 batch samples, have %d", batch.Len())
	}
	var rep Report
	drifted := 0
	col := make([]float64, batch.Len())
	for j := range det.sortedRef {
		for i, row := range batch.X {
			col[i] = row[j]
		}
		sort.Float64s(col)

		ks := ksStatistic(det.sortedRef[j], col)
		pLow := ksSignificant(ks, len(det.sortedRef[j]), len(col), det.alpha)
		psi := psiValue(det.refFrac[j], histogramFrac(col, det.binEdges[j]))
		fr := FeatureReport{
			Feature: det.featureNames[j],
			KS:      ks,
			KSPLow:  pLow,
			PSI:     psi,
			Drifted: pLow || psi > det.psiThreshold,
		}
		if fr.Drifted {
			drifted++
		}
		rep.Features = append(rep.Features, fr)
	}
	rep.DriftedFraction = float64(drifted) / float64(len(rep.Features))
	rep.Drifted = drifted > 0
	return rep, nil
}

// Score converts a report into the [0, 1] sensor value (1 = no drift).
func Score(r Report) float64 { return 1 - r.DriftedFraction }

// ksStatistic computes the two-sample Kolmogorov–Smirnov statistic of two
// sorted samples.
func ksStatistic(a, b []float64) float64 {
	var i, j int
	var d float64
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			// Tie: consume every equal value from both samples before
			// comparing the empirical CDFs, otherwise identical samples
			// report spurious gaps.
			v := a[i]
			for i < len(a) && a[i] == v {
				i++
			}
			for j < len(b) && b[j] == v {
				j++
			}
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// ksSignificant applies the asymptotic two-sample KS test: reject equality
// at level alpha when D > c(alpha)·sqrt((n+m)/(n·m)) with
// c(alpha) = sqrt(−ln(alpha/2)/2).
func ksSignificant(d float64, n, m int, alpha float64) bool {
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return d > c*math.Sqrt(float64(n+m)/float64(n*m))
}

// histogramFrac returns the per-bin mass of a sorted sample for the given
// interior edges (len(edges)+1 bins), with a small floor to keep PSI
// finite.
func histogramFrac(sorted []float64, edges []float64) []float64 {
	counts := make([]float64, len(edges)+1)
	for _, v := range sorted {
		bin := sort.SearchFloat64s(edges, v)
		counts[bin]++
	}
	n := float64(len(sorted))
	for i := range counts {
		counts[i] = (counts[i] + 1e-4) / (n + 1e-4*float64(len(counts)))
	}
	return counts
}

// psiValue computes sum((cur−ref)·ln(cur/ref)).
func psiValue(ref, cur []float64) float64 {
	var psi float64
	for i := range ref {
		psi += (cur[i] - ref[i]) * math.Log(cur[i]/ref[i])
	}
	return psi
}

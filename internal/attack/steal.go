package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// StealResult reports a model-extraction attack: the trained surrogate and
// its agreement with the victim.
type StealResult struct {
	// Surrogate is the attacker's clone.
	Surrogate ml.Classifier
	// Fidelity is the fraction of evaluation inputs where surrogate and
	// victim agree (the standard extraction metric).
	Fidelity float64
	// Queries is the number of prediction-API calls spent.
	Queries int
}

// StealModel runs a prediction-API extraction attack (Tramèr et al.
// style): the attacker samples query inputs, labels them with the victim's
// predictions, and trains a surrogate on the stolen labels. evalOn
// provides the inputs on which fidelity is measured (typically a held-out
// set the attacker does not control).
func StealModel(victim ml.Classifier, surrogate ml.Classifier, queries [][]float64, featureNames, classNames []string, evalOn [][]float64) (StealResult, error) {
	if victim == nil || surrogate == nil {
		return StealResult{}, fmt.Errorf("attack: steal needs victim and surrogate")
	}
	if len(queries) == 0 {
		return StealResult{}, fmt.Errorf("attack: steal needs query inputs")
	}
	if len(evalOn) == 0 {
		return StealResult{}, fmt.Errorf("attack: steal needs evaluation inputs")
	}

	stolen := dataset.New("stolen", featureNames, classNames)
	labels := ml.ArgmaxAll(ml.PredictProbaAll(victim, queries))
	for i, q := range queries {
		if err := stolen.Append(q, labels[i]); err != nil {
			return StealResult{}, fmt.Errorf("label query: %w", err)
		}
	}
	if err := surrogate.Fit(stolen); err != nil {
		return StealResult{}, fmt.Errorf("fit surrogate: %w", err)
	}

	agree := 0
	want := ml.ArgmaxAll(ml.PredictProbaAll(victim, evalOn))
	for i, got := range ml.ArgmaxAll(ml.PredictProbaAll(surrogate, evalOn)) {
		if got == want[i] {
			agree++
		}
	}
	return StealResult{
		Surrogate: surrogate,
		Fidelity:  float64(agree) / float64(len(evalOn)),
		Queries:   len(queries),
	}, nil
}

// UniformQueries generates n query points uniformly inside the per-feature
// [min, max] box of reference data — the attacker's query distribution
// when no real data is available.
func UniformQueries(reference [][]float64, n int, seed int64) ([][]float64, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("attack: need reference rows to bound queries")
	}
	d := len(reference[0])
	mins := append([]float64(nil), reference[0]...)
	maxs := append([]float64(nil), reference[0]...)
	for _, row := range reference[1:] {
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = mins[j] + rng.Float64()*(maxs[j]-mins[j])
		}
		out[i] = row
	}
	return out, nil
}

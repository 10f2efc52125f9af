package xai

import (
	"fmt"

	"repro/internal/ml"
)

// blockFloats is how many floats of perturbed rows the explainers hold at
// a time: they fill that many, score them in one ml.PredictProbaAll call
// (the model's batch kernel when it has one) and refill. A constant, so an
// explanation's memory does not grow with its sample budget; 8 192 floats
// is 388 rows of the probe's 21 features (blockRows), enough to amortize a
// batch call.
const blockFloats = 8192

// blockRows is how many rows of width d a scored block holds: as many as
// blockFloats takes, rounded down to whole four-row tiles of the MLP's
// batch kernel and never under one tile. A block that ends mid-tile would
// send its last rows down the kernel's one-row path in every block.
func blockRows(d int) int {
	return max(4, blockFloats/d&^3)
}

// MaxSamples is the largest sample budget KernelSHAP, TabularLIME and
// ImageLIME accept. Each sample is a row of the surrogate regression's
// design matrix, allocated before any is scored, and the budget arrives in
// the request: without a bound, 1<<62 panics in makeslice and 1e8 asks for
// gigabytes. The largest budget any caller in this module sets is 4 000.
const MaxSamples = 1 << 16

// checkSamples refuses a sample budget above MaxSamples.
func checkSamples(n int) error {
	if n > MaxSamples {
		return fmt.Errorf("xai: %d samples exceeds the limit of %d", n, MaxSamples)
	}
	return nil
}

// scoreRows puts n perturbed rows of width d through the model and hands
// back the class column. fill(i, row) writes row i into a reused buffer;
// use(i, p) receives row i's probability of class. Both run in ascending i,
// a block of fills before that block's uses, so a fill may draw from an
// RNG but must not depend on an earlier row's score.
func scoreRows(model ml.Classifier, class, d, n int, fill func(i int, row []float64), use func(i int, p float64)) error {
	if err := ml.CheckInput(model, d, nil); err != nil {
		return fmt.Errorf("xai: %w", err)
	}
	per := min(n, blockRows(d))
	flat := make([]float64, per*d)
	rows := make([][]float64, per)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	for base := 0; base < n; base += per {
		block := rows[:min(per, n-base)]
		for i, row := range block {
			fill(base+i, row)
		}
		for i, p := range ml.PredictProbaAll(model, block) {
			use(base+i, p[class])
		}
	}
	return nil
}

// coalitionValues returns, for each of n feature coalitions of x, the mean
// class probability over hybrids that take the coalition's features from x
// and the rest from each background row in turn. present(c, j) reports
// whether coalition c holds feature j.
func coalitionValues(model ml.Classifier, class int, x []float64, background [][]float64, n int, present func(c, j int) bool) ([]float64, error) {
	nb := len(background)
	values := make([]float64, n)
	var total float64
	err := scoreRows(model, class, len(x), n*nb,
		func(i int, hybrid []float64) {
			c, b := i/nb, background[i%nb]
			for j := range hybrid {
				if present(c, j) {
					hybrid[j] = x[j]
				} else {
					hybrid[j] = b[j]
				}
			}
		},
		func(i int, p float64) {
			total += p
			if (i+1)%nb == 0 {
				values[i/nb] = total / float64(nb)
				total = 0
			}
		})
	return values, err
}

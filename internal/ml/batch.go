package ml

import (
	"repro/internal/mat"
)

// BatchPredictor is implemented by classifiers with a batch-aware
// prediction kernel. Tree ensembles traverse tree-major, four instances
// of the batch through one tree in lockstep before moving to the next:
// the walk is branch-free, so what it amortises is the latency of its
// dependent loads, which four independent rows overlap. They accumulate
// directly into the output rows instead of allocating a probability
// slice per tree per instance — the amortization the serving runtime's
// micro-batching exists to exploit. The MLP takes four instances at a
// time too, as one lane-interleaved tile: four rows' add chains, which one
// row alone must run end to end, advance together in one 256-bit vector.
type BatchPredictor interface {
	// PredictProbaBatch returns one probability row per instance. The
	// result rows are owned by the caller.
	PredictProbaBatch(X [][]float64) [][]float64
}

// PredictProbaAll returns class-probability rows for every instance,
// dispatching to the model's batch kernel when it has one and falling
// back to the per-instance loop otherwise. It is the single prediction
// helper shared by the serving workers and the explainers.
func PredictProbaAll(c Classifier, X [][]float64) [][]float64 {
	if len(X) == 0 {
		return nil
	}
	if bp, ok := c.(BatchPredictor); ok {
		return bp.PredictProbaBatch(X)
	}
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = c.PredictProba(x)
	}
	return out
}

// ArgmaxAll maps probability rows to argmax class labels (first index on
// ties, matching mat.ArgMax).
func ArgmaxAll(probs [][]float64) []int {
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = mat.ArgMax(p)
	}
	return out
}

// probaRowsScratch allocates n contiguous probability rows of k classes
// backed by one flat slice, keeping a batch's output cache-dense, plus
// extra scratch floats carved from the same backing array: batch kernels
// get their key rows, accumulators and tiles without another allocation.
func probaRowsScratch(n, k, extra int) ([][]float64, []float64) {
	flat := make([]float64, n*k+extra)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows, flat[n*k:]
}

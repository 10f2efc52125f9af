package ml

import "testing"

// TestPredictAllocBudgets asserts the serial and batched Forest/GBDT
// predict paths and the MLP batch kernel stay within their allocation
// ceilings. The ceilings are the counts measured when each path reached
// its floor: lower one when a change earns it; raising one is a
// regression.
func TestPredictAllocBudgets(t *testing.T) {
	data := blobs(7, 238, 6, 3, 1.5)
	f := NewForest(ForestConfig{Trees: 20, MaxDepth: 8, MinLeaf: 1, MaxFeatures: -1, Seed: 1})
	g := NewGBDT(DefaultLightGBMConfig())
	cfg := DefaultMLPConfig()
	cfg.Epochs = 1
	n := NewMLP(cfg)
	for _, c := range []Classifier{f, g, n} {
		if err := c.Fit(data); err != nil {
			t.Fatal(err)
		}
	}
	x := data.X[0]
	batch := data.X[:32]

	for _, p := range []struct {
		name   string
		budget float64
		run    func()
	}{
		// The returned probability row; the caller owns it.
		{"forest/serial", 1, func() { f.PredictProba(x) }},
		// probaRows: one flat backing slice + one row-header slice per batch.
		{"forest/batched", 2, func() { f.PredictProbaBatch(batch) }},
		// The logits row, softmaxed in place and returned.
		{"gbdt/serial", 1, func() { g.PredictProba(x) }},
		// probaRows, as for the forest.
		{"gbdt/batched", 2, func() { g.PredictProbaBatch(batch) }},
		// probaRowsScratch: one flat slice for the output and both
		// four-lane tiles + one row-header slice per batch, whatever its
		// size.
		{"mlp/batched", 2, func() { n.PredictProbaBatch(batch) }},
	} {
		if got := testing.AllocsPerRun(200, p.run); got > p.budget {
			t.Errorf("%s: %v allocs/op exceeds budget %v", p.name, got, p.budget)
		}
	}

	// The MLP kernel's allocations do not depend on the row count: one
	// row, or several tiles with a ragged last block, cost the same.
	one := testing.AllocsPerRun(50, func() { n.PredictProbaBatch(data.X[:1]) })
	all := testing.AllocsPerRun(50, func() { n.PredictProbaBatch(data.X) })
	if one != all {
		t.Errorf("mlp/batched: %v allocs for 1 row, %v for %d rows", one, all, data.Len())
	}
}

// TestFitAllocsIndependentOfEpochs: Fit allocates its buffers once, so one
// epoch and five cost the same allocations; a per-batch or per-epoch
// allocation inside the training loop shows up as a difference.
func TestFitAllocsIndependentOfEpochs(t *testing.T) {
	data := blobs(3, 61, 6, 2, 1.5)
	fits := func(epochs int) float64 {
		cfg := MLPConfig{Hidden: []int{13, 13}, LearningRate: 0.05, Momentum: 0.9, Epochs: epochs, BatchSize: 7, Seed: 1}
		return testing.AllocsPerRun(5, func() {
			if err := NewMLP(cfg).Fit(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, five := fits(1), fits(5); one != five {
		t.Errorf("Fit: %v allocs at 1 epoch, %v at 5", one, five)
	}
}

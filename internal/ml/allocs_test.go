package ml

import (
	"encoding/json"
	"os"
	"testing"
)

// perfManifest mirrors the slice of ../../.perf-manifest.json this test
// consumes (the allocBudgets section spatial-perfgate's generator carries
// over verbatim). Decoding it here instead of importing internal/perfgate
// keeps the dependency arrow pointing from the gate to the kernels, not
// back.
type perfManifest struct {
	AllocBudgets map[string]struct {
		Func           string  `json:"func"`
		MaxAllocsPerOp float64 `json:"maxAllocsPerOp"`
	} `json:"allocBudgets"`
}

// TestPredictAllocBudgets asserts the serial and batched Forest/GBDT
// predict paths and the MLP batch kernel stay within the allocation
// ceilings committed in .perf-manifest.json, and that the manifest and this
// test agree on the path set — a budget without a measurement (or vice
// versa) fails, so neither side can silently drift.
func TestPredictAllocBudgets(t *testing.T) {
	buf, err := os.ReadFile("../../.perf-manifest.json")
	if err != nil {
		t.Fatalf("reading perf manifest (regenerate with make perfgate-manifest): %v", err)
	}
	var m perfManifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("perf manifest: %v", err)
	}
	if len(m.AllocBudgets) == 0 {
		t.Fatal("perf manifest has no allocBudgets section")
	}

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

	// allocPaths is the fixed set of predict paths this test knows how to
	// measure, keyed exactly as the manifest's allocBudgets section.
	allocPaths := map[string]func(){
		"forest/serial":  func() { f.PredictProba(x) },
		"forest/batched": func() { f.PredictProbaBatch(batch) },
		"gbdt/serial":    func() { g.PredictProba(x) },
		"gbdt/batched":   func() { g.PredictProbaBatch(batch) },
		"mlp/batched":    func() { n.PredictProbaBatch(batch) },
	}
	for key := range m.AllocBudgets {
		if allocPaths[key] == nil {
			t.Errorf("manifest budgets %q but this test cannot measure it; teach allocPaths about it", key)
		}
	}
	for key, run := range allocPaths {
		budget, ok := m.AllocBudgets[key]
		if !ok {
			t.Errorf("predict path %q has no allocBudgets entry in .perf-manifest.json", key)
			continue
		}
		got := testing.AllocsPerRun(200, run)
		if got > budget.MaxAllocsPerOp {
			t.Errorf("%s (%s): %v allocs/op exceeds committed budget %v",
				key, budget.Func, got, budget.MaxAllocsPerOp)
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

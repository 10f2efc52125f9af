package ml

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dataset"
)

// ForestConfig configures a random forest.
type ForestConfig struct {
	Trees       int   `json:"trees"`
	MaxDepth    int   `json:"maxDepth"`
	MinLeaf     int   `json:"minLeaf"`
	MaxFeatures int   `json:"maxFeatures"` // per-split feature budget; -1 = sqrt(d)
	Seed        int64 `json:"seed"`
}

// DefaultForestConfig returns the configuration used by the experiments.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 100, MaxDepth: 0, MinLeaf: 1, MaxFeatures: -1, Seed: 1}
}

// Forest is a random forest: bagged CART trees with per-split feature
// subsampling, averaged by probability. The paper's use case 1 highlights
// RF as the most poisoning-resilient model.
type Forest struct {
	Cfg ForestConfig

	Members []*Tree
	classes int

	// leafProbs caches, per member tree, the smoothed leaf distribution
	// of every node (flattened nodeIdx*classes+c). Built lazily on the
	// first batch prediction; Fit invalidates it.
	leafMu    sync.Mutex
	leafProbs [][]float64
}

var _ Classifier = (*Forest)(nil)

// NewForest constructs an untrained forest.
func NewForest(cfg ForestConfig) *Forest { return &Forest{Cfg: cfg} }

// Name implements Classifier.
func (f *Forest) Name() string { return "rf" }

// NumClasses implements Classifier.
func (f *Forest) NumClasses() int { return f.classes }

// Fit implements Classifier. Trees are trained concurrently, each on its
// own bootstrap resample and with an independent deterministic RNG stream.
func (f *Forest) Fit(d *dataset.Table) error {
	if d.Len() == 0 {
		return fmt.Errorf("rf fit: empty dataset")
	}
	if f.Cfg.Trees <= 0 {
		return fmt.Errorf("rf fit: Trees must be positive, got %d", f.Cfg.Trees)
	}
	f.classes = d.NumClasses()
	f.Members = make([]*Tree, f.Cfg.Trees)
	f.leafMu.Lock()
	f.leafProbs = nil // invalidate any cached leaf distributions
	f.leafMu.Unlock()

	workers := runtime.NumCPU()
	if workers > f.Cfg.Trees {
		workers = f.Cfg.Trees
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				if err := f.fitOne(d, ti); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("rf tree %d: %w", ti, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for ti := 0; ti < f.Cfg.Trees; ti++ {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

func (f *Forest) fitOne(d *dataset.Table, ti int) error {
	rng := rand.New(rand.NewSource(f.Cfg.Seed + int64(ti)*7919))
	n := d.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	tree := NewTree(TreeConfig{
		MaxDepth:    f.Cfg.MaxDepth,
		MinLeaf:     f.Cfg.MinLeaf,
		MaxFeatures: f.Cfg.MaxFeatures,
	})
	if err := tree.FitIndices(d, idx, rng); err != nil {
		return err
	}
	f.Members[ti] = tree
	return nil
}

// leafDistributions returns (building on first use) the per-tree cache
// of smoothed leaf distributions, flattened nodeIdx*classes+c. The rows
// are computed with exactly the probaFromCounts arithmetic — identical
// operands and operation order, so identical bits — and internal nodes
// keep zero rows that are never read. Fit invalidates the cache.
func (f *Forest) leafDistributions() [][]float64 {
	f.leafMu.Lock()
	defer f.leafMu.Unlock()
	if f.leafProbs != nil {
		return f.leafProbs
	}
	k := f.classes
	uniform := 1 / float64(k)
	lp := make([][]float64, len(f.Members))
	for m, t := range f.Members {
		probs := make([]float64, len(t.Nodes)*k)
		for ni := range t.Nodes {
			node := &t.Nodes[ni]
			if node.Feature >= 0 {
				continue
			}
			var total float64
			for _, c := range node.Counts {
				total += c
			}
			row := probs[ni*k : ni*k+k]
			if total == 0 {
				for c := 0; c < k; c++ {
					row[c] = uniform
				}
				continue
			}
			denom := total + float64(k)*1e-9
			counts := node.Counts[:k]
			for c := 0; c < k; c++ {
				row[c] = (counts[c] + 1e-9) / denom
			}
		}
		lp[m] = probs
	}
	f.leafProbs = lp
	return lp
}

// PredictProbaBatch implements BatchPredictor with a tree-major
// traversal: each member tree scores the whole batch before the next is
// touched, so its node slice stays cache-resident, and the cached leaf
// distribution accumulates straight into the output rows instead of
// allocating (and re-dividing) one probability slice per tree per
// instance. The accumulation order per instance matches PredictProba
// (member order), so results are bit-identical to the per-instance path.
func (f *Forest) PredictProbaBatch(X [][]float64) [][]float64 {
	if len(f.Members) == 0 {
		panic(ErrNotTrained)
	}
	k := f.classes
	out := probaRows(len(X), k)
	// Reslice hints: pin the lengths the allocation sites guarantee so
	// the row and member indexing below is provably in bounds.
	out = out[:len(X)]
	leaves := f.leafDistributions()
	leaves = leaves[:len(f.Members)]
	for m, t := range f.Members {
		nodes := t.Nodes
		if len(nodes) == 0 {
			panic(ErrNotTrained)
		}
		probs := leaves[m]
		for i, x := range X {
			ni := 0
			nd := &nodes[0]
			for nd.Feature >= 0 {
				if x[nd.Feature] <= nd.Threshold {
					ni = nd.Left
				} else {
					ni = nd.Right
				}
				nd = &nodes[ni]
			}
			row := out[i][:k]
			leaf := probs[ni*k : ni*k+k]
			for c := 0; c < k; c++ {
				row[c] += leaf[c]
			}
		}
	}
	inv := 1 / float64(len(f.Members))
	for _, row := range out {
		for c := range row {
			row[c] *= inv
		}
	}
	return out
}

// PredictProba implements Classifier by averaging member probabilities.
// Like the batch path, it traverses each member tree and accumulates the
// cached leaf distribution directly, rather than calling Tree.PredictProba
// (which would allocate one probability slice per member per call). The
// leaf rows carry probaFromCounts' exact arithmetic, so results are
// bit-identical to averaging the member outputs.
func (f *Forest) PredictProba(x []float64) []float64 {
	if len(f.Members) == 0 {
		panic(ErrNotTrained)
	}
	k := f.classes
	leaves := f.leafDistributions()
	leaves = leaves[:len(f.Members)]
	acc := make([]float64, k)
	for m, t := range f.Members {
		nodes := t.Nodes
		if len(nodes) == 0 {
			panic(ErrNotTrained)
		}
		ni := 0
		nd := &nodes[0]
		for nd.Feature >= 0 {
			if x[nd.Feature] <= nd.Threshold {
				ni = nd.Left
			} else {
				ni = nd.Right
			}
			nd = &nodes[ni]
		}
		leaf := leaves[m][ni*k : ni*k+k]
		for c := 0; c < k; c++ {
			acc[c] += leaf[c]
		}
	}
	inv := 1 / float64(len(f.Members))
	for c := range acc {
		acc[c] *= inv
	}
	return acc
}

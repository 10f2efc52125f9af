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
	// ens is every member compiled into one step array, probs their leaf
	// tables in one (compileTrees); built at Fit and at load.
	ens   ensemble
	probs []float64
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

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < min(runtime.NumCPU(), f.Cfg.Trees); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				f.fitOne(d, ti)
			}
		}()
	}
	for ti := 0; ti < f.Cfg.Trees; ti++ {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	f.ens, f.probs, _ = compileTrees(f.Members)
	return nil
}

func (f *Forest) fitOne(d *dataset.Table, ti int) {
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
	tree.fitIndices(d, idx, rng)
	f.Members[ti] = tree
}

// MinInputDim reports the narrowest row every member can score.
func (f *Forest) MinInputDim() int { return f.ens.width }

// PredictProbaBatch implements BatchPredictor with a tree-major
// traversal: each member tree takes the batch four rows at a time, walked
// in lockstep, before the next tree is touched, and the leaf's row
// accumulates straight into the output rows; the last len(X) mod 4 rows
// take the one-row path, four trees at a time. The accumulation order per
// instance matches PredictProba (member order), so results are
// bit-identical to the per-instance path.
func (f *Forest) PredictProbaBatch(X [][]float64) [][]float64 {
	if len(f.Members) == 0 {
		panic(ErrNotTrained)
	}
	e := &f.ens
	e.fits(X)
	k, w, n := f.classes, e.width+1, len(X)
	out, scratch := probaRowsScratch(n, k, n*w)
	// Reslice hint: pin the length the allocation site guarantees so the
	// row indexing below is provably in bounds.
	out = out[:n]
	keys := keyBits(scratch)
	e.keys(keys, X)
	n4 := n &^ 3
	for _, root := range e.roots {
		e.addTree(out[:n4], f.probs, int(root), keys)
	}
	for i := n4; i < n; i++ {
		e.addRows(out[i], f.probs, keys[i*w:])
	}
	inv := 1 / float64(len(f.Members))
	for _, row := range out {
		for c := range row {
			row[c] *= inv
		}
	}
	return out
}

// PredictProba implements Classifier by averaging the members' leaf rows.
func (f *Forest) PredictProba(x []float64) []float64 {
	if len(f.Members) == 0 {
		panic(ErrNotTrained)
	}
	return f.ens.meanRow(f.probs, f.classes, x)
}

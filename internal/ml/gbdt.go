package ml

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// GBDTGrowth selects how boosted trees are grown.
type GBDTGrowth int

const (
	// GrowLevelWise grows every node at a depth before descending —
	// the classic XGBoost strategy (exact greedy splits).
	GrowLevelWise GBDTGrowth = iota + 1
	// GrowLeafWise always splits the highest-gain leaf next — the
	// LightGBM strategy (histogram splits).
	GrowLeafWise
)

// GBDTConfig configures gradient-boosted decision trees with softmax
// (multi-class) objective and second-order leaf values.
type GBDTConfig struct {
	Rounds         int        `json:"rounds"`
	LearningRate   float64    `json:"learningRate"`
	MaxDepth       int        `json:"maxDepth"`  // level-wise depth limit
	MaxLeaves      int        `json:"maxLeaves"` // leaf-wise leaf budget
	MinChildWeight float64    `json:"minChildWeight"`
	Lambda         float64    `json:"lambda"` // L2 on leaf values
	Growth         GBDTGrowth `json:"growth"`
	MaxBins        int        `json:"maxBins"` // histogram bins (leaf-wise)
	Seed           int64      `json:"seed"`
	name           string
}

// DefaultLightGBMConfig returns the leaf-wise histogram configuration that
// stands in for LightGBM.
func DefaultLightGBMConfig() GBDTConfig {
	return GBDTConfig{
		Rounds: 60, LearningRate: 0.1, MaxLeaves: 31, MaxDepth: 0,
		MinChildWeight: 1e-3, Lambda: 1.0, Growth: GrowLeafWise, MaxBins: 64,
		Seed: 1, name: "lgbm",
	}
}

// DefaultXGBoostConfig returns the level-wise exact configuration that
// stands in for XGBoost. The tuning is deliberately aggressive (high
// learning rate, deep trees, minimal regularization — a common way XGBoost
// is run in practice), which reproduces the brittleness under transferred
// adversarial samples the paper measures for its XGBoost model.
func DefaultXGBoostConfig() GBDTConfig {
	return GBDTConfig{
		Rounds: 150, LearningRate: 0.4, MaxDepth: 9,
		MinChildWeight: 1e-4, Lambda: 0.001, Growth: GrowLevelWise,
		Seed: 1, name: "xgb",
	}
}

// GBDT is the boosted-tree classifier.
type GBDT struct {
	Cfg GBDTConfig

	// TreesPerClass[k] holds one regression tree per boosting round for
	// class k.
	TreesPerClass [][]*gbTree
	Base          []float64 // per-class prior log-odds
	classes       int
	// ens is every tree compiled into one step array, class by class in
	// round order, and byClass[c] class c's roots in it; built at Fit and
	// at load.
	ens     ensemble
	byClass [][]int32
}

var _ Classifier = (*GBDT)(nil)

// NewGBDT constructs an untrained boosted-tree model.
func NewGBDT(cfg GBDTConfig) *GBDT {
	if cfg.name == "" {
		if cfg.Growth == GrowLeafWise {
			cfg.name = "lgbm"
		} else {
			cfg.name = "xgb"
		}
	}
	return &GBDT{Cfg: cfg}
}

// Name implements Classifier.
func (g *GBDT) Name() string { return g.Cfg.name }

// NumClasses implements Classifier.
func (g *GBDT) NumClasses() int { return g.classes }

// gbTree is a regression tree over raw scores.
type gbTree struct{ tree }

// boostedLeaf is a boosted leaf's payload: its value's bits.
func boostedLeaf(n node) uint64 { return math.Float64bits(n.Threshold) }

// compile builds ens and byClass from TreesPerClass; it is false when a
// decoded tree shares a child (see ensemble.add).
func (g *GBDT) compile() bool {
	steps, trees := 0, 0
	for _, class := range g.TreesPerClass {
		for _, tr := range class {
			steps += len(tr.nodes)
		}
		trees += len(class)
	}
	// roots has its final capacity, so byClass's views of it stay valid.
	e := ensemble{steps: make([]step, 0, steps), roots: make([]int32, 0, trees)}
	g.byClass = make([][]int32, len(g.TreesPerClass))
	for c, class := range g.TreesPerClass {
		from := len(e.roots)
		for _, tr := range class {
			if !e.add(tr.nodes, boostedLeaf) {
				return false
			}
		}
		g.byClass[c] = e.roots[from:len(e.roots):len(e.roots)]
	}
	g.ens = e
	return true
}

// sum returns s plus lr times the leaf value of each of roots' trees for
// one row's keys, added in tree order.
func (e *ensemble) sum(roots []int32, keys []uint64, s, lr float64) float64 {
	for t := 0; t < len(roots); t += 4 {
		leaves, n := e.leaves4(roots, t, keys)
		for _, p := range leaves[:n] {
			s += lr * math.Float64frombits(p)
		}
	}
	return s
}

// sumTree adds to each of col lr times the value of its row's leaf in the
// tree at root, four rows at a time; len(col) is a multiple of four and
// keys holds their key rows.
func (e *ensemble) sumTree(col []float64, root int, keys []uint64, lr float64) {
	w := e.width + 1
	for i := 0; i+4 <= len(col); i += 4 {
		k := keys[i*w:]
		p0, p1, p2, p3 := e.walk4(root, root, root, root, k, k[w:], k[2*w:], k[3*w:])
		lanes := col[i : i+4 : i+4]
		lanes[0] += lr * math.Float64frombits(p0)
		lanes[1] += lr * math.Float64frombits(p1)
		lanes[2] += lr * math.Float64frombits(p2)
		lanes[3] += lr * math.Float64frombits(p3)
	}
}

// MinInputDim reports the narrowest row every tree can score.
func (g *GBDT) MinInputDim() int { return g.ens.width }

// Fit implements Classifier.
func (g *GBDT) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("%s fit: empty dataset", g.Name())
	}
	if g.Cfg.Rounds <= 0 || g.Cfg.LearningRate <= 0 {
		return fmt.Errorf("%s fit: invalid config %+v", g.Name(), g.Cfg)
	}
	if g.Cfg.Growth == GrowLeafWise && g.Cfg.MaxLeaves < 2 {
		return fmt.Errorf("%s fit: MaxLeaves must be >= 2", g.Name())
	}
	if g.Cfg.Growth == GrowLevelWise && g.Cfg.MaxDepth < 1 {
		return fmt.Errorf("%s fit: MaxDepth must be >= 1", g.Name())
	}
	n, k := t.Len(), t.NumClasses()
	g.classes = k
	g.TreesPerClass = make([][]*gbTree, k)

	// Prior log-odds as base scores.
	g.Base = make([]float64, k)
	counts := t.ClassCounts()
	for c := 0; c < k; c++ {
		p := (float64(counts[c]) + 1) / float64(n+k)
		g.Base[c] = math.Log(p)
	}

	// Raw scores F[k][i].
	scores := make([][]float64, k)
	for c := 0; c < k; c++ {
		scores[c] = make([]float64, n)
		for i := range scores[c] {
			scores[c][i] = g.Base[c]
		}
	}

	b := newGBBuilder(g.Cfg, t)
	probs := make([]float64, k)
	logits := make([]float64, k)
	grad := make([]float64, n)
	hess := make([]float64, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// Each round's tree is compiled into latest and the table's key rows
	// walked through it as a batch is.
	latest := ensemble{width: t.NumFeatures()}
	w, lr, n4 := latest.width+1, g.Cfg.LearningRate, n&^3
	keys := make([]uint64, n*w)
	latest.keys(keys, t.X)

	for round := 0; round < g.Cfg.Rounds; round++ {
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				for cc := 0; cc < k; cc++ {
					logits[cc] = scores[cc][i]
				}
				mat.Softmax(logits, probs)
				p := probs[c]
				grad[i] = p
				if t.Y[i] == c {
					grad[i] -= 1
				}
				hess[i] = math.Max(p*(1-p), 1e-9)
			}
			tree := b.build(grad, hess, all)
			g.TreesPerClass[c] = append(g.TreesPerClass[c], tree)
			latest.steps, latest.roots = latest.steps[:0], latest.roots[:0]
			latest.add(tree.nodes, boostedLeaf)
			sc := scores[c]
			latest.sumTree(sc[:n4], 0, keys, lr)
			for i := n4; i < n; i++ {
				sc[i] = latest.sum(latest.roots, keys[i*w:], sc[i], lr)
			}
		}
	}
	g.compile()
	return nil
}

// PredictProba implements Classifier.
func (g *GBDT) PredictProba(x []float64) []float64 {
	if g.TreesPerClass == nil {
		panic(ErrNotTrained)
	}
	k := g.classes
	// Reslice hints: pin the per-class slices to the class count so the
	// indexing below is provably in bounds.
	bases := g.Base[:k]
	byClass := g.byClass[:k]
	x = x[:g.ens.width]
	logits := make([]float64, k+len(x)+1)
	keys := keyBits(logits[k:])
	logits = logits[:k:k]
	g.ens.rowKeys(keys, x)
	for c := range logits {
		logits[c] = g.ens.sum(byClass[c], keys, bases[c], g.Cfg.LearningRate)
	}
	// In-place softmax: Softmax reads each index before writing it, so
	// aliasing dst with logits is exact and saves the second allocation.
	return mat.Softmax(logits, logits)
}

// PredictProbaBatch implements BatchPredictor with a tree-major
// traversal: each boosted tree takes the batch four rows at a time, walked
// in lockstep, before the next tree is touched; the last len(X) mod 4 rows
// take the one-row path, four trees at a time. The per-class logits
// accumulate in a flat column buffer instead of scattering through
// out[i][c]. The per-(instance, class) accumulation order matches
// PredictProba (tree order within each class), so the softmax rows are
// bit-identical to the per-instance path.
func (g *GBDT) PredictProbaBatch(X [][]float64) [][]float64 {
	if g.TreesPerClass == nil {
		panic(ErrNotTrained)
	}
	e := &g.ens
	e.fits(X)
	k, w, n := g.classes, e.width+1, len(X)
	bases := g.Base[:k]
	byClass := g.byClass[:k]
	out, scratch := probaRowsScratch(n, k, n+n*w)
	out = out[:n]
	col, keys := scratch[:n], keyBits(scratch[n:])
	e.keys(keys, X)
	lr, n4 := g.Cfg.LearningRate, n&^3
	for c := 0; c < k; c++ {
		for i := range col {
			col[i] = bases[c]
		}
		for _, root := range byClass[c] {
			e.sumTree(col[:n4], int(root), keys, lr)
		}
		for i := n4; i < n; i++ {
			col[i] = e.sum(byClass[c], keys[i*w:], col[i], lr)
		}
		for i := range X {
			row := out[i][:k]
			row[c] = col[i]
		}
	}
	for _, row := range out {
		mat.Softmax(row, row)
	}
	return out
}

// --- tree building ------------------------------------------------------

type gbBuilder struct {
	cfg GBDTConfig
	x   [][]float64
	dim int

	// Histogram binning (leaf-wise growth only).
	binEdges [][]float64 // per feature, sorted upper edges
	binIdx   [][]uint16  // per sample, per feature bin index
}

func newGBBuilder(cfg GBDTConfig, t *dataset.Table) *gbBuilder {
	b := &gbBuilder{cfg: cfg, x: t.X, dim: t.NumFeatures()}
	if cfg.Growth == GrowLeafWise {
		b.computeBins()
	}
	return b
}

// computeBins builds per-feature quantile bin edges and pre-bins every
// sample, the core of the "histogram" strategy.
func (b *gbBuilder) computeBins() {
	n := len(b.x)
	maxBins := b.cfg.MaxBins
	if maxBins < 2 {
		maxBins = 64
	}
	b.binEdges = make([][]float64, b.dim)
	vals := make([]float64, n)
	for f := 0; f < b.dim; f++ {
		for i := range b.x {
			vals[i] = b.x[i][f]
		}
		sort.Float64s(vals)
		var edges []float64
		for q := 1; q < maxBins; q++ {
			v := vals[q*n/maxBins]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		b.binEdges[f] = edges
	}
	b.binIdx = make([][]uint16, n)
	for i := range b.x {
		row := make([]uint16, b.dim)
		for f := 0; f < b.dim; f++ {
			row[f] = uint16(sort.SearchFloat64s(b.binEdges[f], b.x[i][f]))
		}
		b.binIdx[i] = row
	}
}

// build fits one regression tree to the (grad, hess) targets over samples
// idx.
func (b *gbBuilder) build(grad, hess []float64, idx []int) *gbTree {
	t := &gbTree{}
	if b.cfg.Growth == GrowLeafWise {
		b.buildLeafWise(t, grad, hess, idx)
	} else {
		b.buildLevelWise(t, grad, hess, idx, 0)
	}
	return t
}

func (b *gbBuilder) leafValue(gSum, hSum float64) float64 {
	return -gSum / (hSum + b.cfg.Lambda)
}

func sums(grad, hess []float64, idx []int) (gSum, hSum float64) {
	for _, i := range idx {
		gSum += grad[i]
		hSum += hess[i]
	}
	return gSum, hSum
}

// splitGain is the standard second-order gain formula.
func (b *gbBuilder) splitGain(gl, hl, gr, hr float64) float64 {
	lam := b.cfg.Lambda
	return gl*gl/(hl+lam) + gr*gr/(hr+lam) - (gl+gr)*(gl+gr)/(hl+hr+lam)
}

type gbSplit struct {
	feature     int
	threshold   float64
	gain        float64
	left, right []int
}

// bestSplitExact searches every feature with a sort-and-scan pass.
func (b *gbBuilder) bestSplitExact(grad, hess []float64, idx []int) (gbSplit, bool) {
	gSum, hSum := sums(grad, hess, idx)
	best := gbSplit{gain: 1e-12}
	found := false
	sorted := make([]int, len(idx))
	for f := 0; f < b.dim; f++ {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.x[sorted[a]][f] < b.x[sorted[c]][f] })
		var gl, hl float64
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			gl += grad[i]
			hl += hess[i]
			v, next := b.x[i][f], b.x[sorted[pos+1]][f]
			// Adjacent sorted stored values; exact equality dedups identical split candidates.
			if v == next {
				continue
			}
			hr := hSum - hl
			if hl < b.cfg.MinChildWeight || hr < b.cfg.MinChildWeight {
				continue
			}
			gain := b.splitGain(gl, hl, gSum-gl, hr)
			if gain > best.gain {
				best.feature = f
				best.threshold = (v + next) / 2
				best.gain = gain
				found = true
			}
		}
	}
	if !found {
		return best, false
	}
	b.partition(&best, idx)
	return best, true
}

// bestSplitHist searches bins instead of raw values.
func (b *gbBuilder) bestSplitHist(grad, hess []float64, idx []int) (gbSplit, bool) {
	gSum, hSum := sums(grad, hess, idx)
	best := gbSplit{gain: 1e-12}
	found := false
	for f := 0; f < b.dim; f++ {
		nb := len(b.binEdges[f]) + 1
		if nb < 2 {
			continue
		}
		gh := make([][2]float64, nb)
		for _, i := range idx {
			bin := b.binIdx[i][f]
			gh[bin][0] += grad[i]
			gh[bin][1] += hess[i]
		}
		var gl, hl float64
		for bin := 0; bin < nb-1; bin++ {
			gl += gh[bin][0]
			hl += gh[bin][1]
			hr := hSum - hl
			if hl < b.cfg.MinChildWeight || hr < b.cfg.MinChildWeight {
				continue
			}
			gain := b.splitGain(gl, hl, gSum-gl, hr)
			if gain > best.gain {
				best.feature = f
				best.threshold = b.binEdges[f][bin]
				best.gain = gain
				found = true
			}
		}
	}
	if !found {
		return best, false
	}
	b.partition(&best, idx)
	return best, true
}

// partition fills the split's left/right index sets. The threshold
// convention matches the compiled step's: x <= threshold goes left.
// Histogram thresholds are bin edges, and binIdx was computed with
// sort.SearchFloat64s so a sample in bin k has x <= edges[k] for the first
// matching edge; comparing raw values against the edge keeps the two
// consistent.
func (b *gbBuilder) partition(s *gbSplit, idx []int) {
	for _, i := range idx {
		if b.x[i][s.feature] <= s.threshold {
			s.left = append(s.left, i)
		} else {
			s.right = append(s.right, i)
		}
	}
}

func (b *gbBuilder) buildLevelWise(t *gbTree, grad, hess []float64, idx []int, depth int) int {
	gSum, hSum := sums(grad, hess, idx)
	if depth >= b.cfg.MaxDepth || len(idx) < 2 {
		return b.appendLeaf(t, gSum, hSum)
	}
	split, ok := b.bestSplitExact(grad, hess, idx)
	if !ok || len(split.left) == 0 || len(split.right) == 0 {
		return b.appendLeaf(t, gSum, hSum)
	}
	node := t.addLeaf(0, 0) // reserved: a split is numbered before its children
	l := b.buildLevelWise(t, grad, hess, split.left, depth+1)
	r := b.buildLevelWise(t, grad, hess, split.right, depth+1)
	t.split(node, split.feature, split.threshold, l, r)
	return node
}

func (b *gbBuilder) appendLeaf(t *gbTree, gSum, hSum float64) int {
	return t.addLeaf(0, b.leafValue(gSum, hSum))
}

// leafCandidate is a grown-but-unsplit leaf in the leaf-wise queue; a leaf
// that cannot be split keeps the zero split, whose gain never wins.
type leafCandidate struct {
	nodeIdx int
	split   gbSplit
}

func (b *gbBuilder) buildLeafWise(t *gbTree, grad, hess []float64, idx []int) {
	gSum, hSum := sums(grad, hess, idx)
	root := b.appendLeaf(t, gSum, hSum)
	leaves := []leafCandidate{b.newCandidate(t, grad, hess, root, idx)}
	numLeaves := 1
	for numLeaves < b.cfg.MaxLeaves {
		bestI, bestGain := -1, 1e-12
		for i, lc := range leaves {
			if lc.split.gain > bestGain {
				bestI, bestGain = i, lc.split.gain
			}
		}
		if bestI < 0 {
			break
		}
		lc := leaves[bestI]
		s := lc.split
		// Convert the leaf into an internal node.
		gl, hl := sums(grad, hess, s.left)
		gr, hr := sums(grad, hess, s.right)
		leftIdx := b.appendLeaf(t, gl, hl)
		rightIdx := b.appendLeaf(t, gr, hr)
		t.split(lc.nodeIdx, s.feature, s.threshold, leftIdx, rightIdx)

		leaves[bestI] = b.newCandidate(t, grad, hess, leftIdx, s.left)
		leaves = append(leaves, b.newCandidate(t, grad, hess, rightIdx, s.right))
		numLeaves++
	}
}

func (b *gbBuilder) newCandidate(t *gbTree, grad, hess []float64, nodeIdx int, idx []int) leafCandidate {
	lc := leafCandidate{nodeIdx: nodeIdx}
	if len(idx) >= 2 {
		if s, ok := b.bestSplitHist(grad, hess, idx); ok && len(s.left) > 0 && len(s.right) > 0 {
			lc.split = s
		}
	}
	return lc
}

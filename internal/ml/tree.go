package ml

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"unsafe"

	"repro/internal/dataset"
)

// TreeConfig configures a CART decision tree.
type TreeConfig struct {
	MaxDepth    int   `json:"maxDepth"`    // 0 means unlimited
	MinLeaf     int   `json:"minLeaf"`     // minimum samples per leaf
	MaxFeatures int   `json:"maxFeatures"` // features considered per split; 0 = all, -1 = sqrt(d)
	Seed        int64 `json:"seed"`
}

// DefaultTreeConfig returns the configuration used by the experiments.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 16, MinLeaf: 2, MaxFeatures: 0, Seed: 1}
}

// node is one node of every tree in the package as it is grown, serialised
// and read for importance: a flat slice with the root first and children
// after their parent. A split sends x left when x[Feature] <= Threshold. A
// leaf has Feature < 0 and carries its payload in the fields it does not
// branch on: a classification leaf keeps in Left the offset of its row in
// the tree's leaf table, a boosted leaf keeps its one value in Threshold.
// Nothing predicts from nodes; Fit and load compile them into an ensemble.
type node struct {
	Feature, Left, Right int32
	Threshold            float64
}

type nodes []node

// tree is what a classification and a boosted regression tree share. Its
// addLeaf and split are where growers and decoder alike write a node.
type tree struct {
	nodes nodes
}

// addLeaf appends a leaf and returns its index. A grower that must number
// a split before its children reserves the slot with it.
func (t *tree) addLeaf(off int, value float64) int {
	t.nodes = append(t.nodes, node{Feature: -1, Left: int32(off), Threshold: value})
	return len(t.nodes) - 1
}

// split turns node i into a split.
func (t *tree) split(i, feature int, threshold float64, left, right int) {
	t.nodes[i] = node{Feature: int32(feature), Left: int32(left), Right: int32(right), Threshold: threshold}
}

// step is one node of a compiled ensemble, 16 bytes. A split sends a row
// to left when its key for feature feat−1 is at most key, and to left+1
// otherwise. A leaf has feat 0, which reads the zero every key row starts
// with, so it never borrows; it names itself in left and carries its
// payload in key: the offset of its probability row, or a boosted value's
// bits.
type step struct {
	feat int32
	left int32
	key  uint64
}

// ensemble is every tree of a model compiled into one step array, each
// tree's root in roots, in the model's tree order. Trees are laid out
// breadth-first, so a split's two children are adjacent.
type ensemble struct {
	steps []step
	roots []int32
	width int // 1 + widest split feature: the narrowest row the trees read
}

// add compiles a tree onto the end of e; leaf gives a leaf's payload. It
// refuses (false) a decoded tree whose nodes share a child, which would
// unfold into more steps than the tree has nodes.
func (e *ensemble) add(ns nodes, leaf func(node) uint64) bool {
	root := len(e.steps)
	e.roots = append(e.roots, int32(root))
	// Until a step is compiled its left holds the node it stands for.
	e.steps = append(e.steps, step{})
	for i := root; i < len(e.steps); i++ {
		n := ns[e.steps[i].left]
		if n.Feature < 0 {
			e.steps[i] = step{left: int32(i), key: leaf(n)}
			continue
		}
		if len(e.steps)+2-root > len(ns) {
			return false
		}
		e.steps[i] = step{feat: n.Feature + 1, left: int32(len(e.steps)), key: splitKey(n.Threshold)}
		e.steps = append(e.steps, step{left: n.Left}, step{left: n.Right})
		e.width = max(e.width, int(n.Feature)+1)
	}
	return true
}

// rowKey maps x to a uint64 whose unsigned order is the order of <=: −0
// takes +0's key, and NaN of either sign the largest, above +Inf's, so
// that no split holds it.
func rowKey(x float64) uint64 {
	b := math.Float64bits(x)
	k := b ^ (uint64(int64(b)>>63) | 1<<63)
	if x == 0 {
		k = 1 << 63
	}
	if math.IsNaN(x) {
		k = math.MaxUint64
	}
	return k
}

// splitKey is rowKey for a threshold, except that NaN takes 0, below every
// row's key: x <= NaN holds for no x.
func splitKey(t float64) uint64 {
	if math.IsNaN(t) {
		return 0
	}
	return rowKey(t)
}

// fits panics, before anything is allocated for them, if a row is
// narrower than the trees read. The serving runtime and the explainers
// refuse such a row first (CheckInput); this keeps a caller that did not
// from indexing past it.
func (e *ensemble) fits(X [][]float64) {
	for _, x := range X {
		_ = x[:e.width]
	}
}

// keyBits views float64 scratch as the uint64 keys a kernel writes into
// it, so that the keys come out of the allocation the kernel returns and
// a step loads its key as an integer: through a float load and a move
// across register files the walk measured about 15 % slower.
func keyBits(scratch []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(scratch))), len(scratch))
}

// rowKeys writes x's key row into dst: a zero for leaves, then one key per
// feature the trees read.
func (e *ensemble) rowKeys(dst []uint64, x []float64) {
	x = x[:e.width]
	dst = dst[:len(x)+1]
	dst[0] = 0
	for j, v := range x {
		dst[j+1] = rowKey(v)
	}
}

// keys writes the key rows of X into dst, width+1 columns a row.
func (e *ensemble) keys(dst []uint64, X [][]float64) {
	w := e.width + 1
	for i, x := range X {
		e.rowKeys(dst[i*w:], x)
	}
}

// next is one step from s: x <= t exactly when key(t) − key(x) does not
// borrow, and the right child is left plus the borrow.
func (s *step) next(keys []uint64) int {
	_, borrow := bits.Sub64(s.key, keys[s.feat], 0)
	n, _ := bits.Add64(uint64(s.left), 0, borrow)
	return int(n)
}

// walk4 is the package's one tree traversal: four lanes — four rows
// through one tree, or one row through four trees — step down in lockstep
// until all four sit on leaves, whose payloads it returns. No step
// branches on the data, so the walk is bound by the latency of its loads,
// not by mispredicted comparisons, and four lanes overlap four chains of
// them (DESIGN §4c has what eight measured).
func (e *ensemble) walk4(a, b, c, d int, ka, kb, kc, kd []uint64) (uint64, uint64, uint64, uint64) {
	steps := e.steps
	for {
		sa, sb, sc, sd := &steps[a], &steps[b], &steps[c], &steps[d]
		if sa.feat|sb.feat|sc.feat|sd.feat == 0 {
			return sa.key, sb.key, sc.key, sd.key
		}
		a, b, c, d = sa.next(ka), sb.next(kb), sc.next(kc), sd.next(kd)
	}
}

// leaves4 walks one row's keys through trees roots[t:t+4], the last lane
// repeated where fewer remain, and returns their payloads in tree order
// with how many are real.
func (e *ensemble) leaves4(roots []int32, t int, keys []uint64) ([4]uint64, int) {
	last := min(t+3, len(roots)-1)
	a, b, c, d := e.walk4(int(roots[t]), int(roots[min(t+1, last)]), int(roots[min(t+2, last)]), int(roots[last]), keys, keys, keys, keys)
	return [4]uint64{a, b, c, d}, last - t + 1
}

// addRows adds to acc, in tree order, the probability row each tree's leaf
// names for one row's keys.
func (e *ensemble) addRows(acc, probs []float64, keys []uint64) {
	for t := 0; t < len(e.roots); t += 4 {
		leaves, n := e.leaves4(e.roots, t, keys)
		for _, p := range leaves[:n] {
			addTo(acc, probs[p:])
		}
	}
}

// addTree adds to each row of out the probability row its leaf in the
// tree at root names, four rows at a time; len(out) is a multiple of four
// and keys holds their key rows.
func (e *ensemble) addTree(out [][]float64, probs []float64, root int, keys []uint64) {
	w := e.width + 1
	for i := 0; i+4 <= len(out); i += 4 {
		k := keys[i*w:]
		p0, p1, p2, p3 := e.walk4(root, root, root, root, k, k[w:], k[2*w:], k[3*w:])
		rows := out[i : i+4 : i+4]
		addTo(rows[0], probs[p0:])
		addTo(rows[1], probs[p1:])
		addTo(rows[2], probs[p2:])
		addTo(rows[3], probs[p3:])
	}
}

// meanRow is the probability row of a tree or a forest for x: the mean of
// the leaf rows, added in tree order.
func (e *ensemble) meanRow(probs []float64, k int, x []float64) []float64 {
	if len(e.roots) == 0 {
		panic(ErrNotTrained)
	}
	x = x[:e.width]
	acc := make([]float64, k+len(x)+1)
	keys := keyBits(acc[k:])
	acc = acc[:k:k]
	e.rowKeys(keys, x)
	e.addRows(acc, probs, keys)
	inv := 1 / float64(len(e.roots))
	for c := range acc {
		acc[c] *= inv
	}
	return acc
}

// addTo adds src's leading len(dst) values to dst.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for c := range dst {
		dst[c] += src[c]
	}
}

// Tree is a CART classification tree with Gini-impurity splits. It is the
// "DT" model of use case 1 and the building block of RandomForest.
type Tree struct {
	Cfg TreeConfig

	tree
	// counts is the leaf table as serialised, classes floats per leaf.
	counts  []float64
	classes int
	// ens and probs are what PredictProba walks, built by compileTrees:
	// probs is the Laplace-smoothed leaf table. A forest's members share
	// the forest's, each with only its own root.
	ens   ensemble
	probs []float64
}

var _ Classifier = (*Tree)(nil)

// NewTree constructs an untrained tree.
func NewTree(cfg TreeConfig) *Tree { return &Tree{Cfg: cfg} }

// Name implements Classifier.
func (t *Tree) Name() string { return "dt" }

// NumClasses implements Classifier.
func (t *Tree) NumClasses() int { return t.classes }

// Fit implements Classifier.
func (t *Tree) Fit(d *dataset.Table) error {
	if d.Len() == 0 {
		return fmt.Errorf("dt fit: empty dataset")
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.fitIndices(d, idx, rand.New(rand.NewSource(t.Cfg.Seed)))
	compileTrees([]*Tree{t})
	return nil
}

// fitIndices grows the tree on the subset of d given by idx (the forest's
// bootstrap, without copying rows); compileTrees makes it predict. rng
// picks the features a split may use; the tree does not keep it.
func (t *Tree) fitIndices(d *dataset.Table, idx []int, rng *rand.Rand) {
	if t.Cfg.MinLeaf < 1 {
		t.Cfg.MinLeaf = 1
	}
	t.classes = d.NumClasses()
	t.tree, t.counts = tree{}, nil
	t.grow(d, idx, 0, rng)
}

// compileTrees compiles trees, in order, into one ensemble over one leaf
// table — each leaf's payload the offset of its row — and gives every tree
// that ensemble with only its own root. It is false when a decoded tree
// shares a child (see ensemble.add); a grown one never does.
func compileTrees(trees []*Tree) (ensemble, []float64, bool) {
	steps, floats := 0, 0
	for _, t := range trees {
		steps += len(t.nodes)
		floats += len(t.counts)
	}
	e := ensemble{steps: make([]step, 0, steps), roots: make([]int32, 0, len(trees))}
	probs := make([]float64, floats)
	floats = 0
	for _, t := range trees {
		base := uint64(floats)
		floats += len(t.counts)
		leafProbs(probs[base:floats], t.counts, t.classes)
		if !e.add(t.nodes, func(n node) uint64 { return base + uint64(n.Left) }) {
			return ensemble{}, nil, false
		}
	}
	for i, t := range trees {
		t.ens = ensemble{steps: e.steps, roots: e.roots[i : i+1 : i+1], width: e.width}
		t.probs = probs
	}
	return e, probs, true
}

// leafProbs turns per-leaf class counts into per-leaf probabilities, with
// Laplace smoothing to avoid hard zeros and a uniform row for a leaf that
// saw nothing.
func leafProbs(probs, counts []float64, classes int) {
	for at := 0; at < len(counts); at += classes {
		row, p := counts[at:at+classes], probs[at:at+classes]
		var total float64
		for _, c := range row {
			total += c
		}
		for i, c := range row {
			p[i] = (c + 1e-9) / (total + float64(classes)*1e-9)
			if total == 0 {
				p[i] = 1 / float64(classes)
			}
		}
	}
}

func (t *Tree) numSplitFeatures(d int) int {
	switch {
	case t.Cfg.MaxFeatures > 0 && t.Cfg.MaxFeatures < d:
		return t.Cfg.MaxFeatures
	case t.Cfg.MaxFeatures == -1:
		return max(1, int(math.Sqrt(float64(d))))
	default:
		return d
	}
}

// grow recursively builds the subtree over samples idx and returns its node
// index.
func (t *Tree) grow(d *dataset.Table, idx []int, depth int, rng *rand.Rand) int {
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	if pure <= 1 || len(idx) < 2*t.Cfg.MinLeaf || (t.Cfg.MaxDepth > 0 && depth >= t.Cfg.MaxDepth) {
		return t.leaf(counts)
	}

	feat, thr, ok := t.bestSplit(d, idx, counts, rng)
	if !ok {
		return t.leaf(counts)
	}

	var left, right []int
	for _, i := range idx {
		if d.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.Cfg.MinLeaf || len(right) < t.Cfg.MinLeaf {
		return t.leaf(counts)
	}

	node := t.addLeaf(0, 0) // reserved: a split is numbered before its children
	l := t.grow(d, left, depth+1, rng)
	r := t.grow(d, right, depth+1, rng)
	t.split(node, feat, thr, l, r)
	return node
}

// leaf appends a leaf and its row of the count table.
func (t *Tree) leaf(counts []float64) int {
	t.counts = append(t.counts, counts...)
	return t.addLeaf(len(t.counts)-len(counts), 0)
}

// bestSplit searches a (possibly random) subset of features for the split
// with the lowest weighted Gini impurity.
func (t *Tree) bestSplit(d *dataset.Table, idx []int, parentCounts []float64, rng *rand.Rand) (feat int, thr float64, ok bool) {
	dim := d.NumFeatures()
	nf := t.numSplitFeatures(dim)
	features := make([]int, dim)
	for j := range features {
		features[j] = j
	}
	if nf < dim {
		rng.Shuffle(dim, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:nf]
	}

	n := float64(len(idx))
	parentGini := gini(parentCounts, n)
	bestGain := 1e-12
	sorted := make([]int, len(idx))
	leftCounts := make([]float64, t.classes)
	rightCounts := make([]float64, t.classes)

	for _, f := range features {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return d.X[sorted[a]][f] < d.X[sorted[b]][f] })

		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		for pos := 0; pos < len(sorted)-1; pos++ {
			y := d.Y[sorted[pos]]
			leftCounts[y]++
			rightCounts[y]--
			v, next := d.X[sorted[pos]][f], d.X[sorted[pos+1]][f]
			// Adjacent sorted stored values; exact equality dedups identical split candidates.
			if v == next {
				continue // cannot split between equal values
			}
			nl := float64(pos + 1)
			nr := n - nl
			if int(nl) < t.Cfg.MinLeaf || int(nr) < t.Cfg.MinLeaf {
				continue
			}
			gain := parentGini - (nl/n)*gini(leftCounts, nl) - (nr/n)*gini(rightCounts, nr)
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// gini computes the Gini impurity of a class-count vector with total n.
func gini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / n
		s -= p * p
	}
	return s
}

// MinInputDim reports the narrowest row the tree can score; the width it
// was trained on is not in the envelope.
func (t *Tree) MinInputDim() int { return t.ens.width }

// PredictProba implements Classifier: its leaf's row, as the mean of one.
func (t *Tree) PredictProba(x []float64) []float64 {
	return t.ens.meanRow(t.probs, t.classes, x)
}

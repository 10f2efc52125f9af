package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

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

// node is one node of every tree in the package, in a flat slice with the
// root first and children after their parent. A split sends x left when
// x[Feature] <= Threshold. A leaf has Feature < 0 and carries its payload
// in the fields it does not branch on: a classification leaf keeps in Left
// the offset of its row in the tree's leaf table, a boosted leaf keeps its
// one value in Threshold.
type node struct {
	Feature, Left, Right int32
	Threshold            float64
}

type nodes []node

// descend walks x from the root to its leaf. It is the package's only
// traversal: the serial and the batch form of every tree model call it. x
// is indexed unchecked — a row narrower than the tree's width panics with
// an index error, which the serving runtime recovers into a 422.
func (ns nodes) descend(x []float64) *node {
	n := &ns[0]
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Threshold {
			n = &ns[n.Left]
		} else {
			n = &ns[n.Right]
		}
	}
	return n
}

// tree is what a classification and a boosted regression tree share. Its
// addLeaf and split are where growers and decoder alike write a node.
type tree struct {
	nodes nodes
	width int // 1 + widest split feature: the narrowest row descend can read
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
	t.width = max(t.width, feature+1)
}

// MinInputDim reports the narrowest row the tree can score; the width it
// was trained on is not in the envelope.
func (t *tree) MinInputDim() int { return t.width }

// Tree is a CART classification tree with Gini-impurity splits. It is the
// "DT" model of use case 1 and the building block of RandomForest.
type Tree struct {
	Cfg TreeConfig

	tree
	// counts is the leaf table as serialised, classes floats per leaf;
	// probs is each row Laplace-smoothed, derived once at Fit or load.
	counts, probs []float64
	classes       int
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
	t.FitIndices(d, idx, rand.New(rand.NewSource(t.Cfg.Seed)))
	return nil
}

// FitIndices trains the tree on the subset of d given by idx (used by the
// forest's bootstrap without copying rows). rng picks the features a split
// may use; the tree does not keep it.
func (t *Tree) FitIndices(d *dataset.Table, idx []int, rng *rand.Rand) {
	if t.Cfg.MinLeaf < 1 {
		t.Cfg.MinLeaf = 1
	}
	t.classes = d.NumClasses()
	t.tree, t.counts = tree{}, nil
	t.grow(d, idx, 0, rng)
	t.probs = make([]float64, len(t.counts))
	leafProbs(t.probs, t.counts, t.classes)
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
			//lint:ignore float-eq adjacent sorted stored values; exact equality dedups identical split candidates
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

// PredictProba implements Classifier.
func (t *Tree) PredictProba(x []float64) []float64 {
	if len(t.nodes) == 0 {
		panic(ErrNotTrained)
	}
	at := int(t.nodes.descend(x).Left)
	return append([]float64(nil), t.probs[at:at+t.classes]...)
}

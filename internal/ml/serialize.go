package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Envelope is the wire format for a trained model: a kind tag plus a
// kind-specific spec. The metric micro-services exchange models in this
// format so an explainer can score any model the ML-pipeline service
// trained.
type Envelope struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
}

type denseSpec struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

func toDenseSpec(m *mat.Dense) denseSpec {
	data := make([]float64, 0, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		data = append(data, m.Row(i)...)
	}
	return denseSpec{Rows: m.Rows(), Cols: m.Cols(), Data: data}
}

func (s denseSpec) toDense() (*mat.Dense, error) {
	if s.Rows <= 0 || s.Cols <= 0 || len(s.Data) != s.Rows*s.Cols {
		return nil, fmt.Errorf("ml: invalid dense spec %dx%d with %d values", s.Rows, s.Cols, len(s.Data))
	}
	return mat.NewDenseData(s.Rows, s.Cols, s.Data), nil
}

type logRegSpec struct {
	Cfg     LogRegConfig `json:"cfg"`
	W       denseSpec    `json:"w"`
	Classes int          `json:"classes"`
	Dim     int          `json:"dim"`
}

// treeNode and gbNode are the envelope's spelling of a node: a decoded spec
// is checked and built in one pass (build), a model spelled back by spec.
type treeNode struct {
	Feature   int       `json:"f"`           // -1 for leaf
	Threshold float64   `json:"t"`           // go left if x[Feature] <= Threshold
	Left      int       `json:"l"`           // child indices
	Right     int       `json:"r"`           //
	Counts    []float64 `json:"c,omitempty"` // leaf class counts
}

type gbNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Value     float64 `json:"v"`
}

// load appends the next of a spec's total nodes to t; for a leaf, left and
// threshold arrive holding its payload. Children must come after their
// parent — the growers' append order, which is what guarantees that a walk
// terminates — and the feature must fit a compiled step (feature+1 is an
// int32): a malformed or malicious envelope is refused here, not at
// predict time.
func (t *tree) load(feature int, threshold float64, left, right, total int) error {
	i := len(t.nodes)
	switch {
	case feature < 0:
		t.addLeaf(left, threshold)
	case left <= i || right <= i || left >= total || right >= total:
		return fmt.Errorf("ml: tree node %d has invalid children (%d, %d)", i, left, right)
	case feature >= math.MaxInt32:
		return fmt.Errorf("ml: tree node %d splits on feature %d", i, feature)
	default:
		t.split(t.addLeaf(0, 0), feature, threshold, left, right)
	}
	return nil
}

// carve cuts an empty slice with room for n elements off the front of
// *slab: the trees of a decoded model share one allocation of nodes and one
// of leaf rows, each sized by a count first.
func carve[S ~[]T, T any](slab *S, n int) S {
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}

type treeSpec struct {
	Cfg     TreeConfig `json:"cfg"`
	Nodes   []treeNode `json:"nodes"`
	Classes int        `json:"classes"`
}

// rows counts the floats of the spec's leaf table.
func (s *treeSpec) rows() (n int) {
	for i := range s.Nodes {
		if s.Nodes[i].Feature < 0 {
			n += len(s.Nodes[i].Counts)
		}
	}
	return n
}

// build checks the spec and builds the tree in storage carved from the
// slabs; compileTrees makes it predict.
func (s *treeSpec) build(ns *nodes, rows *[]float64) (*Tree, error) {
	if len(s.Nodes) == 0 || s.Classes < 1 {
		return nil, fmt.Errorf("ml: tree has %d nodes and %d classes", len(s.Nodes), s.Classes)
	}
	t := &Tree{Cfg: s.Cfg, counts: carve(rows, s.rows()), classes: s.Classes}
	t.nodes = carve(ns, len(s.Nodes))
	for i := range s.Nodes {
		n, left := &s.Nodes[i], s.Nodes[i].Left
		if n.Feature < 0 {
			if len(n.Counts) != s.Classes {
				return nil, fmt.Errorf("ml: tree leaf %d has %d counts, want %d", i, len(n.Counts), s.Classes)
			}
			for _, c := range n.Counts {
				if c < 0 {
					return nil, fmt.Errorf("ml: tree leaf %d has negative count", i)
				}
			}
			left, t.counts = len(t.counts), append(t.counts, n.Counts...)
		}
		if err := t.load(n.Feature, n.Threshold, left, n.Right, len(s.Nodes)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Tree) spec() treeSpec {
	s := treeSpec{Cfg: t.Cfg, Nodes: make([]treeNode, len(t.nodes)), Classes: t.classes}
	for i, n := range t.nodes {
		if n.Feature < 0 {
			s.Nodes[i] = treeNode{Feature: -1, Counts: t.counts[n.Left:][:t.classes]}
		} else {
			s.Nodes[i] = treeNode{Feature: int(n.Feature), Threshold: n.Threshold, Left: int(n.Left), Right: int(n.Right)}
		}
	}
	return s
}

type forestSpec struct {
	Cfg     ForestConfig `json:"cfg"`
	Members []treeSpec   `json:"members"`
	Classes int          `json:"classes"`
}

// errSharedChild refuses a decoded tree that is a graph, not a tree.
var errSharedChild = errors.New("ml: a tree node is the child of two splits")

// build checks and builds every member and compiles the forest.
func (s *forestSpec) build() (*Forest, error) {
	total, floats := 0, 0
	for mi := range s.Members {
		total += len(s.Members[mi].Nodes)
		floats += s.Members[mi].rows()
	}
	ns, rows := make(nodes, total), make([]float64, floats)
	f := &Forest{Cfg: s.Cfg, Members: make([]*Tree, len(s.Members)), classes: s.Classes}
	for mi := range s.Members {
		ts := &s.Members[mi]
		if ts.Classes != s.Classes {
			return nil, fmt.Errorf("ml: rf member %d has %d classes, forest %d", mi, ts.Classes, s.Classes)
		}
		var err error
		if f.Members[mi], err = ts.build(&ns, &rows); err != nil {
			return nil, fmt.Errorf("rf member %d: %w", mi, err)
		}
	}
	var ok bool
	if f.ens, f.probs, ok = compileTrees(f.Members); !ok {
		return nil, errSharedChild
	}
	return f, nil
}

type mlpSpec struct {
	Cfg     MLPConfig   `json:"cfg"`
	Name    string      `json:"name"`
	Weights []denseSpec `json:"weights"`
	Biases  [][]float64 `json:"biases"`
	Sizes   []int       `json:"sizes"`
	Classes int         `json:"classes"`
}

type gbTreeSpec struct {
	Nodes []gbNode `json:"nodes"`
}

type gbdtSpec struct {
	Cfg           GBDTConfig     `json:"cfg"`
	Name          string         `json:"name"`
	Base          []float64      `json:"base"`
	TreesPerClass [][]gbTreeSpec `json:"treesPerClass"`
	Classes       int            `json:"classes"`
}

// build checks and builds the ensemble; a refusal is a nil Classifier.
func (s *gbdtSpec) build() (Classifier, error) {
	if s.Classes < 2 || len(s.Base) != s.Classes || len(s.TreesPerClass) != s.Classes {
		return nil, fmt.Errorf("ml: gbdt spec has %d classes, %d base scores and trees for %d classes", s.Classes, len(s.Base), len(s.TreesPerClass))
	}
	total := 0
	for _, class := range s.TreesPerClass {
		for ti := range class {
			total += len(class[ti].Nodes)
		}
	}
	ns := make(nodes, total)
	g := &GBDT{Cfg: s.Cfg, Base: s.Base, TreesPerClass: make([][]*gbTree, s.Classes), classes: s.Classes}
	for c, class := range s.TreesPerClass {
		trees := make([]gbTree, len(class))
		g.TreesPerClass[c] = make([]*gbTree, len(class))
		for ti := range class {
			spec, t := class[ti].Nodes, &trees[ti]
			if len(spec) == 0 {
				return nil, fmt.Errorf("class %d tree %d: ml: boosted tree has no nodes", c, ti)
			}
			t.nodes = carve(&ns, len(spec))
			for i := range spec {
				n, threshold := &spec[i], spec[i].Threshold
				if n.Feature < 0 {
					threshold = n.Value
				}
				if err := t.load(n.Feature, threshold, n.Left, n.Right, len(spec)); err != nil {
					return nil, fmt.Errorf("class %d tree %d: %w", c, ti, err)
				}
			}
			g.TreesPerClass[c][ti] = t
		}
	}
	if !g.compile() {
		return nil, errSharedChild
	}
	return g, nil
}

func (g *GBDT) spec() gbdtSpec {
	s := gbdtSpec{Cfg: g.Cfg, Name: g.Name(), Base: g.Base, TreesPerClass: make([][]gbTreeSpec, len(g.TreesPerClass)), Classes: g.classes}
	for c, class := range g.TreesPerClass {
		s.TreesPerClass[c] = make([]gbTreeSpec, len(class))
		for ti, t := range class {
			out := make([]gbNode, len(t.nodes))
			for i, n := range t.nodes {
				if n.Feature < 0 {
					out[i] = gbNode{Feature: -1, Value: n.Threshold}
				} else {
					out[i] = gbNode{Feature: int(n.Feature), Threshold: n.Threshold, Left: int(n.Left), Right: int(n.Right)}
				}
			}
			s.TreesPerClass[c][ti].Nodes = out
		}
	}
	return s
}

// MarshalModel serializes a trained classifier.
func MarshalModel(c Classifier) ([]byte, error) {
	var (
		kind string
		spec any
	)
	switch m := c.(type) {
	case *LogReg:
		if m.W == nil {
			return nil, ErrNotTrained
		}
		kind = "lr"
		spec = logRegSpec{Cfg: m.Cfg, W: toDenseSpec(m.W), Classes: m.classes, Dim: m.dim}
	case *Tree:
		if len(m.nodes) == 0 {
			return nil, ErrNotTrained
		}
		kind = "dt"
		spec = m.spec()
	case *Forest:
		if len(m.Members) == 0 {
			return nil, ErrNotTrained
		}
		kind = "rf"
		fs := forestSpec{Cfg: m.Cfg, Classes: m.classes, Members: make([]treeSpec, len(m.Members))}
		for i, tr := range m.Members {
			fs.Members[i] = tr.spec()
		}
		spec = fs
	case *MLP:
		if len(m.Weights) == 0 {
			return nil, ErrNotTrained
		}
		kind = "mlp"
		ms := mlpSpec{Cfg: m.Cfg, Name: m.Name(), Biases: m.Biases, Sizes: m.sizes, Classes: m.classes}
		for _, w := range m.Weights {
			ms.Weights = append(ms.Weights, toDenseSpec(w))
		}
		spec = ms
	case *GBDT:
		if m.TreesPerClass == nil {
			return nil, ErrNotTrained
		}
		kind = "gbdt"
		spec = m.spec()
	default:
		return nil, fmt.Errorf("ml: cannot serialize model type %T", c)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshal %s spec: %w", kind, err)
	}
	return json.Marshal(Envelope{Kind: kind, Spec: raw})
}

// UnmarshalModel reconstructs a classifier serialized by MarshalModel.
func UnmarshalModel(data []byte) (Classifier, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("unmarshal model envelope: %w", err)
	}
	switch env.Kind {
	case "lr":
		var s logRegSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, fmt.Errorf("unmarshal lr spec: %w", err)
		}
		w, err := s.W.toDense()
		if err != nil {
			return nil, err
		}
		if err := validateLogRegSpec(w, s.Classes, s.Dim); err != nil {
			return nil, err
		}
		return &LogReg{Cfg: s.Cfg, W: w, classes: s.Classes, dim: s.Dim}, nil
	case "dt":
		var s treeSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, fmt.Errorf("unmarshal dt spec: %w", err)
		}
		f, err := (&forestSpec{Members: []treeSpec{s}, Classes: s.Classes}).build()
		if err != nil {
			return nil, err
		}
		return f.Members[0], nil
	case "rf":
		var s forestSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, fmt.Errorf("unmarshal rf spec: %w", err)
		}
		if len(s.Members) == 0 {
			return nil, fmt.Errorf("ml: rf spec has no member trees")
		}
		return s.build()
	case "mlp":
		var s mlpSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, fmt.Errorf("unmarshal mlp spec: %w", err)
		}
		s.Cfg.name = s.Name
		m := &MLP{Cfg: s.Cfg, Biases: s.Biases, sizes: s.Sizes, classes: s.Classes}
		for _, ws := range s.Weights {
			w, err := ws.toDense()
			if err != nil {
				return nil, err
			}
			m.Weights = append(m.Weights, w)
		}
		if err := validateMLPSpec(m.Weights, m.Biases, m.sizes, m.classes); err != nil {
			return nil, err
		}
		return m, nil
	case "gbdt":
		var s gbdtSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, fmt.Errorf("unmarshal gbdt spec: %w", err)
		}
		s.Cfg.name = s.Name
		return s.build()
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}

// NewByName constructs an untrained classifier from an algorithm name with
// default experiment configuration. Recognized names: lr, dt, rf, mlp,
// dnn, lgbm, xgb, nn (alias for mlp, the name use case 2 reports).
func NewByName(name string, seed int64) (Classifier, error) {
	switch name {
	case "lr":
		cfg := DefaultLogRegConfig()
		cfg.Seed = seed
		return NewLogReg(cfg), nil
	case "dt":
		cfg := DefaultTreeConfig()
		cfg.Seed = seed
		return NewTree(cfg), nil
	case "rf":
		cfg := DefaultForestConfig()
		cfg.Seed = seed
		return NewForest(cfg), nil
	case "mlp", "nn":
		cfg := DefaultMLPConfig()
		cfg.Seed = seed
		return NewMLP(cfg), nil
	case "dnn":
		cfg := DefaultDNNConfig()
		cfg.Seed = seed
		return NewDNN(cfg), nil
	case "lgbm":
		cfg := DefaultLightGBMConfig()
		cfg.Seed = seed
		return NewGBDT(cfg), nil
	case "xgb":
		cfg := DefaultXGBoostConfig()
		cfg.Seed = seed
		return NewGBDT(cfg), nil
	default:
		return nil, fmt.Errorf("ml: unknown algorithm %q", name)
	}
}

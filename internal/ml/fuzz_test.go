package ml

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// FuzzUnmarshalModel asserts the model decoder never panics on arbitrary
// bytes and that any model it accepts can predict without panicking.
func FuzzUnmarshalModel(f *testing.F) {
	// Seed with a genuine envelope of every kind.
	data := blobs(99, 60, 3, 2, 1.0)
	for _, name := range []string{"lr", "dt", "rf", "mlp", "lgbm", "xgb"} {
		c, err := NewByName(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		if err := c.Fit(data); err != nil {
			f.Fatal(err)
		}
		blob, err := MarshalModel(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"kind":"lr","spec":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		model, err := UnmarshalModel(raw)
		if err != nil {
			return
		}
		// A tree kind knows the narrowest row it can score, and an accepted
		// one scores it, serially and batched: nothing is recovered here.
		// (A feature index near 2^31 is accepted too; do not allocate that
		// row.)
		if m, ok := model.(interface{ MinInputDim() int }); ok {
			if w := m.MinInputDim(); w <= 1<<16 {
				x := make([]float64, w)
				_ = model.PredictProba(x)
				_ = PredictProbaAll(model, [][]float64{x, x})
			}
			return
		}
		// The other kinds declare their own width, which a fuzzed spec may
		// set to anything, so probe defensively.
		defer func() {
			// A panic here is allowed only for the documented
			// ErrNotTrained sentinel (zero-value models); anything
			// else is a decoder bug.
			if r := recover(); r != nil && r != ErrNotTrained {
				// Index panics from inconsistent fuzzed specs are a
				// known limitation of trusting the envelope's own
				// dimensions; surface everything else.
				if _, ok := r.(error); !ok {
					t.Fatalf("unexpected panic type: %v", r)
				}
			}
		}()
		x := make([]float64, 8)
		_ = model.PredictProba(x)
	})
}

// FuzzMLPBatchMatchesSerial attacks the claim the serving workers and the
// explainers rest on: PredictProbaBatch returns PredictProba's bits, for
// any geometry (down to one hidden unit, up to three groups of four neurons
// and two leftovers), any batch size (every remainder of the four-row tile)
// and any float64 — raw is read eight bytes at a time as bit patterns, so
// inputs and weights reach NaN, ±Inf, −0 and denormals.
func FuzzMLPBatchMatchesSerial(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(4), []byte{})
	f.Add(uint8(20), uint8(0x85), uint8(0xc8), []byte("\x3f\xf0\x00\x00\x00\x00\x00\x00\xbf\xe0\x00\x00\x00\x00\x00\x00"))
	// A 5→5→5→3 net and ten rows: each hidden layer is a four-neuron group
	// and a leftover neuron, the batch two tiles and two leftover rows.
	f.Add(uint8(4), uint8(0x82), uint8(64), []byte("\x3f\xf0\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\xc0\x04\x00\x00\x00\x00\x00\x00"))
	// A 6→13→13→2 net and ten rows: each hidden layer is three groups of
	// four neurons, whose leaky ReLU the assembly takes, and one neuron
	// after them, whose neuronTile takes.
	f.Add(uint8(5), uint8(0x8a), uint8(9), []byte("\xbf\xf0\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x01"))

	f.Fuzz(func(t *testing.T, dim, hidden, rows uint8, raw []byte) {
		d, h, n := 1+int(dim%8), 1+int(hidden%14), 1+int(rows%11)
		cfg := MLPConfig{Hidden: []int{h}, Seed: int64(dim) + 1}
		if hidden&0x80 != 0 {
			cfg.Hidden = []int{h, h}
		}
		m := NewMLP(cfg)
		if err := m.Init(d, 2+int(rows>>6)); err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		// The first n·d values are the rows (a fixed ramp when raw runs
		// out); the rest overwrite the leading weights.
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				if k := i*d + j; k < len(vals) {
					X[i][j] = vals[k]
				} else {
					X[i][j] = float64(k%7) - 3
				}
			}
		}
		if len(vals) > n*d {
			params := m.Parameters()
			copy(params, vals[n*d:])
			if err := m.SetParameters(params); err != nil {
				t.Fatal(err)
			}
		}
		got := m.PredictProbaBatch(X)
		if len(got) != n {
			t.Fatalf("batch rows %d, want %d", len(got), n)
		}
		for i, x := range X {
			want := m.PredictProba(x)
			for c := range want {
				// NaN payloads are not part of the contract.
				if math.Float64bits(got[i][c]) != math.Float64bits(want[c]) && !(math.IsNaN(got[i][c]) && math.IsNaN(want[c])) {
					t.Fatalf("%dx%v net, batch of %d, row %d class %d: batch %v != serial %v",
						d, cfg.Hidden, n, i, c, got[i][c], want[c])
				}
			}
		}
	})
}

// fuzzSource hands out the fuzzer's bytes one at a time or eight at a time
// as a float64 bit pattern, and a fixed ramp once they run out.
type fuzzSource struct {
	raw []byte
	n   int
}

func (s *fuzzSource) byte() int {
	s.n++
	if len(s.raw) > 0 {
		b := s.raw[0]
		s.raw = s.raw[1:]
		return int(b)
	}
	return s.n * 7 % 251
}

func (s *fuzzSource) float() float64 {
	s.n++
	if len(s.raw) >= 8 {
		v := math.Float64frombits(binary.BigEndian.Uint64(s.raw))
		s.raw = s.raw[8:]
		return v
	}
	return float64(s.n%9) - 4
}

// jsonFloat is float as JSON can carry it: −0 and denormals pass, NaN and
// ±Inf (which no envelope can hold) are folded onto finite values.
func (s *fuzzSource) jsonFloat() float64 {
	v := s.float()
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return math.Copysign(math.MaxFloat64, v)
	}
	return v
}

// refNode is the envelope's node as this test spells it, for dt ("c") and
// gbdt ("v") alike; refWalk is the traversal every tree model had before
// they shared one, kept here as the oracle.
type refNode struct {
	F int       `json:"f"`
	T float64   `json:"t"`
	L int       `json:"l"`
	R int       `json:"r"`
	C []float64 `json:"c,omitempty"`
	V float64   `json:"v"`
}

func refWalk(nodes []refNode, x []float64) *refNode {
	n := &nodes[0]
	for n.F >= 0 {
		if x[n.F] <= n.T {
			n = &nodes[n.L]
		} else {
			n = &nodes[n.R]
		}
	}
	return n
}

// refProba is the Laplace smoothing a leaf's counts always had.
func refProba(counts []float64) []float64 {
	p := make([]float64, len(counts))
	var total float64
	for _, c := range counts {
		total += c
	}
	for i, c := range counts {
		p[i] = (c + 1e-9) / (total + float64(len(counts))*1e-9)
		if total == 0 {
			p[i] = 1 / float64(len(counts))
		}
	}
	return p
}

// refTree draws a tree over dim features: splits more splits, laid out in
// the recursive growers' pre-order or, leafwise, by splitting a drawn leaf
// in place and appending its children — the root first. Zero splits is the
// single leaf.
func refTree(s *fuzzSource, dim, classes, splits int, leafwise bool) []refNode {
	leaf := func() refNode {
		n := refNode{F: -1, V: s.jsonFloat(), C: make([]float64, classes)}
		for c := range n.C {
			n.C[c] = math.Abs(s.jsonFloat())
		}
		return n
	}
	if leafwise {
		nodes, leaves := []refNode{leaf()}, []int{0}
		for ; splits > 0; splits-- {
			at := s.byte() % len(leaves)
			nodes[leaves[at]] = refNode{F: s.byte() % dim, T: s.jsonFloat(), L: len(nodes), R: len(nodes) + 1}
			leaves[at] = len(nodes)
			leaves = append(leaves, len(nodes)+1)
			nodes = append(nodes, leaf(), leaf())
		}
		return nodes
	}
	var nodes []refNode
	var grow func() int
	grow = func() int {
		i := len(nodes)
		if splits == 0 || s.byte()%4 == 0 {
			nodes = append(nodes, leaf())
			return i
		}
		splits--
		nodes = append(nodes, refNode{F: s.byte() % dim, T: s.jsonFloat()})
		nodes[i].L = grow()
		nodes[i].R = grow()
		return i
	}
	grow()
	return nodes
}

type refTreeSpec struct {
	Nodes   []refNode `json:"nodes"`
	Classes int       `json:"classes"`
}

// FuzzTreeBatchMatchesSerial attacks the tree families the way
// FuzzMLPBatchMatchesSerial attacks the networks, and from one step further
// out: the model is an envelope built from the fuzzer's bytes (any shape
// down to a single leaf, one to eight members, zero to seven rounds, either
// node layout, thresholds and leaf values as raw bit patterns), loaded
// through UnmarshalModel, and both shapes of the compiled kernel must equal
// the old traversal walked over the envelope's own nodes, bit for bit:
// PredictProba, which walks one row through four trees at a time, and
// PredictProbaBatch at every batch size from 1 to 11, so that four-row
// lanes and the leftover rows both run. Rows are raw bit patterns too:
// NaN, ±Inf, −0 and denormals.
func FuzzTreeBatchMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(0x35), uint8(7), []byte("\x7f\xf8\x00\x00\x00\x00\x00\x01\x80\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(2), uint8(0xa3), uint8(9), []byte("\x00\x00\x00\x00\x00\x00\x00\x01\xff\xf0\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, kind, shape, rows uint8, raw []byte) {
		s := &fuzzSource{raw: raw}
		dim, classes, n := 1+int(shape&7), 1+int(shape>>3&3), 1+int(rows%11)
		splits, leafwise, trees := int(shape>>5), rows&0x80 != 0, int(rows>>4&7)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, dim)
			for j := range X[i] {
				X[i][j] = s.float()
			}
		}

		var spec any
		var ref func(x []float64) []float64
		envelope := Envelope{Kind: []string{"dt", "rf", "gbdt"}[kind%3]}
		switch envelope.Kind {
		case "dt":
			tree := refTreeSpec{Nodes: refTree(s, dim, classes, splits, leafwise), Classes: classes}
			spec = &tree
			ref = func(x []float64) []float64 { return refProba(refWalk(tree.Nodes, x).C) }
		case "rf":
			forest := struct {
				Members []refTreeSpec `json:"members"`
				Classes int           `json:"classes"`
			}{Classes: classes}
			for m := 0; m <= trees; m++ {
				forest.Members = append(forest.Members, refTreeSpec{Nodes: refTree(s, dim, classes, splits, leafwise), Classes: classes})
			}
			spec = &forest
			ref = func(x []float64) []float64 {
				acc := make([]float64, classes)
				for _, m := range forest.Members {
					for c, p := range refProba(refWalk(m.Nodes, x).C) {
						acc[c] += p
					}
				}
				for c := range acc {
					acc[c] *= 1 / float64(len(forest.Members))
				}
				return acc
			}
		default:
			classes++ // a boosted ensemble has at least two
			gbdt := struct {
				Cfg           GBDTConfig      `json:"cfg"`
				Base          []float64       `json:"base"`
				TreesPerClass [][]refTreeSpec `json:"treesPerClass"`
				Classes       int             `json:"classes"`
			}{Cfg: GBDTConfig{LearningRate: s.jsonFloat()}, Classes: classes}
			for c := 0; c < classes; c++ {
				gbdt.Base = append(gbdt.Base, s.jsonFloat())
				class := []refTreeSpec{} // zero rounds is an empty list, not null
				for r := 0; r < trees; r++ {
					class = append(class, refTreeSpec{Nodes: refTree(s, dim, 0, splits, leafwise)})
				}
				gbdt.TreesPerClass = append(gbdt.TreesPerClass, class)
			}
			spec = &gbdt
			ref = func(x []float64) []float64 {
				logits := make([]float64, classes)
				for c := range logits {
					logits[c] = gbdt.Base[c]
					for _, tr := range gbdt.TreesPerClass[c] {
						logits[c] += gbdt.Cfg.LearningRate * refWalk(tr.Nodes, x).V
					}
				}
				return mat.Softmax(logits, logits)
			}
		}

		// The oracle walks what the JSON carried, not what was drawn.
		var err error
		if envelope.Spec, err = json.Marshal(spec); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(envelope.Spec, spec); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(envelope)
		if err != nil {
			t.Fatal(err)
		}
		model, err := UnmarshalModel(blob)
		if err != nil {
			t.Fatalf("a well-formed %s envelope was refused: %v\n%s", envelope.Kind, err, blob)
		}
		if w := model.(interface{ MinInputDim() int }).MinInputDim(); w > dim {
			t.Fatalf("model over %d features claims to read %d", dim, w)
		}

		check := func(form string, i int, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s, row %d: %s has %d classes, want %d", envelope.Kind, i, form, len(got), len(want))
			}
			for c := range want {
				// NaN payloads are not part of the contract.
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) && !(math.IsNaN(got[c]) && math.IsNaN(want[c])) {
					t.Fatalf("%s, row %d class %d: %s %v != reference %v\n%s", envelope.Kind, i, c, form, got[c], want[c], blob)
				}
			}
		}
		want := make([][]float64, n)
		for i, x := range X {
			want[i] = ref(x)
			check("serial", i, model.PredictProba(x), want[i])
		}
		// The drawn rows, repeated out to eleven, in batches of every size.
		batch := make([][]float64, 11)
		for i := range batch {
			batch[i] = X[i%n]
		}
		for size := 1; size <= len(batch); size++ {
			for i, got := range PredictProbaAll(model, batch[:size]) {
				check(fmt.Sprintf("batch of %d", size), i, got, want[i%n])
			}
		}
	})
}

package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// MLPConfig configures a feed-forward neural network with ReLU hidden
// layers and a softmax output, trained by mini-batch SGD with momentum.
// The paper's "MLP" uses one hidden layer and its "DNN" a deeper stack;
// both are instances of this type (see NewMLP and NewDNN).
type MLPConfig struct {
	Hidden       []int   `json:"hidden"`
	LearningRate float64 `json:"learningRate"`
	Momentum     float64 `json:"momentum"`
	Epochs       int     `json:"epochs"`
	BatchSize    int     `json:"batchSize"`
	L2           float64 `json:"l2"`
	Seed         int64   `json:"seed"`
	// WarmStart makes Fit continue from the current parameters when the
	// model is already shaped for the dataset (used by federated local
	// training) instead of re-initializing.
	WarmStart bool `json:"warmStart,omitempty"`
	// name distinguishes "mlp" from "dnn" in reports.
	name string
}

// DefaultMLPConfig returns the single-hidden-layer configuration ("MLP").
func DefaultMLPConfig() MLPConfig {
	return MLPConfig{Hidden: []int{128, 64}, LearningRate: 0.05, Momentum: 0.9, Epochs: 100, BatchSize: 32, L2: 1e-5, Seed: 1, name: "mlp"}
}

// DefaultDNNConfig returns the deeper configuration ("DNN").
func DefaultDNNConfig() MLPConfig {
	return MLPConfig{Hidden: []int{128, 64, 32}, LearningRate: 0.03, Momentum: 0.9, Epochs: 50, BatchSize: 32, L2: 1e-5, Seed: 1, name: "dnn"}
}

// leakySlope is the negative-side slope of the leaky-ReLU hidden
// activation. A small positive slope keeps gradients flowing through
// inactive units, preventing the dying-ReLU collapse that a pure ReLU
// network can hit with unlucky initialization.
const leakySlope = 0.01

// maxGradNorm bounds the per-batch mean gradient norm. SGD with momentum
// on unnormalized inputs can otherwise blow past the loss basin and
// diverge to NaN; clipping is the standard stabilizer.
const maxGradNorm = 5.0

// MLP is the feed-forward network. Weights[l] is (out×in), Biases[l] has
// length out, for each layer l.
type MLP struct {
	Cfg MLPConfig

	Weights []*mat.Dense
	Biases  [][]float64
	sizes   []int // layer widths including input and output
	classes int
}

var (
	_ Classifier         = (*MLP)(nil)
	_ GradientClassifier = (*MLP)(nil)
	_ BatchPredictor     = (*MLP)(nil)
)

// NewMLP constructs an untrained network; cfg.Hidden must be non-empty.
func NewMLP(cfg MLPConfig) *MLP {
	if cfg.name == "" {
		cfg.name = "mlp"
	}
	return &MLP{Cfg: cfg}
}

// NewDNN constructs the deep variant with its own display name.
func NewDNN(cfg MLPConfig) *MLP {
	cfg.name = "dnn"
	return &MLP{Cfg: cfg}
}

// Name implements Classifier.
func (m *MLP) Name() string { return m.Cfg.name }

// NumClasses implements Classifier.
func (m *MLP) NumClasses() int { return m.classes }

// Fit implements Classifier.
func (m *MLP) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("%s fit: empty dataset", m.Name())
	}
	if len(m.Cfg.Hidden) == 0 {
		return fmt.Errorf("%s fit: no hidden layers configured", m.Name())
	}
	if m.Cfg.Epochs <= 0 || m.Cfg.LearningRate <= 0 {
		return fmt.Errorf("%s fit: invalid config %+v", m.Name(), m.Cfg)
	}
	rng := rand.New(rand.NewSource(m.Cfg.Seed))
	warm := m.Cfg.WarmStart && len(m.Weights) > 0 &&
		len(m.sizes) > 0 && m.sizes[0] == t.NumFeatures() && m.classes == t.NumClasses()
	if !warm {
		if err := m.Init(t.NumFeatures(), t.NumClasses()); err != nil {
			return err
		}
	}
	layers := len(m.sizes) - 1

	vW := make([]*mat.Dense, layers)
	vB := make([][]float64, layers)
	gW := make([]*mat.Dense, layers)
	gB := make([][]float64, layers)
	for l := 0; l < layers; l++ {
		vW[l] = mat.NewDense(m.sizes[l+1], m.sizes[l])
		gW[l] = mat.NewDense(m.sizes[l+1], m.sizes[l])
		vB[l] = make([]float64, m.sizes[l+1])
		gB[l] = make([]float64, m.sizes[l+1])
	}

	batch := m.Cfg.BatchSize
	if batch <= 0 || batch > t.Len() {
		batch = t.Len()
	}
	n := t.Len()
	order := rng.Perm(n)
	// One set of activations per tile lane, and the two four-lane tiles
	// forwardTile passes between layers.
	var acts [4][][]float64
	for i := range acts {
		acts[i] = m.newActivations()
	}
	width := 0
	for _, s := range m.sizes {
		width = max(width, s)
	}
	cur, next := make([]float64, 4*width), make([]float64, 4*width)
	deltas := m.newDeltas()

	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for l := 0; l < layers; l++ {
				for r := 0; r < m.sizes[l+1]; r++ {
					zero(gW[l].Row(r))
				}
				zero(gB[l])
			}
			// The weights are fixed until the batch's update, so its
			// samples go forward four to a tile; each is then taken
			// backward in batch order, as one at a time would take it.
			idx := order[start:end]
			for ; len(idx) >= 4; idx = idx[4:] {
				x := [4][]float64{t.X[idx[0]], t.X[idx[1]], t.X[idx[2]], t.X[idx[3]]}
				m.forwardTile(&x, &acts, cur, next)
				for i, j := range idx[:4] {
					m.backward(x[i], t.Y[j], acts[i], deltas, gW, gB)
				}
			}
			for _, j := range idx {
				m.forward(t.X[j], acts[0])
				m.backward(t.X[j], t.Y[j], acts[0], deltas, gW, gB)
			}
			// Global-norm clip of the mean batch gradient.
			var gnorm2 float64
			for l := 0; l < layers; l++ {
				for r := 0; r < m.sizes[l+1]; r++ {
					for _, v := range gW[l].Row(r) {
						gnorm2 += v * v
					}
				}
				for _, v := range gB[l] {
					gnorm2 += v * v
				}
			}
			bs := float64(end - start)
			clip := 1.0
			if gnorm := math.Sqrt(gnorm2) / bs; gnorm > maxGradNorm {
				clip = maxGradNorm / gnorm
			}
			lr := m.Cfg.LearningRate * clip / bs
			for l := 0; l < layers; l++ {
				for r := 0; r < m.sizes[l+1]; r++ {
					wrow := m.Weights[l].Row(r)
					grow := gW[l].Row(r)
					vrow := vW[l].Row(r)
					for c := range wrow {
						vrow[c] = m.Cfg.Momentum*vrow[c] - lr*grow[c] - m.Cfg.LearningRate*m.Cfg.L2*wrow[c]
						wrow[c] += vrow[c]
					}
					vB[l][r] = m.Cfg.Momentum*vB[l][r] - lr*gB[l][r]
					m.Biases[l][r] += vB[l][r]
				}
			}
		}
	}
	return nil
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// newActivations allocates per-layer activation buffers (index 0 unused;
// acts[l] is the output of layer l-1 for l >= 1).
func (m *MLP) newActivations() [][]float64 {
	acts := make([][]float64, len(m.sizes))
	for l := 1; l < len(m.sizes); l++ {
		acts[l] = make([]float64, m.sizes[l])
	}
	return acts
}

func (m *MLP) newDeltas() [][]float64 {
	deltas := make([][]float64, len(m.sizes))
	for l := 1; l < len(m.sizes); l++ {
		deltas[l] = make([]float64, m.sizes[l])
	}
	return deltas
}

// forward runs the network, filling acts; the final layer holds softmax
// probabilities.
func (m *MLP) forward(x []float64, acts [][]float64) {
	// Reslice hint restating the validated geometry: len(acts) ==
	// len(Weights)+1.
	acts = acts[:len(m.Weights)+1]
	in := x
	for l := range m.Weights {
		m.layerRow(l, in, acts[l+1])
		in = acts[l+1]
	}
	mat.Softmax(in, in)
}

// layerRow is layer l for one row, and the arithmetic every other form
// must reproduce: each output starts from its bias and adds one product
// per input in ascending order, then takes the leaky ReLU if the layer is
// hidden. It reads the leading sizes[l] entries of in and writes the
// leading sizes[l+1] of out.
func (m *MLP) layerRow(l int, in, out []float64) {
	w, bias := m.Weights[l], m.Biases[l]
	hidden := l < len(m.Weights)-1
	// Reslice hints restating the validated geometry (w is len(bias) ×
	// sizes[l]), so the indexing below is provably in bounds.
	in, out = in[:m.sizes[l]], out[:len(bias)]
	for r, s := range bias {
		for c, wv := range w.Row(r)[:len(in)] {
			s += wv * in[c]
		}
		if hidden && s < 0 {
			s *= leakySlope // leaky ReLU avoids dead networks
		}
		out[r] = s
	}
}

// forwardTile is forward on four samples at once: x goes in as one
// lane-interleaved tile, every layer runs through layerTile, and the tile
// each layer writes is also transposed into that sample's acts. The lanes'
// sums are layerRow's own (see PredictProbaBatch), so every acts[i] ends as
// forward(x[i], acts[i]) would leave it. cur and next are as scoreTile's.
func (m *MLP) forwardTile(x *[4][]float64, acts *[4][][]float64, cur, next []float64) {
	toTile(x, cur, m.sizes[0])
	for l := range m.Weights {
		m.layerTile(l, cur, next)
		fromTile(next, &[4][]float64{acts[0][l+1], acts[1][l+1], acts[2][l+1], acts[3][l+1]}, m.sizes[l+1])
		cur, next = next, cur
	}
	for _, a := range acts {
		out := a[len(m.Weights)]
		mat.Softmax(out, out)
	}
}

// backward accumulates gradients for one sample into gW/gB. acts must hold
// the forward pass of x.
func (m *MLP) backward(x []float64, y int, acts, deltas [][]float64, gW []*mat.Dense, gB [][]float64) {
	L := len(m.Weights)
	// Output delta: softmax + cross-entropy gives p - onehot.
	out := acts[L]
	dOut := deltas[L]
	copy(dOut, out)
	dOut[y] -= 1

	for l := L - 1; l >= 0; l-- {
		inAct := x
		if l > 0 {
			inAct = acts[l]
		}
		d := deltas[l+1]
		for r, dr := range d {
			if dr == 0 {
				continue
			}
			axpy(gW[l].Row(r), inAct, dr)
			gB[l][r] += dr
		}
		if l > 0 {
			m.backDelta(l, d, deltas[l], acts[l])
		}
	}
}

// backDelta carries d, the loss gradient at layer l's outputs, back to its
// inputs: prev[c] is the sum over rows r in ascending order of d[r]·W[r][c],
// a row whose delta is zero skipped, and then, on a hidden input (l > 0),
// times the leaky ReLU's slope where act, the activation prev belongs to,
// is negative.
func (m *MLP) backDelta(l int, d, prev, act []float64) {
	zero(prev)
	w := m.Weights[l]
	for r, dr := range d {
		if dr == 0 {
			continue
		}
		axpy(prev, w.Row(r), dr)
	}
	if l > 0 {
		for c := range prev {
			if act[c] < 0 {
				prev[c] *= leakySlope
			}
		}
	}
}

// axpy is y[i] += a·x[i] over y, a multiply then an add, each rounded on
// its own: axpyAVX four lanes at a time where the CPU has AVX, axpyGo
// elsewhere. x must be at least as long as y.
func axpy(y, x []float64, a float64) {
	x = x[:len(y)]
	if hasAVX {
		axpyAVX(y, x, a)
		return
	}
	axpyGo(y, x, a)
}

// axpyGo is axpy's Go form, the fallback and the test oracle.
func axpyGo(y, x []float64, a float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += a * v
	}
}

// InputDim reports the width of the rows the network scores (0 before it
// is shaped).
func (m *MLP) InputDim() int {
	if len(m.sizes) == 0 {
		return 0
	}
	return m.sizes[0]
}

// checkInput panics with an error when x is not exactly as wide as the
// input layer; unchecked, a wide row is cut to the layer's width and a
// narrow one fails on a slice bound.
func (m *MLP) checkInput(x []float64) {
	if len(x) != m.sizes[0] {
		panicInputDim(len(x), m.sizes[0])
	}
}

// panicInputDim is kept out of line so that the error's boxed operands are
// not an allocation site inside its callers' row loops.
//
//go:noinline
func panicInputDim(got, want int) {
	panic(fmt.Errorf("ml: network input has %d features, want %d", got, want))
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(x []float64) []float64 {
	if len(m.Weights) == 0 {
		panic(ErrNotTrained)
	}
	m.checkInput(x)
	acts := m.newActivations()
	m.forward(x, acts)
	return mat.CloneVec(acts[len(acts)-1])
}

// PredictProbaBatch implements BatchPredictor. Rows go through the network
// four at a time as one lane-interleaved tile, t[4c+l] = feature c of row l
// (scoreTile): every layer reads a tile and writes one, so a row is
// transposed only going in and coming out, and a tile's lanes are one
// 256-bit vector. Every lane's sum is still layerRow's own — bias first,
// then one product per input in ascending order, each multiply and add
// rounded on its own — so the rows are bit-identical to PredictProba's
// (mat.Mul, which adds the bias to a sum started from zero, would round
// differently). The one to three rows after the last full tile go through
// layerRow itself. Both tiles are carved from the output's allocation, so
// the allocation count does not depend on the batch.
func (m *MLP) PredictProbaBatch(X [][]float64) [][]float64 {
	if len(m.Weights) == 0 {
		panic(ErrNotTrained)
	}
	// Every row is checked before any is scored, so a ragged batch fails
	// the same way whichever row is ragged.
	for _, x := range X {
		m.checkInput(x)
	}
	width := 0
	for _, s := range m.sizes {
		width = max(width, s)
	}
	// Two buffers of four lanes for tiles; a batch too short for a tile
	// needs two of one lane, as PredictProba does.
	lanes := 1
	if len(X) >= 4 {
		lanes = 4
	}
	out, scratch := probaRowsScratch(len(X), m.classes, 2*lanes*width)
	cur, next := scratch[:lanes*width], scratch[lanes*width:]
	i := 0
	for ; i+4 <= len(X); i += 4 {
		m.scoreTile((*[4][]float64)(X[i:i+4]), (*[4][]float64)(out[i:i+4]), cur, next)
	}
	last := len(m.Weights) - 1
	for ; i < len(X); i++ {
		in, a, b := X[i], cur, next
		for l := 0; l < last; l++ {
			m.layerRow(l, in, a)
			in, a, b = a, b, a
		}
		m.layerRow(last, in, out[i])
	}
	for _, p := range out {
		mat.Softmax(p, p)
	}
	return out
}

// scoreTile runs the four rows x through the network and writes the output
// layer's sums to the leading entries of o's rows. cur and next are tiles
// of four lanes as wide as the widest layer; cur takes the transposed rows.
func (m *MLP) scoreTile(x, o *[4][]float64, cur, next []float64) {
	toTile(x, cur, m.sizes[0])
	for l := range m.Weights {
		m.layerTile(l, cur, next)
		cur, next = next, cur
	}
	fromTile(cur, o, m.classes)
}

// toTile writes the leading n entries of the four rows x into t as one
// tile, t[4c+l] = x[l][c].
func toTile(x *[4][]float64, t []float64, n int) {
	// Reslice hints: the rows are n wide, the tile is 4n.
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	t = t[:4*n]
	for c, v := range x0 {
		lanes := (*[4]float64)(t[4*c:])
		lanes[0], lanes[1], lanes[2], lanes[3] = v, x1[c], x2[c], x3[c]
	}
}

// fromTile is toTile's inverse: the n columns of the tile t go to the
// leading n entries of the four rows o.
func fromTile(t []float64, o *[4][]float64, n int) {
	o0, o1, o2, o3 := o[0][:n], o[1][:n], o[2][:n], o[3][:n]
	t = t[:4*n]
	for c := range o0 {
		lanes := (*[4]float64)(t[4*c:])
		o0[c], o1[c], o2[c], o3[c] = lanes[0], lanes[1], lanes[2], lanes[3]
	}
}

// layerTile is layer l on a tile: in holds sizes[l] features of four lanes,
// out receives one neuron's four lanes per bias, leaky ReLU applied if the
// layer is hidden. Neurons go four at a time through kernel4x4AVX when the
// CPU has it; the rest, and all of them on any other CPU, through
// neuronTile. Both take the activation as they store: a negative sum is
// multiplied by slope, which is leakySlope on a hidden layer and 1 on the
// output layer, where s·1 is s exactly.
func (m *MLP) layerTile(l int, in, out []float64) {
	w, bias := m.Weights[l], m.Biases[l]
	slope := 1.0
	if l < len(m.Weights)-1 {
		slope = leakySlope
	}
	// What kernel4x4AVX reads is exactly what it is handed: four weight
	// rows of n, a tile of 4n, and two arrays.
	n := w.Cols()
	in, out = in[:4*n], out[:4*len(bias)]
	r := 0
	if hasAVX {
		for ; r+4 <= len(bias); r += 4 {
			kernel4x4AVX(w.RowSpan(r, 4), in, (*[4]float64)(bias[r:r+4]), (*[16]float64)(out[4*r:4*r+16]), slope)
		}
	}
	for ; r < len(bias); r++ {
		neuronTile(w.Row(r), in, bias[r], (*[4]float64)(out[4*r:4*r+4]), slope)
	}
}

// neuronTile is the Go form of the tile kernel: one weight row against the
// tile's four lanes, each lane's sum accumulated exactly as layerRow
// accumulates its one and multiplied by slope if it is below zero, as
// layerRow takes the leaky ReLU. kernel4x4AVX is four of these at once.
func neuronTile(w, t []float64, b float64, o *[4]float64, slope float64) {
	s0, s1, s2, s3 := b, b, b, b
	for _, wv := range w {
		// Never taken (t is 4·len(w)); it lets the compiler drop the
		// bounds checks below.
		if len(t) < 4 {
			break
		}
		s0 += wv * t[0]
		s1 += wv * t[1]
		s2 += wv * t[2]
		s3 += wv * t[3]
		t = t[4:]
	}
	o[0], o[1], o[2], o[3] = leaky(s0, slope), leaky(s1, slope), leaky(s2, slope), leaky(s3, slope)
}

// leaky is layerRow's activation on one sum: s·slope if s < 0, else s
// (−0 and NaN included).
func leaky(s, slope float64) float64 {
	if s < 0 {
		return s * slope
	}
	return s
}

// InputGradient implements GradientClassifier: the cross-entropy gradient
// back-propagated all the way to the input vector.
func (m *MLP) InputGradient(x []float64, class int) []float64 {
	if len(m.Weights) == 0 {
		panic(ErrNotTrained)
	}
	m.checkInput(x)
	acts := m.newActivations()
	deltas := m.newDeltas()
	m.forward(x, acts)

	L := len(m.Weights)
	dOut := deltas[L]
	copy(dOut, acts[L])
	dOut[class] -= 1
	for l := L - 1; l >= 1; l-- {
		m.backDelta(l, deltas[l+1], deltas[l], acts[l])
	}
	// Final hop to the input.
	g := make([]float64, m.sizes[0])
	m.backDelta(0, deltas[1], g, nil)
	return g
}

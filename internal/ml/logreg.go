package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// LogRegConfig configures multinomial logistic regression.
type LogRegConfig struct {
	LearningRate float64 `json:"learningRate"`
	Epochs       int     `json:"epochs"`
	BatchSize    int     `json:"batchSize"`
	L2           float64 `json:"l2"`
	Seed         int64   `json:"seed"`
	// WarmStart makes Fit continue from the current weights when the
	// model is already shaped for the dataset (used by federated local
	// training) instead of re-initializing.
	WarmStart bool `json:"warmStart,omitempty"`
}

// DefaultLogRegConfig returns the configuration used by the experiments.
func DefaultLogRegConfig() LogRegConfig {
	return LogRegConfig{LearningRate: 0.1, Epochs: 60, BatchSize: 32, L2: 1e-4, Seed: 1}
}

// LogReg is a multinomial (softmax) logistic-regression classifier trained
// with mini-batch SGD. It is the linear baseline in use case 1 and, being
// differentiable, supports FGSM via InputGradient.
type LogReg struct {
	Cfg LogRegConfig

	// W is (classes)×(features+1); the last column is the bias.
	W       *mat.Dense
	classes int
	dim     int
}

var (
	_ Classifier         = (*LogReg)(nil)
	_ GradientClassifier = (*LogReg)(nil)
)

// NewLogReg constructs an untrained model.
func NewLogReg(cfg LogRegConfig) *LogReg { return &LogReg{Cfg: cfg} }

// Name implements Classifier.
func (m *LogReg) Name() string { return "lr" }

// NumClasses implements Classifier.
func (m *LogReg) NumClasses() int { return m.classes }

// Fit implements Classifier.
func (m *LogReg) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("lr fit: empty dataset")
	}
	if m.Cfg.Epochs <= 0 || m.Cfg.LearningRate <= 0 {
		return fmt.Errorf("lr fit: invalid config %+v", m.Cfg)
	}
	warm := m.Cfg.WarmStart && m.W != nil && m.dim == t.NumFeatures() && m.classes == t.NumClasses()
	if !warm {
		if err := m.Init(t.NumFeatures(), t.NumClasses()); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(m.Cfg.Seed))

	batch := m.Cfg.BatchSize
	if batch <= 0 || batch > t.Len() {
		batch = t.Len()
	}
	n := t.Len()
	order := rng.Perm(n)
	logits := make([]float64, m.classes)
	probs := make([]float64, m.classes)
	grad := mat.NewDense(m.classes, m.dim+1)

	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			// Zero the gradient accumulator.
			for r := 0; r < m.classes; r++ {
				row := grad.Row(r)
				for j := range row {
					row[j] = 0
				}
			}
			for _, idx := range order[start:end] {
				x := t.X[idx]
				y := t.Y[idx]
				m.logits(x, logits)
				mat.Softmax(logits, probs)
				for k := 0; k < m.classes; k++ {
					delta := probs[k]
					if k == y {
						delta -= 1
					}
					if delta == 0 {
						continue
					}
					grow := grad.Row(k)
					for j, v := range x {
						grow[j] += delta * v
					}
					grow[m.dim] += delta
				}
			}
			scale := m.Cfg.LearningRate / float64(end-start)
			for k := 0; k < m.classes; k++ {
				wrow := m.W.Row(k)
				grow := grad.Row(k)
				for j := range wrow {
					wrow[j] -= scale*grow[j] + m.Cfg.LearningRate*m.Cfg.L2*wrow[j]
				}
			}
		}
	}
	return nil
}

func (m *LogReg) logits(x, dst []float64) {
	// Reslice hints: W is classes x (dim+1) with the bias last; pinning
	// the lengths makes the hot-loop indexing provably in bounds.
	dst = dst[:m.classes]
	for k := 0; k < m.classes; k++ {
		row := m.W.Row(k)[:m.dim+1]
		s := row[m.dim] // bias
		w := row[:len(x)]
		for j, v := range x {
			s += w[j] * v
		}
		dst[k] = s
	}
}

// InputDim reports the width of the rows the model scores (0 before it is
// shaped).
func (m *LogReg) InputDim() int { return m.dim }

// PredictProba implements Classifier.
func (m *LogReg) PredictProba(x []float64) []float64 {
	if m.W == nil {
		panic(ErrNotTrained)
	}
	logits := make([]float64, m.classes)
	m.logits(x, logits)
	return mat.Softmax(logits, nil)
}

// InputGradient implements GradientClassifier. For softmax regression the
// gradient of the cross-entropy at x w.r.t. x is
// sum_k (p_k - 1{k=class}) * W_k.
func (m *LogReg) InputGradient(x []float64, class int) []float64 {
	if m.W == nil {
		panic(ErrNotTrained)
	}
	p := m.PredictProba(x)
	g := make([]float64, m.dim)
	for k := 0; k < m.classes; k++ {
		delta := p[k]
		if k == class {
			delta -= 1
		}
		if delta == 0 {
			continue
		}
		row := m.W.Row(k)
		for j := range g {
			g[j] += delta * row[j]
		}
	}
	return g
}

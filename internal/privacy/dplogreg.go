package privacy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/ml"
)

// DPLogRegConfig configures differentially-private multinomial logistic
// regression (DP-SGD: per-sample gradient clipping + Gaussian noise).
type DPLogRegConfig struct {
	NoiseMultiplier float64 `json:"noiseMultiplier"`
	Seed            int64   `json:"seed"`
}

// DefaultDPLogRegConfig returns a moderate-privacy configuration.
func DefaultDPLogRegConfig() DPLogRegConfig {
	return DPLogRegConfig{NoiseMultiplier: 1.0, Seed: 1}
}

// The DP-SGD schedule: dpEpochs passes of minibatches of dpBatchSize
// (the whole set when it is smaller) at step size dpLearningRate.
const (
	dpLearningRate = 0.1
	dpEpochs       = 40
	dpBatchSize    = 32
	// dpClipNorm bounds each sample's gradient in L2.
	dpClipNorm = 1.0
)

// DPLogReg is the differentially-private variant of ml.LogReg. Per-sample
// gradients are L2-clipped to dpClipNorm and batch sums are perturbed with
// Gaussian noise of scale NoiseMultiplier·dpClipNorm before the update.
type DPLogReg struct {
	Cfg DPLogRegConfig

	// W is (classes)×(features+1); the last column is the bias.
	W       *mat.Dense
	classes int
	dim     int
	steps   int
	samples int
}

var _ ml.Classifier = (*DPLogReg)(nil)

// NewDPLogReg constructs an untrained model.
func NewDPLogReg(cfg DPLogRegConfig) *DPLogReg { return &DPLogReg{Cfg: cfg} }

// Name implements ml.Classifier.
func (m *DPLogReg) Name() string { return "dp-lr" }

// NumClasses implements ml.Classifier.
func (m *DPLogReg) NumClasses() int { return m.classes }

// Fit implements ml.Classifier with DP-SGD.
func (m *DPLogReg) Fit(t *dataset.Table) error {
	if t.Len() == 0 {
		return fmt.Errorf("dp-lr fit: empty dataset")
	}
	if m.Cfg.NoiseMultiplier < 0 {
		return fmt.Errorf("dp-lr fit: NoiseMultiplier must be non-negative")
	}
	m.classes = t.NumClasses()
	m.dim = t.NumFeatures()
	m.samples = t.Len()
	m.steps = 0
	m.W = mat.NewDense(m.classes, m.dim+1)
	rng := rand.New(rand.NewSource(m.Cfg.Seed))

	batch := min(dpBatchSize, t.Len())
	n := t.Len()
	order := rng.Perm(n)
	logits := make([]float64, m.classes)
	probs := make([]float64, m.classes)
	sampleGrad := mat.NewDense(m.classes, m.dim+1)
	batchGrad := mat.NewDense(m.classes, m.dim+1)
	noiseStd := m.Cfg.NoiseMultiplier * dpClipNorm

	for epoch := 0; epoch < dpEpochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for r := 0; r < m.classes; r++ {
				row := batchGrad.Row(r)
				for j := range row {
					row[j] = 0
				}
			}
			for _, idx := range order[start:end] {
				m.sampleGradient(t.X[idx], t.Y[idx], logits, probs, sampleGrad)
				clipInto(sampleGrad, batchGrad, dpClipNorm)
			}
			// Gaussian mechanism on the summed clipped gradients.
			scale := dpLearningRate / float64(end-start)
			for r := 0; r < m.classes; r++ {
				wrow := m.W.Row(r)
				grow := batchGrad.Row(r)
				for j := range wrow {
					noisy := grow[j]
					if noiseStd > 0 {
						noisy += rng.NormFloat64() * noiseStd
					}
					wrow[j] -= scale * noisy
				}
			}
			m.steps++
		}
	}
	return nil
}

// sampleGradient computes one sample's gradient into dst.
func (m *DPLogReg) sampleGradient(x []float64, y int, logits, probs []float64, dst *mat.Dense) {
	for k := 0; k < m.classes; k++ {
		row := m.W.Row(k)
		s := row[m.dim]
		for j, v := range x {
			s += row[j] * v
		}
		logits[k] = s
	}
	mat.Softmax(logits, probs)
	for k := 0; k < m.classes; k++ {
		delta := probs[k]
		if k == y {
			delta -= 1
		}
		drow := dst.Row(k)
		for j, v := range x {
			drow[j] = delta * v
		}
		drow[m.dim] = delta
	}
}

// clipInto L2-clips src to clipNorm and accumulates it into dst.
func clipInto(src, dst *mat.Dense, clipNorm float64) {
	var norm2 float64
	for r := 0; r < src.Rows(); r++ {
		for _, v := range src.Row(r) {
			norm2 += v * v
		}
	}
	scale := 1.0
	if norm := math.Sqrt(norm2); norm > clipNorm {
		scale = clipNorm / norm
	}
	for r := 0; r < src.Rows(); r++ {
		srow, drow := src.Row(r), dst.Row(r)
		for j, v := range srow {
			drow[j] += v * scale
		}
	}
}

// PredictProba implements ml.Classifier.
func (m *DPLogReg) PredictProba(x []float64) []float64 {
	if m.W == nil {
		panic(ml.ErrNotTrained)
	}
	logits := make([]float64, m.classes)
	for k := 0; k < m.classes; k++ {
		// Reslice hints: W is classes x (dim+1) with the bias last.
		row := m.W.Row(k)[:m.dim+1]
		s := row[m.dim]
		w := row[:len(x)]
		for j, v := range x {
			s += w[j] * v
		}
		logits[k] = s
	}
	return mat.Softmax(logits, nil)
}

// Epsilon reports the approximate (ε, δ)-DP budget spent by the last Fit.
func (m *DPLogReg) Epsilon(delta float64) (float64, error) {
	if m.steps == 0 {
		return 0, fmt.Errorf("dp-lr: model not trained")
	}
	if m.Cfg.NoiseMultiplier == 0 {
		return math.Inf(1), nil
	}
	q := float64(min(dpBatchSize, m.samples)) / float64(m.samples)
	return ApproxEpsilon(m.Cfg.NoiseMultiplier, q, m.steps, delta)
}

package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// fitRowwise is MLP.Fit as it stood before training moved onto the tile
// kernels, kept as the oracle for TestFitMatchesRowwise: every sample of a
// minibatch goes through forward and then backwardRowwise, one at a time.
func fitRowwise(m *MLP, t *dataset.Table) error {
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
	acts := m.newActivations()
	deltas := m.newDeltas()
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			for l := 0; l < layers; l++ {
				for r := 0; r < m.sizes[l+1]; r++ {
					zero(gW[l].Row(r))
				}
				zero(gB[l])
			}
			for _, idx := range order[start:end] {
				m.forward(t.X[idx], acts)
				backwardRowwise(m, t.X[idx], t.Y[idx], acts, deltas, gW, gB)
			}
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

// backwardRowwise is backward with its loops written out in plain Go.
func backwardRowwise(m *MLP, x []float64, y int, acts, deltas [][]float64, gW []*mat.Dense, gB [][]float64) {
	L := len(m.Weights)
	dOut := deltas[L]
	copy(dOut, acts[L])
	dOut[y] -= 1
	for l := L - 1; l >= 0; l-- {
		inAct := x
		if l > 0 {
			inAct = acts[l]
		}
		d := deltas[l+1]
		for r := 0; r < m.sizes[l+1]; r++ {
			dr := d[r]
			if dr == 0 {
				continue
			}
			grow := gW[l].Row(r)
			for c, v := range inAct {
				grow[c] += dr * v
			}
			gB[l][r] += dr
		}
		if l > 0 {
			prev := deltas[l]
			zero(prev)
			w := m.Weights[l]
			for r := 0; r < m.sizes[l+1]; r++ {
				dr := d[r]
				if dr == 0 {
					continue
				}
				row := w.Row(r)
				for c := range prev {
					prev[c] += dr * row[c]
				}
			}
			for c := range prev {
				if acts[l][c] < 0 {
					prev[c] *= leakySlope
				}
			}
		}
	}
}

// TestFitMatchesRowwise holds Fit, which scores each minibatch four samples
// to a tile and sums its gradients through axpy, to fitRowwise bit for bit:
// every weight and bias, on the benchmark's 21→128→64→3 net, the deep
// preset and a 6→13→13→2 net whose 13-neuron layers leave neuronTile one
// neuron after the last group of four; at batch sizes below, at and above
// a tile, none dividing the 206 samples; with a heavier L2; and again
// after a second, warm-started Fit.
func TestFitMatchesRowwise(t *testing.T) {
	const n = 206
	nets := []struct {
		name     string
		cfg      MLPConfig
		features int
		classes  int
	}{
		{"nn", DefaultMLPConfig(), 21, 3},
		{"dnn", DefaultDNNConfig(), 21, 3},
		{"6-13-13-2", MLPConfig{Hidden: []int{13, 13}, LearningRate: 0.05, Momentum: 0.9, L2: 1e-3, Seed: 4}, 6, 2},
	}
	for ni, net := range nets {
		data := blobs(int64(ni+1), n, net.features, net.classes, 2.0)
		for _, bs := range []int{1, 3, 4, 5, 7, 32} {
			t.Run(fmt.Sprintf("%s/batch%d", net.name, bs), func(t *testing.T) {
				cfg := net.cfg
				cfg.Epochs, cfg.BatchSize, cfg.WarmStart = 2, bs, true
				got, want := NewMLP(cfg), NewMLP(cfg)
				for pass := 1; pass <= 2; pass++ {
					if err := got.Fit(data); err != nil {
						t.Fatal(err)
					}
					if err := fitRowwise(want, data); err != nil {
						t.Fatal(err)
					}
					for l, w := range want.Weights {
						all := func(m *MLP) []float64 { return m.Weights[l].RowSpan(0, w.Rows()) }
						sameBits(t, fmt.Sprintf("pass %d layer %d weights", pass, l), all(got), all(want))
						sameBits(t, fmt.Sprintf("pass %d layer %d biases", pass, l), got.Biases[l], want.Biases[l])
					}
				}
			})
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), rowwise %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAxpyMatchesLoop holds axpy, axpyAVX where the CPU has it, to axpyGo
// bit for bit, NaN payloads included: every length from 0 to 9, so each
// count of entries past the last group of four, and the widths the
// networks train at, with −0, denormals, NaNs and ±Inf among x and y, and
// a multiplier of 0, −0 or NaN as well as ordinary ones. y sits in a
// longer buffer whose tail must come back untouched.
func TestAxpyMatchesLoop(t *testing.T) {
	if !hasAVX {
		t.Log("no AVX on this CPU: axpy is axpyGo")
	}
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	odd := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.NaN(), math.Float64frombits(0xfff8000000000abc),
		math.Inf(1), math.Inf(-1), math.MaxFloat64}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return rng.NormFloat64()
	}
	const guard = 5
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 21, 64, 128, 129} {
		for _, a := range []float64{0, negZero, math.NaN(), 1, -0.37, rng.NormFloat64()} {
			for trial := 0; trial < 4; trial++ {
				x := make([]float64, n+guard)
				y := make([]float64, n+guard)
				for i := range x {
					x[i], y[i] = draw(), draw()
				}
				want := append([]float64(nil), y...)
				axpyGo(want[:n], x, a)
				got := append([]float64(nil), y...)
				axpy(got[:n], x, a)
				sameBits(t, fmt.Sprintf("n %d a %v trial %d: y", n, a, trial), got, want)
				sameBits(t, fmt.Sprintf("n %d a %v trial %d: guard", n, a, trial), got[n:], y[n:])
			}
		}
	}
}

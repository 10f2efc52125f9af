package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestBatchKernelsMatchSerial asserts the batch kernels are bit-identical
// to the per-instance PredictProba path — the serving workers and the
// explainers swap one for the other, so any drift would change answers
// depending on traffic shape. Batch sizes 1–9 cover every remainder of the
// MLP kernel's four-row block.
func TestBatchKernelsMatchSerial(t *testing.T) {
	data := blobs(7, 238, 6, 3, 1.5)
	mlp, dnn := DefaultMLPConfig(), DefaultDNNConfig()
	mlp.Epochs, dnn.Epochs = 5, 5
	models := []Classifier{
		NewForest(ForestConfig{Trees: 20, MaxDepth: 8, MinLeaf: 1, MaxFeatures: -1, Seed: 1}),
		NewGBDT(DefaultLightGBMConfig()),
		NewGBDT(DefaultXGBoostConfig()),
		NewMLP(mlp),
		NewDNN(dnn),
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, data.Len()}
	for _, m := range models {
		if err := m.Fit(data); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
		bp, ok := m.(BatchPredictor)
		if !ok {
			t.Fatalf("%s should implement BatchPredictor", m.Name())
		}
		for _, n := range sizes {
			// Start each batch at a different row so the small
			// batches do not all score the same instances.
			X := data.X
			if n < data.Len() {
				X = data.X[n : 2*n]
			}
			got := bp.PredictProbaBatch(X)
			if len(got) != n {
				t.Fatalf("%s batch rows %d, want %d", m.Name(), len(got), n)
			}
			for i, x := range X {
				want := m.PredictProba(x)
				for c := range want {
					if math.Float64bits(got[i][c]) != math.Float64bits(want[c]) {
						t.Fatalf("%s batch of %d, row %d class %d: batch %v != serial %v",
							m.Name(), n, i, c, got[i][c], want[c])
					}
				}
			}
		}
	}
}

// TestTileKernelsMatchLayerRow holds both forms of the tile kernel to
// layerRow, called directly: kernel4x4AVX (when the CPU has it) on four
// neurons at once and neuronTile on each, for input widths from one to
// the image net's 576, with −0, denormals and, in every other trial, NaN
// and ±Inf among the weights, biases and inputs. Each width is checked on
// a hidden layer at leakySlope, where the kernels take the leaky ReLU as
// they store, and on an output layer at slope 1, where they must return
// the raw sums. A last trial pins every sum to an edge of the activation:
// −0 and NaN, which compare false and are kept, ±Inf, and negative
// denormals, whose scaled value rounds to −0 or stays a denormal.
func TestTileKernelsMatchLayerRow(t *testing.T) {
	if !hasAVX {
		t.Log("no AVX on this CPU: kernel4x4AVX skipped, neuronTile checked alone")
	}
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	tame := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-540, -0x1p-540}
	wild := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	edges := []float64{negZero, 0, -math.SmallestNonzeroFloat64, -0x1p-1070,
		-math.Float64frombits(0x000fffffffffffff), math.NaN(), math.Inf(1), math.Inf(-1),
		-1, -math.MaxFloat64, 0x1p-1074, 1}
	const pinned = 6 // the trial whose sums are the edges
	for _, n := range []int{1, 2, 3, 4, 5, 21, 128, 576} {
		for _, hidden := range []bool{true, false} {
			for trial := 0; trial <= pinned; trial++ {
				// Wild values are rare enough that most sums stay finite.
				draw := func() float64 {
					switch p := rng.Intn(4 * n); {
					case trial%2 == 1 && p == 0:
						return wild[rng.Intn(len(wild))]
					case p < n:
						return tame[rng.Intn(len(tame))]
					}
					return rng.NormFloat64()
				}
				// Layer l reads n features into four neurons: the hidden
				// layer of an n→4→4 net, or the output layer of a 1→n→4 one.
				m, in, l, slope := NewMLP(MLPConfig{Hidden: []int{4}}), n, 0, leakySlope
				if !hidden {
					m, in, l, slope = NewMLP(MLPConfig{Hidden: []int{n}}), 1, 1, 1
				}
				if err := m.Init(in, 4); err != nil {
					t.Fatal(err)
				}
				w, bias := m.Weights[l], m.Biases[l]
				for k := range bias {
					bias[k] = draw()
					for c := range w.Row(k) {
						w.Row(k)[c] = draw()
					}
				}
				tile := make([]float64, 4*n)
				x := make([][]float64, 4) // x[l]: the row on lane l
				for lane := range x {
					x[lane] = make([]float64, n)
					for c := range x[lane] {
						x[lane][c] = draw()
					}
				}
				if trial == pinned {
					// Every weight −0 and every input positive, so every
					// product is −0 and each sum is its bias.
					for k := range bias {
						bias[k] = edges[(k+4*n)%len(edges)]
						for c := range w.Row(k) {
							w.Row(k)[c] = negZero
						}
					}
					for lane := range x {
						for c := range x[lane] {
							x[lane][c] = math.Abs(x[lane][c]) + 1
						}
					}
				}
				want := make([][]float64, 4) // want[l][k]: neuron k on lane l
				for lane := range want {
					for c, v := range x[lane] {
						tile[4*c+lane] = v
					}
					want[lane] = make([]float64, len(bias))
					m.layerRow(l, x[lane], want[lane])
				}
				check := func(form string, k, lane int, got float64) {
					t.Helper()
					// NaN payloads are not part of the contract.
					if wv := want[lane][k]; math.Float64bits(got) != math.Float64bits(wv) && !(math.IsNaN(got) && math.IsNaN(wv)) {
						t.Fatalf("width %d hidden %v trial %d: %s neuron %d lane %d = %v (%#x), layerRow %v (%#x)",
							n, hidden, trial, form, k, lane, got, math.Float64bits(got), wv, math.Float64bits(wv))
					}
				}
				for k := range bias {
					var o [4]float64
					neuronTile(w.Row(k), tile, bias[k], &o, slope)
					for lane, v := range o {
						check("neuronTile", k, lane, v)
					}
				}
				if hasAVX {
					var o [16]float64
					kernel4x4AVX(w.RowSpan(0, 4), tile, (*[4]float64)(bias), &o, slope)
					for i, v := range o {
						check("kernel4x4AVX", i/4, i%4, v)
					}
				}
			}
		}
	}
}

// TestEvaluateMatchesPerRowPredict: ml.Evaluate scores a table through
// PredictProbaAll, so every report in the tree (MLService.train, the
// experiment tables, resilience.Evasion) takes the batch kernels. Every
// algorithm NewByName builds must produce the predictions and metrics the
// one-row Predict loop produces, value for value; lr and dt have no batch
// kernel and hold PredictProbaAll's per-row fallback to the same.
func TestEvaluateMatchesPerRowPredict(t *testing.T) {
	train, eval := blobs(31, 120, 6, 3, 2.5), blobs(32, 150, 6, 3, 2.5)
	// "nn" is NewByName's second spelling of "mlp".
	for _, name := range []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"} {
		m, err := NewByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		if _, batched := m.(BatchPredictor); batched == (name == "lr" || name == "dt") {
			t.Errorf("%s: batch kernel = %v; the test's premise about the fallback moved", name, batched)
		}
		preds := make([]int, eval.Len())
		for i, x := range eval.X {
			preds[i] = Predict(m, x)
		}
		want, err := ScorePredictions(preds, eval.Y, eval.ClassNames)
		if err != nil {
			t.Fatal(err)
		}
		if want.Accuracy == 1 {
			t.Errorf("%s: every row correct; overlap the classes so a moved prediction shows", name)
		}
		for i, p := range PredictBatch(m, eval) {
			if p != preds[i] {
				t.Fatalf("%s row %d: PredictBatch %d, Predict %d", name, i, p, preds[i])
			}
		}
		got, err := Evaluate(m, eval)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accuracy != want.Accuracy || got.Precision != want.Precision || got.Recall != want.Recall ||
			got.F1 != want.F1 || got.N != want.N || len(got.PerClass) != len(want.PerClass) {
			t.Fatalf("%s: Evaluate %+v, per-row %+v", name, got, want)
		}
		for c := range want.PerClass {
			if got.PerClass[c] != want.PerClass[c] {
				t.Errorf("%s class %d: Evaluate %+v, per-row %+v", name, c, got.PerClass[c], want.PerClass[c])
			}
			for o := range want.Confusion[c] {
				if got.Confusion[c][o] != want.Confusion[c][o] {
					t.Errorf("%s confusion[%d][%d]: Evaluate %d, per-row %d", name, c, o, got.Confusion[c][o], want.Confusion[c][o])
				}
			}
		}
	}
}

// TestMLPRejectsWrongWidth: both MLP forms answer a row that is not as
// wide as the input layer with a panic carrying an error (the serving
// runtime maps it to 422), never with a slice-bounds fault or an answer
// computed from the leading weight columns; a ragged batch fails the same
// way wherever the ragged row sits.
func TestMLPRejectsWrongWidth(t *testing.T) {
	data := blobs(7, 60, 3, 2, 1.0)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 2
	m := NewMLP(cfg)
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			err, ok := recover().(error)
			if !ok || !strings.Contains(err.Error(), "want 3") {
				t.Errorf("%s: recovered %v, want an input-width error", name, err)
			}
		}()
		f()
	}
	wide, narrow := []float64{1, 2, 3, 4}, []float64{1, 2}
	mustPanic("serial wide", func() { m.PredictProba(wide) })
	mustPanic("serial narrow", func() { m.PredictProba(narrow) })
	for pos := 0; pos < 6; pos++ {
		for _, bad := range [][]float64{wide, narrow} {
			X := append([][]float64(nil), data.X[:6]...)
			X[pos] = bad
			mustPanic("batch", func() { m.PredictProbaBatch(X) })
		}
	}
	if got := m.InputDim(); got != 3 {
		t.Errorf("InputDim = %d, want 3", got)
	}
}

// TestPredictProbaAllFallback covers the per-instance fallback for models
// without a batch kernel and the shared argmax helper.
func TestPredictProbaAllFallback(t *testing.T) {
	data := blobs(3, 120, 4, 2, 1.0)
	m := NewLogReg(DefaultLogRegConfig())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(m).(BatchPredictor); ok {
		t.Fatal("LogReg unexpectedly implements BatchPredictor; fallback path untested")
	}
	probs := PredictProbaAll(m, data.X[:10])
	classes := ArgmaxAll(probs)
	for i := range classes {
		if want := Predict(m, data.X[i]); classes[i] != want {
			t.Fatalf("row %d: class %d, want %d", i, classes[i], want)
		}
	}
	if PredictProbaAll(m, nil) != nil {
		t.Fatal("empty batch should return nil")
	}
}

// TestKeyOrderMatchesLessEq holds the compiled step to the comparison it
// replaces: for every pair from a set of edge values and their neighbours
// — signed zeros, denormals, ±Inf, NaN of both signs and two payloads —
// a split on threshold t sends row value x right exactly when !(x <= t),
// and a leaf never moves. NaN and ±Inf stand on the threshold side too: a
// fitted model can carry them, though a JSON envelope cannot.
func TestKeyOrderMatchesLessEq(t *testing.T) {
	var vals []float64
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000002),
		math.Float64frombits(0xfff8000000000003), math.Float64frombits(0xfff0000000000004),
	} {
		vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	const left = 6
	for _, thr := range vals {
		split := step{feat: 1, left: left, key: splitKey(thr)}
		for _, x := range vals {
			keys := []uint64{0, rowKey(x)}
			want := left
			if !(x <= thr) {
				want = left + 1
			}
			if got := split.next(keys); got != want {
				t.Errorf("x %v (%#x), threshold %v (%#x): step to %d, want %d",
					x, math.Float64bits(x), thr, math.Float64bits(thr), got, want)
			}
			leaf := step{left: left, key: splitKey(thr)}
			if got := leaf.next(keys); got != left {
				t.Errorf("leaf with payload %#x moved to %d on row value %v", leaf.key, got, x)
			}
		}
	}
}

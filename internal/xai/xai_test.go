package xai

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/ml"
)

// linearProbe is a hand-built "model" with a known linear structure:
// p(class1) = sigmoid(w·x + b). Its exact Shapley values under an
// independent-feature background are w_j·(x_j − E[b_j]), which gives the
// SHAP test a ground truth.
type linearProbe struct {
	w []float64
	b float64
}

func (m *linearProbe) Fit(*dataset.Table) error { return nil }
func (m *linearProbe) NumClasses() int          { return 2 }
func (m *linearProbe) Name() string             { return "probe" }
func (m *linearProbe) PredictProba(x []float64) []float64 {
	s := m.b
	for j, v := range x {
		s += m.w[j] * v
	}
	p := 1 / (1 + math.Exp(-s))
	return []float64{1 - p, p}
}

// rawLinear is linear in probability space (not through a sigmoid), so
// KernelSHAP should recover the attribution exactly.
type rawLinear struct {
	w []float64
}

func (m *rawLinear) Fit(*dataset.Table) error { return nil }
func (m *rawLinear) NumClasses() int          { return 2 }
func (m *rawLinear) Name() string             { return "rawlinear" }
func (m *rawLinear) PredictProba(x []float64) []float64 {
	s := 0.0
	for j, v := range x {
		s += m.w[j] * v
	}
	// Keep within [0,1] for sane "probabilities" in the test domain.
	return []float64{1 - s, s}
}

func TestKernelSHAPExactOnLinearModel(t *testing.T) {
	w := []float64{0.05, -0.08, 0.12, 0.0}
	model := &rawLinear{w: w}
	background := [][]float64{
		{1, 1, 0, 2},
		{0, 2, 1, 0},
		{2, 0, 2, 1},
	}
	x := []float64{3, 1, 2, 1}
	shap := &KernelSHAP{Model: model, Background: background, Samples: 800, Seed: 1}
	phi, err := shap.Explain(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: w_j (x_j - mean_b_j).
	meanB := []float64{1, 1, 1, 1}
	for j := range w {
		want := w[j] * (x[j] - meanB[j])
		if math.Abs(phi[j]-want) > 0.01 {
			t.Fatalf("phi[%d] = %v, want %v", j, phi[j], want)
		}
	}
}

func TestKernelSHAPEfficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := make([]float64, 6)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	model := &linearProbe{w: w, b: 0.2}
	background := make([][]float64, 5)
	for i := range background {
		background[i] = make([]float64, 6)
		for j := range background[i] {
			background[i][j] = rng.NormFloat64()
		}
	}
	x := make([]float64, 6)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	shap := &KernelSHAP{Model: model, Background: background, Samples: 600, Seed: 3}
	phi, err := shap.Explain(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	fx := model.PredictProba(x)[1]
	var f0 float64
	for _, b := range background {
		f0 += model.PredictProba(b)[1]
	}
	f0 /= float64(len(background))
	if math.Abs(mat.Sum(phi)-(fx-f0)) > 1e-9 {
		t.Fatalf("efficiency violated: sum(phi)=%v, fx-f0=%v", mat.Sum(phi), fx-f0)
	}
}

func TestKernelSHAPIgnoresIrrelevantFeature(t *testing.T) {
	model := &rawLinear{w: []float64{0.2, 0, 0.1}}
	background := [][]float64{{0, 5, 0}, {1, -3, 1}}
	shap := &KernelSHAP{Model: model, Background: background, Samples: 500, Seed: 4}
	phi, err := shap.Explain([]float64{2, 10, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[1]) > 0.01 {
		t.Fatalf("dead feature got attribution %v", phi[1])
	}
}

func TestKernelSHAPDeterministic(t *testing.T) {
	model := &rawLinear{w: []float64{0.1, 0.2}}
	bg := [][]float64{{0, 0}}
	a := &KernelSHAP{Model: model, Background: bg, Samples: 100, Seed: 9}
	b := &KernelSHAP{Model: model, Background: bg, Samples: 100, Seed: 9}
	pa, err := a.Explain([]float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Explain([]float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range pa {
		if pa[j] != pb[j] {
			t.Fatal("same seed, different explanations")
		}
	}
}

func TestKernelSHAPValidation(t *testing.T) {
	model := &rawLinear{w: []float64{0.1}}
	if _, err := (&KernelSHAP{Model: model}).Explain([]float64{1}, 1); err == nil {
		t.Fatal("expected error without background")
	}
	s := &KernelSHAP{Model: model, Background: [][]float64{{0, 0}}}
	if _, err := s.Explain([]float64{1}, 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	s2 := &KernelSHAP{Model: model, Background: [][]float64{{0}}}
	if _, err := s2.Explain([]float64{1}, 5); err == nil {
		t.Fatal("expected class range error")
	}
}

func TestKernelSHAPSingleFeature(t *testing.T) {
	model := &rawLinear{w: []float64{0.25}}
	s := &KernelSHAP{Model: model, Background: [][]float64{{0}}, Samples: 10, Seed: 1}
	phi, err := s.Explain([]float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[0]-0.5) > 1e-9 {
		t.Fatalf("single-feature phi = %v, want 0.5", phi[0])
	}
}

func TestTabularLIMERecoversLocalSlope(t *testing.T) {
	model := &rawLinear{w: []float64{0.1, -0.05, 0}}
	lime := &TabularLIME{
		Model:   model,
		Scale:   []float64{1, 1, 1},
		Samples: 2000,
		Seed:    5,
	}
	coef, err := lime.Explain([]float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// In standardized units the slope is w_j * scale_j.
	want := []float64{0.1, -0.05, 0}
	for j := range want {
		if math.Abs(coef[j]-want[j]) > 0.02 {
			t.Fatalf("lime coef %v, want %v", coef, want)
		}
	}
}

func TestTabularLIMESignMatchesModelOnTrainedMLP(t *testing.T) {
	// On a trained model, the top LIME feature should be one of the
	// genuinely informative ones.
	rng := rand.New(rand.NewSource(6))
	tb := dataset.New("sep", []string{"inf", "noise1", "noise2"}, []string{"a", "b"})
	for i := 0; i < 400; i++ {
		y := i % 2
		_ = tb.Append([]float64{float64(y)*2 - 1 + rng.NormFloat64()*0.3, rng.NormFloat64(), rng.NormFloat64()}, y)
	}
	m := ml.NewMLP(ml.MLPConfig{Hidden: []int{8}, LearningRate: 0.1, Momentum: 0.9, Epochs: 30, BatchSize: 16, Seed: 1})
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	lime := &TabularLIME{Model: m, Scale: []float64{0.5, 0.5, 0.5}, Samples: 800, Seed: 7}
	coef, err := lime.Explain([]float64{1, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]) <= math.Abs(coef[1]) || math.Abs(coef[0]) <= math.Abs(coef[2]) {
		t.Fatalf("informative feature not ranked first: %v", coef)
	}
	if coef[0] <= 0 {
		t.Fatalf("informative slope should be positive for class b: %v", coef)
	}
}

func TestTabularLIMEValidation(t *testing.T) {
	model := &rawLinear{w: []float64{0.1}}
	l := &TabularLIME{Model: model, Scale: []float64{1, 2}}
	if _, err := l.Explain([]float64{1}, 1); err == nil {
		t.Fatal("expected scale dim error")
	}
}

func trainShapesModel(t *testing.T) (*ml.MLP, *dataset.Table, int) {
	t.Helper()
	tb, err := datagen.Shapes(datagen.ShapesConfig{Samples: 450, Size: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := ml.NewMLP(ml.MLPConfig{Hidden: []int{32}, LearningRate: 0.05, Momentum: 0.9, Epochs: 30, BatchSize: 32, Seed: 2})
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	return m, tb, 16
}

func TestOcclusionFindsSensitiveRegion(t *testing.T) {
	// Ground-truth model: class probability depends only on the pixels
	// of the top-left 4x4 block of an 8x8 image. Occluding that block
	// must produce the (only) strong sensitivity.
	const size = 8
	w := make([]float64, size*size)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			w[y*size+x] = 0.05
		}
	}
	model := &rawLinear{w: w}
	img := make([]float64, size*size)
	for i := range img {
		img[i] = 1
	}
	occ := &Occlusion{Model: model, W: size, H: size, Window: 4, Stride: 4}
	heat, err := occ.Explain(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := occ.HeatmapSize()
	if cols != 2 || rows != 2 || len(heat) != 4 {
		t.Fatalf("heatmap geometry %dx%d len %d", cols, rows, len(heat))
	}
	if math.Abs(heat[0]-0.8) > 1e-9 { // 16 pixels * 0.05
		t.Fatalf("sensitive block heat %v, want 0.8", heat[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(heat[i]) > 1e-9 {
			t.Fatalf("insensitive block %d heat %v, want 0", i, heat[i])
		}
	}
}

func TestOcclusionOnTrainedModelIsFinite(t *testing.T) {
	m, tb, size := trainShapesModel(t)
	occ := &Occlusion{Model: m, W: size, H: size, Window: 4, Stride: 4}
	heat, err := occ.Explain(tb.X[0], tb.Y[0])
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := occ.HeatmapSize()
	if len(heat) != cols*rows {
		t.Fatalf("heatmap size %d != %d*%d", len(heat), cols, rows)
	}
	var nonzero bool
	for _, v := range heat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite heat value")
		}
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("occlusion map is identically zero on a trained model")
	}
}

func TestOcclusionValidation(t *testing.T) {
	m, _, _ := trainShapesModel(t)
	occ := &Occlusion{Model: m, W: 16, H: 16, Window: 32}
	x := make([]float64, 256)
	if _, err := occ.Explain(x, 0); err == nil {
		t.Fatal("expected window-too-large error")
	}
	occ2 := &Occlusion{Model: m, W: 8, H: 8}
	if _, err := occ2.Explain(x, 0); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestImageLIMESegmentsAndExplain(t *testing.T) {
	m, tb, size := trainShapesModel(t)
	lime := &ImageLIME{Model: m, W: size, H: size, Patch: 4, Samples: 300, Seed: 3}
	if lime.Segments() != 16 {
		t.Fatalf("segments = %d, want 16", lime.Segments())
	}
	weights, err := lime.Explain(tb.X[0], tb.Y[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 16 {
		t.Fatalf("weights len %d", len(weights))
	}
	for _, v := range weights {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite LIME weight")
		}
	}
}

func TestImageLIMEValidation(t *testing.T) {
	m, _, _ := trainShapesModel(t)
	lime := &ImageLIME{Model: m, W: 10, H: 10}
	if _, err := lime.Explain(make([]float64, 256), 0); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestFeatureImportanceOrdering(t *testing.T) {
	explanations := [][]float64{
		{0.1, -0.9, 0.3},
		{-0.2, 0.8, 0.2},
	}
	order, imp := FeatureImportance(explanations)
	if order[0] != 1 {
		t.Fatalf("top feature %d, want 1 (order %v, imp %v)", order[0], order, imp)
	}
	if math.Abs(imp[1]-0.85) > 1e-12 {
		t.Fatalf("importance[1] = %v", imp[1])
	}
	if o, i := FeatureImportance(nil); o != nil || i != nil {
		t.Fatal("empty input should give nil results")
	}
}

func TestDissimilarityRisesWithExplanationNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, d := 30, 5
	instances := make([][]float64, n)
	clean := make([][]float64, n)
	noisy := make([][]float64, n)
	for i := 0; i < n; i++ {
		instances[i] = make([]float64, d)
		for j := range instances[i] {
			instances[i][j] = rng.NormFloat64()
		}
		// Clean explanations: a smooth function of the instance, so
		// neighbours have similar explanations.
		clean[i] = make([]float64, d)
		noisy[i] = make([]float64, d)
		for j := range clean[i] {
			clean[i][j] = instances[i][j] * 0.5
			noisy[i][j] = rng.NormFloat64() * 2
		}
	}
	dc, err := Dissimilarity(instances, clean, 5)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := Dissimilarity(instances, noisy, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dn <= dc {
		t.Fatalf("noisy dissimilarity %v should exceed clean %v", dn, dc)
	}
}

func TestDissimilarityValidation(t *testing.T) {
	if _, err := Dissimilarity([][]float64{{1}}, [][]float64{{1}, {2}}, 1); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Dissimilarity([][]float64{{1}}, [][]float64{{1}}, 1); err == nil {
		t.Fatal("expected too-few-instances error")
	}
	if _, err := Dissimilarity([][]float64{{1}, {2}}, [][]float64{{1}, {2}}, 0); err == nil {
		t.Fatal("expected bad-k error")
	}
}

func TestDissimilarityClampsK(t *testing.T) {
	instances := [][]float64{{0}, {1}, {2}}
	expl := [][]float64{{0}, {0}, {0}}
	v, err := Dissimilarity(instances, expl, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("identical explanations should give 0, got %v", v)
	}
}

// TestExplainersRejectWrongModelWidth: a model that knows its input width
// (nn, lr) and an instance of another width is an error before the first
// row is scored — not a slice-bounds panic (too wide) and not an
// attribution computed from the leading weight columns (too narrow).
func TestExplainersRejectWrongModelWidth(t *testing.T) {
	tab := goldenTable(3, 60, 3, 2, 1)
	for _, name := range []string{"nn", "lr"} {
		m := goldenModel(t, name, tab)
		for _, d := range []int{2, 4} {
			x := make([]float64, d)
			want := fmt.Sprintf("xai: model input dim 3 != instance dim %d", d)
			for ename, e := range map[string]Explainer{
				"KernelSHAP":  &KernelSHAP{Model: m, Background: [][]float64{make([]float64, d)}, Samples: 8},
				"ExactSHAP":   &ExactSHAP{Model: m, Background: [][]float64{make([]float64, d)}},
				"TabularLIME": &TabularLIME{Model: m, Scale: x, Samples: 8},
				"ImageLIME":   &ImageLIME{Model: m, W: d, H: 1, Patch: 1, Samples: 8},
				"Occlusion":   &Occlusion{Model: m, W: d, H: 1, Window: 1},
			} {
				if _, err := e.Explain(x, 1); err == nil || err.Error() != want {
					t.Errorf("%s on %s, %d-wide instance: err = %v, want %q", ename, name, d, err, want)
				}
			}
		}
	}
}

// TestExplainersRejectNarrowTreeInstance: a tree family knows the widest
// feature it splits on, and an instance that stops short of it is the same
// typed error — before the change it was an index panic inside the descent.
// A wider instance is still explained: the trained width is not recorded.
func TestExplainersRejectNarrowTreeInstance(t *testing.T) {
	tab := goldenTable(3, 60, 3, 2, 1)
	for _, name := range []string{"rf", "lgbm"} {
		m := goldenModel(t, name, tab)
		w := m.(interface{ MinInputDim() int }).MinInputDim()
		if w < 2 || w > 3 {
			t.Fatalf("%s reads %d features of a 3-feature table", name, w)
		}
		for _, d := range []int{w - 1, 4} {
			x := make([]float64, d)
			for ename, e := range map[string]Explainer{
				"KernelSHAP":  &KernelSHAP{Model: m, Background: [][]float64{make([]float64, d)}, Samples: 8},
				"ExactSHAP":   &ExactSHAP{Model: m, Background: [][]float64{make([]float64, d)}},
				"TabularLIME": &TabularLIME{Model: m, Scale: []float64{1, 1, 1, 1}[:d], Samples: 8},
				"ImageLIME":   &ImageLIME{Model: m, W: d, H: 1, Patch: 1, Samples: 8},
				"Occlusion":   &Occlusion{Model: m, W: d, H: 1, Window: 1},
			} {
				_, err := e.Explain(x, 1)
				if want := fmt.Sprintf("xai: model reads %d features, instance dim %d", w, d); d < w && (err == nil || err.Error() != want) {
					t.Errorf("%s on %s, %d-wide instance: err = %v, want %q", ename, name, d, err, want)
				} else if d >= w && err != nil {
					t.Errorf("%s on %s, %d-wide instance: %v", ename, name, d, err)
				}
			}
		}
	}
}

// TestBlockRowsAreWholeTiles: every block is a whole number of four-row
// tiles, at least one, and holds no more floats than blockFloats or one
// tile of the row width, whichever is more.
func TestBlockRowsAreWholeTiles(t *testing.T) {
	for d := 1; d <= 4096; d++ {
		per := blockRows(d)
		if per < 4 || per%4 != 0 || per*d > max(blockFloats, 4*d) {
			t.Fatalf("d = %d: %d rows a block (%d floats)", d, per, per*d)
		}
	}
	if got := blockRows(21); got != 388 {
		t.Fatalf("the probe's 21 features: %d rows a block, want 388", got)
	}
}

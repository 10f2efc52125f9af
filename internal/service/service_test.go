package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/wire"
	"repro/internal/xai"
)

func sepTable(n int) *dataset.Table {
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		_ = tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y)
	}
	return tb
}

func TestMLServiceTrainPredictFetch(t *testing.T) {
	srv := httptest.NewServer(NewMLService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	tb := sepTable(200)
	resp, err := c.Train(ctx, TrainRequest{Algorithm: "lr", Train: FromTable(tb), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelID == "" {
		t.Fatal("empty model id")
	}
	if resp.Metrics.Accuracy < 0.95 {
		t.Fatalf("train accuracy %.3f", resp.Metrics.Accuracy)
	}

	pred, err := c.Predict(ctx, PredictRequest{ModelID: resp.ModelID, Instances: [][]float64{{-2, 0}, {2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Classes[0] != 0 || pred.Classes[1] != 1 {
		t.Fatalf("predictions %v", pred.Classes)
	}

	model, err := c.FetchModel(ctx, resp.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Predict(model, []float64{2, 0}) != 1 {
		t.Fatal("fetched model predicts differently")
	}

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Service != "ml-pipeline" || h.Status != "ok" {
		t.Fatalf("health %+v", h)
	}
}

func TestMLServiceErrors(t *testing.T) {
	srv := httptest.NewServer(NewMLService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	if _, err := c.Train(ctx, TrainRequest{Algorithm: "nope", Train: FromTable(sepTable(10))}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
	bad := TrainRequest{Algorithm: "lr", Train: TableJSON{FeatureNames: []string{"f"}, ClassNames: []string{"a"}, X: [][]float64{{1, 2}}, Y: []int{0}}}
	if _, err := c.Train(ctx, bad); err == nil {
		t.Fatal("expected invalid-table error")
	}
	if _, err := c.Predict(ctx, PredictRequest{ModelID: "missing"}); err == nil {
		t.Fatal("expected model-not-found error")
	}
	if _, err := c.FetchModel(ctx, "missing"); err == nil {
		t.Fatal("expected fetch error")
	}
}

func TestSHAPServiceRoundTrip(t *testing.T) {
	tb := sepTable(200)
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewSHAPService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}

	attr, err := c.SHAP(context.Background(), SHAPRequest{
		Model:      blob,
		Instance:   []float64{2, 0},
		Class:      1,
		Background: [][]float64{{-2, 0}, {0, 0}},
		Samples:    200,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != 2 {
		t.Fatalf("attribution len %d", len(attr))
	}
	if attr[0] <= math.Abs(attr[1]) {
		t.Fatalf("informative feature should dominate: %v", attr)
	}
}

func TestSHAPServiceRejectsGarbageModel(t *testing.T) {
	srv := httptest.NewServer(NewSHAPService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err := c.SHAP(context.Background(), SHAPRequest{
		Model:      []byte(`{"kind":"alien","spec":{}}`),
		Instance:   []float64{1},
		Background: [][]float64{{0}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown model kind") {
		t.Fatalf("expected unknown-kind error, got %v", err)
	}
}

func TestLIMEServiceTabularAndImage(t *testing.T) {
	tb := sepTable(200)
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewLIMEService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	attr, err := c.LIMETabular(ctx, LIMETabularRequest{
		Model:    blob,
		Instance: []float64{2, 0},
		Class:    1,
		Scale:    []float64{1, 1},
		Samples:  400,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != 2 || attr[0] <= 0 {
		t.Fatalf("tabular lime attribution %v", attr)
	}

	// Train a tiny image model for the image endpoint.
	size := 8
	imgTable := dataset.New("img", make([]string, size*size), []string{"dark", "bright"})
	for j := range imgTable.FeatureNames {
		imgTable.FeatureNames[j] = "px"
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		y := i % 2
		img := make([]float64, size*size)
		for p := range img {
			img[p] = float64(y) + rng.NormFloat64()*0.2
		}
		_ = imgTable.Append(img, y)
	}
	im := ml.NewMLP(ml.MLPConfig{Hidden: []int{8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 10, BatchSize: 16, Seed: 1})
	if err := im.Fit(imgTable); err != nil {
		t.Fatal(err)
	}
	iblob, err := ml.MarshalModel(im)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := c.LIMEImage(ctx, LIMEImageRequest{
		Model:   iblob,
		Image:   imgTable.X[0],
		Class:   imgTable.Y[0],
		W:       size,
		H:       size,
		Patch:   4,
		Samples: 100,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 4 {
		t.Fatalf("image lime weights %d, want 4 segments", len(weights))
	}
}

func TestOcclusionService(t *testing.T) {
	size := 8
	imgTable := dataset.New("img", make([]string, size*size), []string{"dark", "bright"})
	for j := range imgTable.FeatureNames {
		imgTable.FeatureNames[j] = "px"
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		y := i % 2
		img := make([]float64, size*size)
		for p := range img {
			img[p] = float64(y) + rng.NormFloat64()*0.2
		}
		_ = imgTable.Append(img, y)
	}
	m := ml.NewMLP(ml.MLPConfig{Hidden: []int{8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 10, BatchSize: 16, Seed: 1})
	if err := m.Fit(imgTable); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewOcclusionService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	resp, err := c.Occlusion(context.Background(), OcclusionRequest{
		Model:  blob,
		Image:  imgTable.X[0],
		Class:  imgTable.Y[0],
		W:      size,
		H:      size,
		Window: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cols != 2 || resp.Rows != 2 || len(resp.Heatmap) != 4 {
		t.Fatalf("occlusion geometry %+v", resp)
	}
}

func TestResilienceServicePoisoning(t *testing.T) {
	srv := httptest.NewServer(NewResilienceService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	rep, err := c.PoisonImpact(context.Background(), PoisonImpactRequest{
		Baseline: ml.Metrics{Accuracy: 0.9},
		Poisoned: ml.Metrics{Accuracy: 0.45},
		Rate:     0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Impact-0.5) > 1e-12 {
		t.Fatalf("impact %v", rep.Impact)
	}
	if _, err := c.PoisonImpact(context.Background(), PoisonImpactRequest{Rate: 7}); err == nil {
		t.Fatal("expected rate error")
	}
}

func TestResilienceServiceEvasion(t *testing.T) {
	tb := sepTable(300)
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewResilienceService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	rep, err := c.EvasionImpact(context.Background(), EvasionImpactRequest{
		Model: blob,
		Clean: FromTable(tb),
		Eps:   2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Impact <= 0 {
		t.Fatalf("evasion impact %v should be positive", rep.Impact)
	}
	if rep.ComplexityUnit != "us/sample" {
		t.Fatalf("complexity unit %q", rep.ComplexityUnit)
	}
}

func TestResilienceServiceEvasionNeedsGradientModel(t *testing.T) {
	tb := sepTable(100)
	m := ml.NewTree(ml.DefaultTreeConfig())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewResilienceService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err = c.EvasionImpact(context.Background(), EvasionImpactRequest{Model: blob, Clean: FromTable(tb), Eps: 0.5})
	if err == nil || !strings.Contains(err.Error(), "not differentiable") {
		t.Fatalf("expected differentiability error, got %v", err)
	}
}

func TestResilienceServiceEvasionWithSurrogate(t *testing.T) {
	tb := sepTable(200)
	victim := ml.NewTree(ml.DefaultTreeConfig())
	if err := victim.Fit(tb); err != nil {
		t.Fatal(err)
	}
	surrogate := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := surrogate.Fit(tb); err != nil {
		t.Fatal(err)
	}
	vblob, err := ml.MarshalModel(victim)
	if err != nil {
		t.Fatal(err)
	}
	sblob, err := ml.MarshalModel(surrogate)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewResilienceService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	rep, err := c.EvasionImpact(context.Background(), EvasionImpactRequest{
		Model:     vblob,
		Surrogate: sblob,
		Clean:     FromTable(tb),
		Eps:       2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineAccuracy <= 0 {
		t.Fatalf("baseline accuracy %v", rep.BaselineAccuracy)
	}
}

func TestWaitHealthy(t *testing.T) {
	srv := httptest.NewServer(NewSHAPService())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	if err := c.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	dead := &Client{BaseURL: "http://127.0.0.1:1"}
	if err := dead.WaitHealthy(context.Background(), 200*time.Millisecond); err == nil {
		t.Fatal("expected timeout against dead endpoint")
	}
}

func TestStatsEndpointCountsRequests(t *testing.T) {
	mls := NewMLService()
	srv := httptest.NewServer(mls)
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()
	_, _ = c.Predict(ctx, PredictRequest{ModelID: "nope"}) // 404
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if want := `spatial_http_requests_total{service="ml-pipeline",route="/predict",method="POST",code="4xx"} 1`; !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q:\n%s", want, text)
	}
	if n := strings.Count(text, "\nspatial_http_requests_total{"); n != 1 {
		t.Fatalf("%d request series, want 1:\n%s", n, text)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := sepTable(10)
	wire := FromTable(tb)
	back, err := wire.ToTable()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tb.Len() || back.NumClasses() != tb.NumClasses() {
		t.Fatal("table round trip changed shape")
	}
}

// TestExplainersAnswerNarrowTreeInstanceWith422: an inline tree-family
// model and an instance narrower than the widest feature it splits on is a
// typed 422 from both explainer routes, as it is for lr — not a handler
// panic that the client reads as a transport EOF.
func TestExplainersAnswerNarrowTreeInstanceWith422(t *testing.T) {
	// Only the last of three features separates the classes, so every
	// tree reads feature 2.
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("last", []string{"f0", "f1", "f2"}, []string{"a", "b"})
	for i := 0; i < 120; i++ {
		_ = tb.Append([]float64{rng.NormFloat64(), rng.NormFloat64(), float64(i%2)*4 - 2 + rng.NormFloat64()*0.4}, i%2)
	}
	shap, lime := httptest.NewServer(NewSHAPService()), httptest.NewServer(NewLIMEService())
	defer shap.Close()
	defer lime.Close()
	ctx := context.Background()
	for _, name := range []string{"dt", "rf", "lgbm", "xgb"} {
		m, err := ml.NewByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(tb); err != nil {
			t.Fatal(err)
		}
		blob, err := ml.MarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		_, shapErr := (&Client{BaseURL: shap.URL}).SHAP(ctx, SHAPRequest{Model: blob, Instance: []float64{0, 0}, Class: 1, Background: [][]float64{{0, 0}}, Samples: 8})
		_, limeErr := (&Client{BaseURL: lime.URL}).LIMETabular(ctx, LIMETabularRequest{Model: blob, Instance: []float64{0, 0}, Class: 1, Scale: []float64{1, 1}, Samples: 8})
		for route, err := range map[string]error{"shap": shapErr, "lime": limeErr} {
			var status *wire.StatusError
			if !errors.As(err, &status) || status.Status != http.StatusUnprocessableEntity ||
				status.Message != "xai: model reads 3 features, instance dim 2" {
				t.Errorf("%s %s: err = %v, want a 422 naming the width", name, route, err)
			}
		}
	}
}

// TestExplainersAnswerHugeSampleBudgetWith422: a sample budget above
// xai.MaxSamples is a 422 naming the limit from all three sampling
// explainer routes. Without the bound, 1<<62 panics in makeslice inside
// the handler, which the client reads as a transport EOF.
func TestExplainersAnswerHugeSampleBudgetWith422(t *testing.T) {
	m := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := m.Fit(sepTable(40)); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	shap, lime := httptest.NewServer(NewSHAPService()), httptest.NewServer(NewLIMEService())
	defer shap.Close()
	defer lime.Close()
	ctx := context.Background()
	for _, n := range []int{xai.MaxSamples + 1, 1 << 62} {
		_, shapErr := (&Client{BaseURL: shap.URL}).SHAP(ctx, SHAPRequest{Model: blob, Instance: []float64{2, 0}, Class: 1, Background: [][]float64{{0, 0}}, Samples: n})
		_, tabErr := (&Client{BaseURL: lime.URL}).LIMETabular(ctx, LIMETabularRequest{Model: blob, Instance: []float64{2, 0}, Class: 1, Scale: []float64{1, 1}, Samples: n})
		_, imgErr := (&Client{BaseURL: lime.URL}).LIMEImage(ctx, LIMEImageRequest{Model: blob, Image: []float64{2, 0}, Class: 1, W: 2, H: 1, Patch: 1, Samples: n})
		want := fmt.Sprintf("xai: %d samples exceeds the limit of %d", n, xai.MaxSamples)
		for route, err := range map[string]error{"shap": shapErr, "lime tabular": tabErr, "lime image": imgErr} {
			var status *wire.StatusError
			if !errors.As(err, &status) || status.Status != http.StatusUnprocessableEntity || status.Message != want {
				t.Errorf("%s, %d samples: err = %v, want a 422 %q", route, n, err, want)
			}
		}
	}
}

// TestTrustRoutesAnswerMismatchedTableWith422: a table narrower or wider
// than the inline network's input, or carrying a label the model has no
// class for, is a 422 of kind "mismatch" from the evasion and membership
// routes — before the check it was a panic in (*MLP).InputGradient /
// forward that nothing recovered, which the client read as a transport EOF.
func TestTrustRoutesAnswerMismatchedTableWith422(t *testing.T) {
	table := func(d, classes int) TableJSON {
		rng := rand.New(rand.NewSource(1))
		names := []string{"f0", "f1", "f2", "f3"}[:d]
		tb := dataset.New("t", names, []string{"a", "b", "c"}[:classes])
		for i := 0; i < 60; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64()*0.4 + float64(i%classes)*2
			}
			_ = tb.Append(row, i%classes)
		}
		return FromTable(tb)
	}
	good := table(3, 2)
	fit, err := good.ToTable()
	if err != nil {
		t.Fatal(err)
	}
	nn := ml.NewMLP(ml.MLPConfig{Hidden: []int{4}, LearningRate: 0.05, Momentum: 0.9, Epochs: 5, BatchSize: 16, Seed: 1})
	if err := nn.Fit(fit); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(nn)
	if err != nil {
		t.Fatal(err)
	}
	res, priv := httptest.NewServer(NewResilienceService()), httptest.NewServer(NewPrivacyService())
	defer res.Close()
	defer priv.Close()
	ctx := context.Background()
	for name, bad := range map[string]TableJSON{"narrow": table(1, 2), "wide": table(4, 2), "third class": table(3, 3)} {
		_, evasionErr := (&Client{BaseURL: res.URL}).EvasionImpact(ctx, EvasionImpactRequest{Model: blob, Clean: bad, Eps: 0.5})
		_, membersErr := (&Client{BaseURL: priv.URL}).Membership(ctx, MembershipRequest{Model: blob, Members: bad, NonMembers: good})
		_, othersErr := (&Client{BaseURL: priv.URL}).Membership(ctx, MembershipRequest{Model: blob, Members: good, NonMembers: bad})
		for route, err := range map[string]error{"evasion": evasionErr, "members": membersErr, "nonMembers": othersErr} {
			var status *wire.StatusError
			if !errors.As(err, &status) || status.Status != http.StatusUnprocessableEntity || status.Kind != "mismatch" {
				t.Errorf("%s table on %s: err = %v, want a 422 of kind mismatch", name, route, err)
			}
		}
	}
	if _, err := (&Client{BaseURL: res.URL}).EvasionImpact(ctx, EvasionImpactRequest{Model: blob, Clean: good, Eps: 0.5}); err != nil {
		t.Errorf("well-formed evasion request: %v", err)
	}
	if _, err := (&Client{BaseURL: priv.URL}).Membership(ctx, MembershipRequest{Model: blob, Members: good, NonMembers: good}); err != nil {
		t.Errorf("well-formed membership request: %v", err)
	}
}

// TestNonFiniteAnswersAre422: an untrained 3-feature network scores the
// finite instance [1e308, 1e308, -1e308] as NaN. The predict route
// cannot encode that and the explainers' regressions cannot fit it; each
// answers a 422 envelope saying so. Before, each wrote 200 and then
// failed to encode the body, so the client read 200 with nothing in it.
func TestNonFiniteAnswersAre422(t *testing.T) {
	m := ml.NewMLP(ml.DefaultMLPConfig())
	if err := m.Init(3, 2); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	mlSvc := NewMLService()
	defer mlSvc.Close()
	if _, err := mlSvc.StoreModel("nn", m, ml.Metrics{}); err != nil {
		t.Fatal(err)
	}
	x := []float64{1e308, 1e308, -1e308}
	for _, tc := range []struct {
		route string
		h     http.Handler
		path  string
		body  any
		want  string
	}{
		{"ml/predict", mlSvc, "/predict", PredictRequest{ModelID: "nn", Instances: [][]float64{x}},
			"wire: encode response: json: unsupported value: NaN"},
		{"shap/explain", NewSHAPService(), "/explain", SHAPRequest{Model: blob, Instance: x, Class: 1, Background: [][]float64{{0, 0, 0}}, Samples: 16, Seed: 1},
			"kernelshap solve: mat: RidgeWLS normal equations are not finite"},
		{"lime/explain/tabular", NewLIMEService(), "/explain/tabular", LIMETabularRequest{Model: blob, Instance: x, Class: 1, Scale: []float64{1, 1, 1}, Samples: 16, Seed: 1},
			"lime solve: mat: RidgeWLS normal equations are not finite"},
	} {
		t.Run(tc.route, func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			var env wire.Envelope
			if rec.Code != http.StatusUnprocessableEntity || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error != tc.want {
				t.Errorf("%d %q, want 422 {\"error\":%q}", rec.Code, rec.Body, tc.want)
			}
		})
	}
}

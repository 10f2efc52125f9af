package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/wire"
	"repro/internal/xai"
)

// cacheTable is a four-feature table: wide enough for a 2×2 image, so one
// model serves the SHAP, LIME and occlusion endpoints.
func cacheTable() *dataset.Table {
	tb := dataset.New("cache", []string{"a", "b", "c", "d"}, []string{"lo", "hi"})
	for i := 0; i < 80; i++ {
		y := i % 2
		f := float64(i%7) / 7
		_ = tb.Append([]float64{float64(y) + f, f, 1 - f, float64(y) - f}, y)
	}
	return tb
}

func cacheEnvelope(t testing.TB, algorithm string) json.RawMessage {
	t.Helper()
	var m ml.Classifier
	switch algorithm {
	case "nn":
		m = ml.NewMLP(ml.MLPConfig{Hidden: []int{8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 5, BatchSize: 16, Seed: 1})
	case "rf":
		m = ml.NewForest(ml.ForestConfig{Trees: 8, MaxDepth: 4, MinLeaf: 1, MaxFeatures: -1, Seed: 1})
	}
	if err := m.Fit(cacheTable()); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestModelCacheConcurrentRequests fires 16 concurrent SHAP, LIME and
// occlusion requests carrying two different envelopes and holds every
// answer to the one computed from a model decoded for that purpose alone:
// the cache never hands one envelope's model to the other, and a shared
// model scores correctly under concurrent use. Run under -race.
func TestModelCacheConcurrentRequests(t *testing.T) {
	shap, lime, occ := NewSHAPService(), NewLIMEService(), NewOcclusionService()
	x := []float64{0.9, 0.2, 0.7, 0.1}
	background := [][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}}
	scale := []float64{1, 1, 1, 1}

	type call struct {
		name string
		do   func(ctx context.Context) ([]float64, error)
		want []float64
	}
	var calls []call
	for _, algorithm := range []string{"nn", "rf"} {
		blob := cacheEnvelope(t, algorithm)
		fresh, err := ml.UnmarshalModel(blob)
		if err != nil {
			t.Fatal(err)
		}
		wantSHAP, err := (&xai.KernelSHAP{Model: fresh, Background: background, Samples: 64, Seed: 3}).Explain(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantLIME, err := (&xai.TabularLIME{Model: fresh, Scale: scale, Samples: 64, Seed: 3}).Explain(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantOcc, err := (&xai.Occlusion{Model: fresh, W: 2, H: 2, Window: 1}).Explain(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls,
			call{algorithm + "/shap", func(ctx context.Context) ([]float64, error) {
				var resp ExplainResponse
				err := serveJSON(ctx, shap, "/explain", SHAPRequest{Model: blob, Instance: x, Class: 1, Background: background, Samples: 64, Seed: 3}, &resp)
				return resp.Attribution, err
			}, wantSHAP},
			call{algorithm + "/lime", func(ctx context.Context) ([]float64, error) {
				var resp ExplainResponse
				err := serveJSON(ctx, lime, "/explain/tabular", LIMETabularRequest{Model: blob, Instance: x, Class: 1, Scale: scale, Samples: 64, Seed: 3}, &resp)
				return resp.Attribution, err
			}, wantLIME},
			call{algorithm + "/occlusion", func(ctx context.Context) ([]float64, error) {
				var resp OcclusionResponse
				err := serveJSON(ctx, occ, "/explain", OcclusionRequest{Model: blob, Image: x, Class: 1, W: 2, H: 2, Window: 1}, &resp)
				return resp.Heatmap, err
			}, wantOcc},
		)
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		c := calls[i%len(calls)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.do(context.Background())
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			if !sameBits(got, c.want) {
				t.Errorf("%s: got %v, uncached decode gives %v", c.name, got, c.want)
			}
		}()
	}
	wg.Wait()

	for _, svc := range []*base{shap.base, lime.base, occ.base} {
		if n := len(svc.models.byKey); n != 2 {
			t.Errorf("%s caches %d models after two envelopes", svc.name, n)
		}
	}
}

// serveJSON posts body to a service in process and decodes a 200 answer
// into out.
func serveJSON(ctx context.Context, h http.Handler, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)).WithContext(ctx))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// TestModelCacheStaysWithinBudget pushes more envelope bytes through one
// service than the cache may hold: resident bytes stay under the budget,
// the books balance, the oldest envelope is evicted — and still answers
// exactly as it did while resident.
func TestModelCacheStaysWithinBudget(t *testing.T) {
	svc := NewSHAPService()
	blob := cacheEnvelope(t, "nn")
	// JSON allows trailing whitespace, so padding makes envelopes of any
	// size that are distinct to the cache and identical once decoded.
	const padded = 1 << 20
	envelope := func(i int) json.RawMessage {
		pad := padded - len(blob) + i
		return append(append(json.RawMessage(nil), blob...), bytes.Repeat([]byte{' '}, pad)...)
	}
	req := SHAPRequest{Model: envelope(0), Instance: []float64{0.9, 0.2, 0.7, 0.1}, Class: 1,
		Background: [][]float64{{0, 0, 0, 0}}, Samples: 32, Seed: 1}
	var first ExplainResponse
	if err := serveJSON(context.Background(), svc, "/explain", req, &first); err != nil {
		t.Fatal(err)
	}

	const envelopes = modelCacheBytes/padded + 4
	for i := 1; i < envelopes; i++ {
		if _, err := svc.decodeModel(envelope(i)); err != nil {
			t.Fatal(err)
		}
		c := svc.models
		if c.bytes > modelCacheBytes {
			t.Fatalf("after %d envelopes the cache holds %d bytes, budget %d", i+1, c.bytes, modelCacheBytes)
		}
	}
	c := svc.models
	var sum int
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += len(el.Value.(*cachedModel).envelope)
	}
	if sum != c.bytes || len(c.byKey) != c.lru.Len() {
		t.Fatalf("books do not balance: %d bytes counted, %d listed; %d keys, %d entries", c.bytes, sum, len(c.byKey), c.lru.Len())
	}
	if c.lru.Len() >= envelopes {
		t.Fatalf("nothing was evicted: %d entries", c.lru.Len())
	}

	misses := c.miss.Value()
	var again ExplainResponse
	if err := serveJSON(context.Background(), svc, "/explain", req, &again); err != nil {
		t.Fatal(err)
	}
	if c.miss.Value() != misses+1 {
		t.Fatal("the first envelope should have been evicted and decoded again")
	}
	if !sameBits(first.Attribution, again.Attribution) {
		t.Fatalf("evicted model answers %v, resident model answered %v", again.Attribution, first.Attribution)
	}
}

// TestModelCacheKeepsNoFailures: an undecodable envelope sent twice is
// answered 400 twice, identically, and leaves nothing behind.
func TestModelCacheKeepsNoFailures(t *testing.T) {
	svc := NewLIMEService()
	body, err := json.Marshal(LIMETabularRequest{Model: json.RawMessage(`{"kind":"alien","spec":{}}`),
		Instance: []float64{1}, Scale: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	var answers []string
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/explain/tabular", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
		}
		answers = append(answers, rec.Body.String())
	}
	if answers[0] != answers[1] || !strings.Contains(answers[0], "unknown model kind") {
		t.Fatalf("answers differ or are untyped: %q then %q", answers[0], answers[1])
	}
	c := svc.models
	if len(c.byKey) != 0 || c.lru.Len() != 0 || c.bytes != 0 {
		t.Fatalf("a failed decode left %d keys, %d entries, %d bytes", len(c.byKey), c.lru.Len(), c.bytes)
	}
	if _, err := svc.decodeModel(nil); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("missing envelope: %v", err)
	}
}

// TestModelCacheCountsOnMetrics: /metrics says whether an explain call
// paid for a decode.
func TestModelCacheCountsOnMetrics(t *testing.T) {
	svc := NewSHAPService()
	req := SHAPRequest{Model: cacheEnvelope(t, "rf"), Instance: []float64{0.9, 0.2, 0.7, 0.1}, Class: 1,
		Background: [][]float64{{0, 0, 0, 0}}, Samples: 16, Seed: 1}
	for i := 0; i < 3; i++ {
		var resp ExplainResponse
		if err := serveJSON(context.Background(), svc, "/explain", req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spatial_service_model_decode_total{result="hit"} 2`,
		`spatial_service_model_decode_total{result="miss"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

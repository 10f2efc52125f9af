package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/serving"
)

// TestScenarioServingShedsUnderOverload reproduces the capacity
// experiment's saturation shape end to end: a thread group hammers a
// prediction endpoint backed by the serving runtime with a deliberately
// tiny admission watermark, and the summary report separates shed load
// (429 + Retry-After, counted by Summary.Shed) from served requests
// instead of letting overload surface as timeouts.
func TestScenarioServingShedsUnderOverload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < 120; i++ {
		y := i % 2
		_ = tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y)
	}
	// A deliberately wide network — a row costs its one worker a few
	// tenths of a millisecond — plus a 2-instance watermark means most of
	// the concurrent samples find the line full and are shed.
	cfg := ml.DefaultMLPConfig()
	cfg.Hidden, cfg.Epochs = []int{512, 512}, 1
	model := ml.NewMLP(cfg)
	if err := model.Fit(tb); err != nil {
		t.Fatal(err)
	}

	rt := serving.New(serving.Config{
		MaxBatch:      4,
		Workers:       1,
		QueueDepth:    8,
		ShedWatermark: 2,
	})
	defer rt.Close()
	ref, err := rt.Registry().Register("sep", model)
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Instances [][]float64 `json:"instances"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, classes, err := rt.Predict(r.Context(), ref.Name, req.Instances)
		if err != nil {
			var over *serving.OverloadedError
			if errors.As(err, &over) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(classes)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sampler := &HTTPSampler{
		Method: http.MethodPost,
		URL:    srv.URL + "/predict",
		Body:   []byte(`{"instances":[[2,0]]}`),
	}
	res, err := Run(context.Background(), ThreadGroup{Threads: 8, Iterations: 4}, sampler)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summarize()
	if sum.Count != 32 {
		t.Fatalf("samples %d, want 32", sum.Count)
	}
	if sum.Shed == 0 {
		t.Fatal("overloaded runtime should shed some samples with 429")
	}
	if sum.Errors != sum.Shed {
		t.Fatalf("errors %d != shed %d: overload should surface only as 429s", sum.Errors, sum.Shed)
	}
	if sum.Count == sum.Shed {
		t.Fatal("admission control shed everything; some requests must be served")
	}
}

package repro

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/serving"
)

// firstRefusal overloads a tier the only way a caller can: it keeps eight
// callers predicting at once until the tier refuses one of them, and
// returns that error.
func firstRefusal(t *testing.T, predict func() error) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	refused := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < cap(refused); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := predict(); err != nil {
					refused <- err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-refused:
		return err
	default:
		t.Fatal("eight concurrent callers were all served for 30 s")
		return nil
	}
}

// TestTypedErrorsSurviveTheWire is the round-trip half of the HTTP
// contract: each typed error a handler writes comes back from
// service.Client — through the one wire.Do — satisfying the same
// errors.Is / errors.As it satisfied on the server, whichever tier wrote
// it. (The replica hop's half is internal/cluster's HTTPBackend tests.)
func TestTypedErrorsSurviveTheWire(t *testing.T) {
	ctx := context.Background()
	two := [][]float64{{2, 0}, {-2, 0}}

	mlSvc := service.NewMLService()
	defer mlSvc.Close()
	model, _ := contractModel(t, 1, 2)
	if _, err := mlSvc.StoreModel("lr", model, ml.Metrics{}); err != nil {
		t.Fatal(err)
	}
	mlSrv := httptest.NewServer(mlSvc)
	defer mlSrv.Close()
	mlc := &service.Client{BaseURL: mlSrv.URL, HTTP: mlSrv.Client()}

	healthy := newContractTier(t, 2, serving.Config{MaxBatch: 1})
	narrow := newContractTier(t, 1, serving.Config{MaxBatch: 1, QueueDepth: 4, ShedWatermark: 1, RetryAfter: 1500 * time.Millisecond})
	dead := newContractTier(t, 1, serving.Config{MaxBatch: 1})
	dead.reps[0].Kill()
	empty := cluster.New(cluster.Config{Clock: clock.NewFake(time.Unix(0, 0))})
	front := func(c *cluster.Cluster) *service.Client {
		srv := httptest.NewServer(c.Handler())
		t.Cleanup(srv.Close)
		return &service.Client{BaseURL: srv.URL, HTTP: srv.Client()}
	}

	// 768 rows is the most one request may carry under the ML service's
	// default watermark: alone it is admitted, beside another it is shed.
	manyRows := make([][]float64, 769)
	for i := range manyRows {
		manyRows[i] = []float64{2, 0}
	}
	narrowFront := front(narrow.c)
	predict := func(c *service.Client, ref string, rows [][]float64) error {
		_, err := c.Predict(ctx, service.PredictRequest{ModelID: ref, Instances: rows})
		return err
	}
	notFound := []struct {
		name string
		err  error
	}{
		{"ml predict", predict(mlc, "nope", two)},
		{"ml promote", func() error { _, err := mlc.Promote(ctx, service.PromoteRequest{Name: "nope", Version: 1}); return err }()},
		{"ml promote unknown version", func() error { _, err := mlc.Promote(ctx, service.PromoteRequest{Name: "lr", Version: 9}); return err }()},
		{"ml rollback", func() error { _, err := mlc.Rollback(ctx, "nope"); return err }()},
		{"ml fetch model", func() error { _, err := mlc.FetchModel(ctx, "nope"); return err }()},
		{"cluster predict", predict(front(healthy.c), "nope", two)},
	}
	for _, tc := range notFound {
		if !errors.Is(tc.err, serving.ErrNotFound) {
			t.Errorf("%s: %v, want serving.ErrNotFound", tc.name, tc.err)
		}
	}

	sheds := []struct {
		name  string
		err   error
		after time.Duration
	}{
		{"ml predict", firstRefusal(t, func() error { return predict(mlc, "lr", manyRows[:768]) }), 250 * time.Millisecond},
		{"cluster predict", firstRefusal(t, func() error { return predict(narrowFront, "demo", two[:1]) }), 1500 * time.Millisecond},
	}
	for _, tc := range sheds {
		var over *serving.OverloadedError
		if !errors.As(tc.err, &over) {
			t.Errorf("%s: %v, want *serving.OverloadedError", tc.name, tc.err)
		} else if over.RetryAfter != tc.after {
			t.Errorf("%s: retry hint %v, want the exact %v", tc.name, over.RetryAfter, tc.after)
		}
	}

	// A request no idle line could admit is not a shed: a final 413 that
	// names the limit, typed on both tiers.
	for name, err := range map[string]error{
		"ml predict":      predict(mlc, "lr", manyRows),
		"cluster predict": predict(narrowFront, "demo", two),
	} {
		var over *serving.OverloadedError
		if !errors.Is(err, serving.ErrTooManyInstances) || errors.As(err, &over) {
			t.Errorf("%s: %v, want serving.ErrTooManyInstances and no shed", name, err)
		}
	}

	for name, err := range map[string]error{
		"empty tier":        predict(front(empty), "demo", two),
		"whole tier killed": predict(front(dead.c), "demo", two),
	} {
		if !errors.Is(err, cluster.ErrNoReplicas) || errors.Is(err, cluster.ErrReplicaDown) {
			t.Errorf("%s: %v, want cluster.ErrNoReplicas", name, err)
		}
	}

	// An untyped refusal stays untyped: a status, not a sentinel.
	_, err := mlc.Rollback(ctx, "lr")
	if err == nil || errors.Is(err, serving.ErrNotFound) {
		t.Errorf("rollback with no history: %v, want a plain 409", err)
	}
}

package core

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/service"
)

func TestStoreModelRejectsNil(t *testing.T) {
	sys := NewSystem(Options{})
	if _, err := sys.ML.StoreModel("lr", nil, ml.Metrics{}); err == nil {
		t.Fatal("expected nil-model error")
	}
}

// TestShutdownDoesNotWaitOnPooledConnections: under concurrent callers
// the gateway's transport now and then dials an upstream connection it
// never sends on, and http.Server.Shutdown sits such a connection out for
// five seconds. The gateway owns its pool and Shutdown stops it before
// the servers, so a loaded system stops at once — without anyone reaching
// into http.DefaultTransport.
func TestShutdownDoesNotWaitOnPooledConnections(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem(Options{})
	model := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := model.Fit(sepTable(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ML.StoreModel("lr", model, ml.Metrics{}); err != nil {
		t.Fatal(err)
	}
	defer sys.ML.Close()
	if _, _, err := sys.DeployLocal(ctx); err != nil {
		t.Fatal(err)
	}

	// The callers bring their own pool, as external clients do.
	pool := &http.Transport{}
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sys.ServiceClient("/ml", "")
			c.HTTP = &http.Client{Transport: pool, Timeout: 5 * time.Second}
			for time.Now().Before(deadline) {
				if _, err := c.Predict(ctx, service.PredictRequest{ModelID: "lr", Instances: [][]float64{{2, 0}}}); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	pool.CloseIdleConnections()
	if served.Load() == 0 {
		t.Fatal("no request was served")
	}

	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := sys.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Shutdown took %v after %d requests, want < 1s", d, served.Load())
	}
}

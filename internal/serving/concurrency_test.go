package serving

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/telemetry"
)

// TestRuntimeConcurrentUse hammers every registry and runtime surface at
// once — predicts, version registrations, promotes/rollbacks, alias
// listings, and LRU churn from a tiny warm budget — and asserts the
// runtime settles clean. Run under -race this is the subsystem's
// data-race certificate.
func TestRuntimeConcurrentUse(t *testing.T) {
	tel := telemetry.NewRegistry()
	rt := New(Config{
		MaxBatch:  8,
		Workers:   2,
		Telemetry: tel,
	})
	defer rt.Close()
	rt.reg = newRegistry(1, rt.met) // every cold load evicts: maximum cache churn
	reg := rt.Registry()

	// Pre-marshal distinct model generations on the test goroutine
	// (trainedLogReg may t.Fatal, which is main-goroutine-only).
	blobs := make([][]byte, 4)
	for i := range blobs {
		raw, err := ml.MarshalModel(trainedLogReg(t, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = raw
	}
	if _, err := reg.RegisterBytes("fall", "lr", blobs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("gait", trainedLogReg(t, 9)); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				name := "fall"
				if (g+i)%2 == 0 {
					name = "gait"
				}
				_, _, err := rt.Predict(ctx, name, [][]float64{{2, 0}, {-2, 0}})
				var oe *OverloadedError
				if err != nil && !errors.As(err, &oe) && !errors.Is(err, ErrNotFound) {
					t.Errorf("predict %s: %v", name, err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // registrar: new versions of fall
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := reg.RegisterBytes("fall", "lr", blobs[i%len(blobs)]); err != nil {
				t.Errorf("register: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() { // operator: promote/rollback/inspect
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Version 2 races the registrar goroutine; tolerate not-yet.
			if err := reg.Promote("fall", 1+i%2); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("promote: %v", err)
			}
			if i%4 == 3 {
				// May legitimately find an empty history.
				_, _ = reg.Rollback("fall")
			}
			reg.Aliases()
			reg.WarmBytes()
			rt.InFlight()
		}
	}()
	wg.Wait()

	for rt.InFlight() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if metricValue(t, tel, "spatial_serving_queue_depth") != 0 {
		t.Fatal("queue depth gauge nonzero after settle")
	}
	if got := reg.Len(); got != len(blobs)+1 {
		t.Fatalf("registry holds %d entries, want %d (content dedup across registrars)", got, len(blobs)+1)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") == 0 {
		t.Fatal("no predictions recorded")
	}
}

// TestCloseDrains attacks shutdown: Close with instances still queued
// behind a busy worker and a batch inside execute, then Close with
// Predicts still arriving. Every call returns exactly one of a full result
// or ErrClosed — never a partly filled probs — Close returns, no row stays
// reserved, and no goroutine of the runtime outlives it. (A stopping worker holds no
// partly formed batch to strand: it is either blocked on the queue or
// scoring a batch it will finish delivering.)
func TestCloseDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	const rows = 5 // over MaxBatch, so one call spans several batches
	x := make([][]float64, rows)
	for i := range x {
		x[i] = []float64{2, 0}
	}
	type result struct {
		probs   [][]float64
		classes []int
		err     error
	}
	check := func(r result) {
		t.Helper()
		switch {
		case r.err == nil:
			if len(r.probs) != rows || len(r.classes) != rows || slices.ContainsFunc(r.probs, func(p []float64) bool { return p == nil }) {
				t.Errorf("served call returned a partial result: %v %v", r.probs, r.classes)
			}
		case !errors.Is(r.err, ErrClosed):
			t.Errorf("call failed with %v, want ErrClosed", r.err)
		case r.probs != nil || r.classes != nil:
			t.Errorf("closed call still returned data: %v %v", r.probs, r.classes)
		}
	}

	// Queued and executing: the first call's first batch is held inside
	// the classifier, its remaining rows and a whole second call wait in
	// the queue.
	rt := New(Config{MaxBatch: 2, Workers: 1})
	ref, err := rt.Registry().Register("fall", trainedLogReg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	g := gate(rt, ref)
	results := make(chan result, 2)
	predict := func() {
		probs, classes, err := rt.Predict(context.Background(), ref.Name, x)
		results <- result{probs, classes, err}
	}
	go predict()
	held := len(<-g.entered) // one or two rows: the caller may still be enqueuing
	go predict()
	for queued(rt, ref) != 2*rows-held {
		time.Sleep(50 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	for i := 0; i < 2; i++ {
		r := <-results // released by the stop, while the worker is still held
		if r.err == nil {
			t.Error("a call whose rows were still queued at Close was served")
		}
		check(r)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a worker still inside execute")
	default:
	}
	g.open()
	<-closed
	if n := rt.InFlight(); n != 0 {
		t.Errorf("%d rows still reserved after Close and both calls returned", n)
	}

	// Still arriving: callers hammer the line until Close turns them away.
	rt = New(Config{MaxBatch: 2, Workers: 2})
	if _, err := rt.Registry().Register("fall", trainedLogReg(t, 1)); err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				probs, classes, err := rt.Predict(context.Background(), "fall", x)
				check(result{probs, classes, err})
				if err != nil {
					return
				}
				served.Add(1)
			}
		}()
	}
	for served.Load() < 50 {
		time.Sleep(50 * time.Microsecond)
	}
	rt.Close()
	wg.Wait()
	if n := rt.InFlight(); n != 0 {
		t.Errorf("%d rows still reserved after Close with callers enqueueing across it", n)
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after both runtimes closed", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

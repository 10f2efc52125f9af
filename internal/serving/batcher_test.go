package serving

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

func newTestRuntime(t *testing.T, cfg Config) (*Runtime, *clock.Fake, *telemetry.Registry, Ref) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1700000000, 0))
	tel := telemetry.NewRegistry()
	cfg.Clock = fake
	cfg.Telemetry = tel
	rt := New(cfg)
	t.Cleanup(rt.Close)
	ref, err := rt.Registry().Register("fall", trainedLogReg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	return rt, fake, tel, ref
}

// histSeries fetches the single series of a histogram family.
func histSeries(t *testing.T, tel *telemetry.Registry, name string) telemetry.Series {
	t.Helper()
	for _, fam := range tel.Gather() {
		if fam.Name == name {
			if len(fam.Series) != 1 {
				t.Fatalf("metric %s has %d series", name, len(fam.Series))
			}
			return fam.Series[0]
		}
	}
	t.Fatalf("metric %s not found", name)
	return telemetry.Series{}
}

// gated stands in for a line's model so a test decides when a batch may
// score: each batch announces its rows on entered, then waits for a token
// on release. It is the only way to hold a worker busy without a timer.
type gated struct {
	ml.Classifier
	entered chan [][]float64
	release chan struct{}
}

func (g *gated) PredictProbaBatch(X [][]float64) [][]float64 {
	select {
	case g.entered <- slices.Clone(X): // X is the worker's scratch
		<-g.release
	case <-g.release: // opened for good
	}
	return ml.PredictProbaAll(g.Classifier, X)
}

// open lets every later batch through unannounced.
func (g *gated) open() { close(g.release) }

// gate swaps ref's warm model for a gated wrapper of it.
func gate(rt *Runtime, ref Ref) *gated {
	reg := rt.Registry()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[ref.ID]
	g := &gated{Classifier: e.model, entered: make(chan [][]float64), release: make(chan struct{})}
	e.model = g
	return g
}

// queued reports how many instances sit in ref's queue, taken by no
// worker yet.
func queued(rt *Runtime, ref Ref) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ln, ok := rt.lines[ref.ID]; ok {
		return len(ln.in)
	}
	return 0
}

// queueBehindHeldWorker drives a one-worker line into the busy regime:
// one instance (x[0] = 0) is held inside the gated classifier, then n
// single-instance callers are queued one at a time, so queue order is
// call order and instance i carries x[0] = i. Every caller's error
// arrives on the returned channel.
func queueBehindHeldWorker(t *testing.T, rt *Runtime, ref Ref, g *gated, n int) chan error {
	t.Helper()
	results := make(chan error, 1+n)
	for i := 0; i <= n; i++ {
		go func() {
			_, _, err := rt.Predict(context.Background(), ref.Name, [][]float64{{float64(i), 0}})
			results <- err
		}()
		if i == 0 {
			if held := <-g.entered; len(held) != 1 {
				t.Fatalf("an idle worker took a batch of %d, want the lone instance", len(held))
			}
			continue
		}
		for queued(rt, ref) != i {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return results
}

// nextBatch releases the batch the worker holds and returns the x[0] of
// every row of the one it takes next.
func nextBatch(g *gated) []float64 {
	g.release <- struct{}{}
	var ids []float64
	for _, x := range <-g.entered {
		ids = append(ids, x[0])
	}
	return ids
}

// TestIdleLineScoresAtOnce pins the idle regime: a lone Predict is scored
// by the worker that receives it with nothing to wait for — it returns
// although nobody advances the fake clock, no timer was ever armed, and
// the batch of one records a batch latency of exactly 0.
func TestIdleLineScoresAtOnce(t *testing.T) {
	rt, fake, tel, ref := newTestRuntime(t, Config{Workers: 1})
	start := fake.Now()

	_, classes, err := rt.Predict(context.Background(), ref.Name, [][]float64{{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0] != 1 {
		t.Fatalf("classes %v, want [1]", classes)
	}
	if fake.Pending() != 0 || !fake.Now().Equal(start) {
		t.Fatalf("%d timers armed, virtual time moved %v; want none and 0", fake.Pending(), fake.Now().Sub(start))
	}

	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 1 || size.Sum != 1 {
		t.Fatalf("batch size count=%d sum=%v, want one batch of one", size.Count, size.Sum)
	}
	lat := histSeries(t, tel, "spatial_serving_batch_latency_seconds")
	if lat.Count != 1 || lat.Sum != 0 {
		t.Fatalf("batch latency count=%d sum=%v, want exactly 0", lat.Count, lat.Sum)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") != 1 {
		t.Fatal("predictions counter != 1")
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after completion", rt.InFlight())
	}
}

// TestBusyLineCoalesces pins the busy regime: everything that queued
// while the single worker was inside the classifier comes out as one
// batch, in queue order.
func TestBusyLineCoalesces(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: 64, Workers: 1})
	g := gate(rt, ref)
	results := queueBehindHeldWorker(t, rt, ref, g, 5)

	if got := nextBatch(g); !slices.Equal(got, []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("batch %v, want the five queued instances in FIFO order", got)
	}
	g.open()
	for i := 0; i < 6; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 2 || size.Sum != 6 {
		t.Fatalf("batch size count=%d sum=%v, want batches of 1 and 5", size.Count, size.Sum)
	}
}

// TestBatcherSizeBoundFlush: a worker takes at most MaxBatch instances —
// MaxBatch + 2 queued behind a busy worker come out as MaxBatch, then 2 —
// and with no virtual time passing every batch latency is exactly 0.
func TestBatcherSizeBoundFlush(t *testing.T) {
	const maxBatch = 3
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: maxBatch, Workers: 1})
	g := gate(rt, ref)
	results := queueBehindHeldWorker(t, rt, ref, g, maxBatch+2)

	if got := nextBatch(g); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Fatalf("first batch %v, want the oldest MaxBatch instances", got)
	}
	if got := nextBatch(g); !slices.Equal(got, []float64{4, 5}) {
		t.Fatalf("second batch %v, want the remaining two", got)
	}
	g.open()
	for i := 0; i < 1+maxBatch+2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 3 || size.Sum != 1+maxBatch+2 {
		t.Fatalf("batch size count=%d sum=%v, want batches of 1, 3 and 2", size.Count, size.Sum)
	}
	lat := histSeries(t, tel, "spatial_serving_batch_latency_seconds")
	if lat.Count != 3 || lat.Sum != 0 {
		t.Fatalf("batch latency count=%d sum=%v, want exactly 0 (no virtual time passed)", lat.Count, lat.Sum)
	}
}

// TestAdmissionControlSheds fills a line to its watermark — one instance
// held in the classifier, three queued behind it — and asserts the next
// request is shed with an *OverloadedError carrying the configured
// Retry-After, while the admitted requests still complete.
func TestAdmissionControlSheds(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: 64, Workers: 1, QueueDepth: 8, ShedWatermark: 4})
	g := gate(rt, ref)
	results := queueBehindHeldWorker(t, rt, ref, g, 3)

	_, _, err := rt.Predict(context.Background(), ref.Name, [][]float64{{0, 0}})
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err %v, want *OverloadedError", err)
	}
	if oe.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter %v, want default 250ms", oe.RetryAfter)
	}
	if oe.Depth != 4 {
		t.Fatalf("Depth %d, want 4", oe.Depth)
	}
	if metricValue(t, tel, "spatial_serving_shed_total") != 1 {
		t.Fatal("shed counter != 1")
	}

	g.open()
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", rt.InFlight())
	}
	// Queue-depth gauge is collector-driven: gathering now reports 0.
	if metricValue(t, tel, "spatial_serving_queue_depth") != 0 {
		t.Fatal("queue depth gauge != 0 after drain")
	}
}

// TestPredictErrors covers the non-batching failure modes.
func TestPredictErrors(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{Workers: 1})
	ctx := context.Background()

	if _, _, err := rt.Predict(ctx, "ghost", [][]float64{{0, 0}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ref: %v, want ErrNotFound", err)
	}
	if probs, classes, err := rt.Predict(ctx, ref.Name, nil); probs != nil || classes != nil || err != nil {
		t.Fatal("empty batch should be a no-op")
	}

	// A request no idle line could admit is refused for good, naming the
	// limit — not shed with a retry hint; one row fewer is admitted.
	rows := make([][]float64, 769) // default watermark: 3/4 of 1024
	for i := range rows {
		rows[i] = []float64{2, 0}
	}
	_, _, err := rt.Predict(ctx, ref.Name, rows)
	var oe *OverloadedError
	if !errors.Is(err, ErrTooManyInstances) || errors.As(err, &oe) {
		t.Fatalf("769 rows on an idle line: %v, want ErrTooManyInstances and no shed", err)
	}
	if want := "serving: too many instances in one request: 769, limit 768"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if metricValue(t, tel, "spatial_serving_shed_total") != 0 || rt.InFlight() != 0 {
		t.Fatal("a refused request must not count as shed or stay in flight")
	}
	if probs, _, err := rt.Predict(ctx, ref.Name, rows[:768]); err != nil || len(probs) != 768 {
		t.Fatalf("a request of exactly the watermark: %d rows, %v; want admitted", len(probs), err)
	}

	// A dimension mismatch fails the call, not the line: the runtime keeps
	// serving afterwards.
	if _, _, err := rt.Predict(ctx, ref.Name, [][]float64{{1, 2, 3, 4, 5}}); err == nil {
		t.Fatal("dimension mismatch should surface as an error")
	}
	if _, classes, err := rt.Predict(ctx, ref.Name, [][]float64{{2, 0}, {-2, 0}}); err != nil || classes[0] != 1 || classes[1] != 0 {
		t.Fatalf("runtime dead after a mismatch: %v %v", classes, err)
	}

	// Context cancellation unblocks a Predict waiting on a busy worker.
	g := gate(rt, ref)
	cctx, cancel := context.WithCancel(ctx)
	out := make(chan error, 1)
	go func() {
		_, _, err := rt.Predict(cctx, ref.Name, [][]float64{{2, 0}})
		out <- err
	}()
	<-g.entered
	cancel()
	if err := <-out; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Predict: %v", err)
	}
	g.open() // the abandoned batch still scores and leaves the accounts
	for rt.InFlight() != 0 {
		time.Sleep(100 * time.Microsecond)
	}

	rt.Close()
	rt.Close() // idempotent
	if _, _, err := rt.Predict(ctx, ref.Name, [][]float64{{2, 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
}

// TestNarrowRowFailsOnlyItsOwnCall: a row narrower than the model reads is
// refused before it is queued, as ml.ErrInput (422 on the wire), so the
// call it would have been coalesced with is still served — bit for bit
// what the model answers it. Scored in one batch, the narrow row's index
// panic used to fail both calls.
func TestNarrowRowFailsOnlyItsOwnCall(t *testing.T) {
	rt, _, _, _ := newTestRuntime(t, Config{MaxBatch: 64, Workers: 1})
	forest := ml.NewForest(ml.ForestConfig{Trees: 5, MinLeaf: 1, MaxFeatures: -1, Seed: 1})
	if err := forest.Fit(sepTable(3, 120)); err != nil {
		t.Fatal(err)
	}
	ref, err := rt.Registry().Register("rf", forest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	good := [][]float64{{2, 0.5}, {-2, -0.5}}
	// The line reads the model's widths on its first call; then its one
	// worker is held so that the next calls queue together.
	if _, _, err := rt.Predict(ctx, ref.Name, good[:1]); err != nil {
		t.Fatal(err)
	}
	g := gate(rt, ref)
	held := make(chan error, 1)
	go func() {
		_, _, err := rt.Predict(ctx, ref.Name, [][]float64{{0, 0}})
		held <- err
	}()
	<-g.entered

	type answer struct {
		probs [][]float64
		err   error
	}
	served := make(chan answer, 1)
	go func() {
		probs, _, err := rt.Predict(ctx, ref.Name, good)
		served <- answer{probs, err}
	}()
	for queued(rt, ref) != len(good) {
		time.Sleep(50 * time.Microsecond)
	}
	narrow := make(chan error, 1)
	go func() {
		_, _, err := rt.Predict(ctx, ref.Name, [][]float64{{}})
		narrow <- err
	}()
	// Refused at once, or (the defect) queued beside the good rows.
	for len(narrow) == 0 && queued(rt, ref) == len(good) {
		time.Sleep(50 * time.Microsecond)
	}
	g.open()
	if err := <-narrow; !errors.Is(err, ml.ErrInput) {
		t.Errorf("narrow row: %v, want ml.ErrInput", err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	got := <-served
	if got.err != nil {
		t.Fatalf("the good call failed beside the narrow one: %v", got.err)
	}
	for i, want := range ml.PredictProbaAll(forest, good) {
		for c := range want {
			if math.Float64bits(got.probs[i][c]) != math.Float64bits(want[c]) {
				t.Fatalf("row %d class %d: served %v, model %v", i, c, got.probs[i][c], want[c])
			}
		}
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after every call returned", rt.InFlight())
	}
}

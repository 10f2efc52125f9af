// Package serving is the model-serving runtime every SPATIAL service
// predicts through: a versioned, content-addressed model registry with an
// LRU warm cache, one bounded queue and one worker pool per model whose
// workers coalesce whatever queued while they were busy into
// micro-batches, and admission control that sheds load with a retryable
// overload error before queueing collapses into latency.
//
// The paper's capacity experiments (§VII-B) drive the deployed services
// with concurrent JMeter traffic; this package replaces the serial
// per-request prediction loop those experiments saturate with a runtime
// that amortizes per-request overhead across batches (tree-major batch
// kernels in internal/ml), bounds concurrency to the hardware, and turns
// overload into fast 429s instead of unbounded queueing.
//
// Time is injected via internal/clock so latency measurements are exact
// virtual timelines under test; telemetry (queue depth, batch size and
// latency, shed and eviction counters) records into an
// internal/telemetry registry exposed at /metrics.
package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// Config parameterizes the runtime. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// MaxBatch is the micro-batch size bound (default 64): a worker takes
	// at most MaxBatch queued instances into one batch. There is no
	// latency bound to set: a batch is whatever queued while the workers
	// were busy, and an idle worker waits for nothing.
	MaxBatch int
	// Workers is the per-model worker-pool size (default GOMAXPROCS).
	Workers int
	// ShedWatermark is the in-flight instance count (queued + executing,
	// per model) beyond which new requests are shed with an
	// *OverloadedError (default 768). It is also the capacity of the
	// model's queue, and the most instances one request may carry: a
	// larger one fails with ErrTooManyInstances.
	ShedWatermark int
	// Clock is the time source for latency measurements; clock.Real()
	// when nil. Tests install a clock.Fake and assert exact virtual
	// timelines.
	Clock clock.Clock
	// Telemetry is the metric registry serving metrics record into; a
	// private registry is created when nil.
	Telemetry *telemetry.Registry
}

// retryAfter is the client back-off hint carried by shed responses.
const retryAfter = 250 * time.Millisecond

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShedWatermark <= 0 {
		c.ShedWatermark = 768
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// OverloadedError is returned when admission control sheds a request:
// the model's in-flight depth is past the watermark. Servers surface it
// as 429 with a Retry-After header.
type OverloadedError struct {
	// Ref is the model reference the shed request addressed.
	Ref string
	// Depth is the in-flight instance count at shed time.
	Depth int
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serving: model %s overloaded (%d in flight); retry after %v",
		e.Ref, e.Depth, e.RetryAfter)
}

// ErrTooManyInstances is returned (wrapped, with the count and the limit)
// for a request carrying more instances than ShedWatermark: admission
// could never take it however idle the line, so unlike a shed it is not
// retryable — the caller must split the request. Servers surface it as
// 413.
var ErrTooManyInstances = errors.New("serving: too many instances in one request")

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serving: runtime closed")

// Runtime is the model-serving runtime. Create with New, register models
// through Registry(), predict with Predict, and Close when done.
type Runtime struct {
	cfg Config
	clk clock.Clock
	met *metrics
	reg *Registry

	mu     sync.Mutex
	lines  map[string]*line
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New constructs a runtime (and its registry) from cfg.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	met := newMetrics(cfg.Telemetry)
	r := &Runtime{
		cfg:   cfg,
		clk:   cfg.Clock,
		met:   met,
		reg:   newRegistry(defaultWarmBytes, met),
		lines: make(map[string]*line),
		stop:  make(chan struct{}),
	}
	cfg.Telemetry.OnGather(func() { met.queueDepth.Set(float64(r.InFlight())) })
	return r
}

// Registry returns the runtime's model registry.
func (r *Runtime) Registry() *Registry { return r.reg }

// Telemetry returns the metric registry serving metrics record into.
func (r *Runtime) Telemetry() *telemetry.Registry { return r.cfg.Telemetry }

// item is one instance waiting for a prediction.
type item struct {
	x    []float64
	out  int
	at   time.Time
	call *call
}

// call aggregates the results of one Predict invocation whose instances
// may be spread over several batches and workers.
type call struct {
	probs     [][]float64
	remaining atomic.Int64
	err       atomic.Pointer[error]
	done      chan struct{}
	// abandoned is set when Predict stops waiting (its context is done):
	// a worker then drops the call's rows that are still queued instead
	// of scoring them for nobody.
	abandoned atomic.Bool
}

func (c *call) deliver(i int, p []float64) {
	c.probs[i] = p
	if c.remaining.Add(-1) == 0 {
		close(c.done)
	}
}

func (c *call) fail(err error) {
	c.err.CompareAndSwap(nil, &err)
	if c.remaining.Add(-1) == 0 {
		close(c.done)
	}
}

// line is the serving pipeline of one content-addressed model: a bounded
// request queue and the worker pool that drains it in micro-batches.
type line struct {
	id       string
	in       chan *item
	inflight atomic.Int64
	// widths is what the model's rows must measure, read off the model by
	// the line's first Predict: a content id's model never changes.
	widths atomic.Pointer[ml.Widths]
}

// check refuses, before any of them is queued, an instance the line's
// model cannot score: scored, it would fail the batch it landed in and
// with it every call coalesced there.
func (r *Runtime) check(ln *line, instances [][]float64) error {
	w := ln.widths.Load()
	if w == nil {
		model, err := r.reg.Model(ln.id)
		if err != nil {
			return err
		}
		widths := ml.InputWidths(model)
		w = &widths
		ln.widths.Store(w)
	}
	for i, x := range instances {
		if err := w.Check(len(x)); err != nil {
			return fmt.Errorf("serving: instance %d: %w", i, err)
		}
	}
	return nil
}

// line returns (creating and starting on first use) the pipeline for a
// content id.
func (r *Runtime) line(id string) (*line, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if ln, ok := r.lines[id]; ok {
		return ln, nil
	}
	ln := &line{id: id, in: make(chan *item, r.cfg.ShedWatermark)}
	r.lines[id] = ln
	r.wg.Add(r.cfg.Workers)
	for w := 0; w < r.cfg.Workers; w++ {
		go r.runWorker(ln)
	}
	return ln, nil
}

// Predict scores instances against the model addressed by ref (a content
// id, name@version, name@latest, or a promoted bare name), coalescing
// them with concurrent callers into micro-batches. It returns one
// probability row and one argmax class per instance.
func (r *Runtime) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	id, err := r.reg.Resolve(ref)
	if err != nil {
		return nil, nil, err
	}
	if len(instances) == 0 {
		return nil, nil, nil
	}
	if len(instances) > r.cfg.ShedWatermark {
		return nil, nil, fmt.Errorf("%w: %d, limit %d", ErrTooManyInstances, len(instances), r.cfg.ShedWatermark)
	}
	ln, err := r.line(id)
	if err != nil {
		return nil, nil, err
	}
	if err := r.check(ln, instances); err != nil {
		return nil, nil, err
	}

	// Admission: reserve in-flight slots up front; past the watermark the
	// request is shed instead of queued, so latency stays bounded and the
	// client backs off (429 + Retry-After at the HTTP layer).
	n := int64(len(instances))
	depth := ln.inflight.Add(n)
	if depth > int64(r.cfg.ShedWatermark) {
		ln.inflight.Add(-n)
		r.met.shed.Add(float64(n))
		return nil, nil, &OverloadedError{Ref: ref, Depth: int(depth - n), RetryAfter: retryAfter}
	}

	c := &call{probs: make([][]float64, len(instances)), done: make(chan struct{})}
	c.remaining.Store(n)
	now := r.clk.Now()
	slab := make([]item, len(instances))
	for i, x := range instances {
		slab[i] = item{x: x, out: i, at: now, call: c}
		// The reservation above guarantees queue room (channel occupancy
		// never exceeds in-flight, which the watermark caps, and the
		// watermark is the queue's capacity), so this send cannot block on
		// a full queue — a bare send, not a select, keeps it off the slow
		// path.
		ln.in <- &slab[i]
	}

	if ctxDone := ctx.Done(); ctxDone == nil {
		// Background-style context: a two-way select keeps the hot path
		// cheap.
		select {
		case <-c.done:
		case <-r.stop:
			r.release(ln)
			return nil, nil, ErrClosed
		}
	} else {
		select {
		case <-c.done:
		case <-ctxDone:
			c.abandoned.Store(true)
			r.release(ln)
			return nil, nil, ctx.Err()
		case <-r.stop:
			r.release(ln)
			return nil, nil, ErrClosed
		}
	}
	if ep := c.err.Load(); ep != nil {
		return nil, nil, *ep
	}
	return c.probs, ml.ArgmaxAll(c.probs), nil
}

// release returns the reservation of every instance still queued on a
// closed runtime, failing its call with ErrClosed; on a live one the
// workers take them, and it does nothing. Close calls it once the workers
// are gone, and so does a Predict that stops waiting: it may have resolved
// its line before the close and enqueued after Close looked.
func (r *Runtime) release(ln *line) {
	select {
	case <-r.stop:
	default:
		return
	}
	for {
		select {
		case it := <-ln.in:
			ln.inflight.Add(-1)
			it.call.fail(ErrClosed)
		default:
			return
		}
	}
}

// keep reports whether a dequeued instance still has a caller waiting
// for it. An abandoned call's instance is dropped here: its reservation
// is returned and it is counted, never scored. Dropping at dequeue keeps
// channel occupancy ≤ in-flight ≤ watermark, which Predict's bare send
// relies on.
func (r *Runtime) keep(ln *line, it *item) bool {
	if !it.call.abandoned.Load() {
		return true
	}
	ln.inflight.Add(-1)
	r.met.abandoned.Inc()
	return false
}

// take appends what is queued right now, up to cap(batch), without
// blocking, dropping the instances nobody waits for.
func (r *Runtime) take(ln *line, batch []*item) []*item {
	for len(batch) < cap(batch) {
		select {
		case it := <-ln.in:
			if r.keep(ln, it) {
				batch = append(batch, it)
			}
		default:
			return batch
		}
	}
	return batch
}

// runWorker is the whole pipeline stage behind a line's queue: block for
// the oldest queued instance, take whatever else is queued up to
// MaxBatch, score it. No deadline is needed — the batch that forms while
// the workers are busy costs nobody a wait, and an idle worker has
// nothing to wait for.
func (r *Runtime) runWorker(ln *line) {
	defer r.wg.Done()
	batch := make([]*item, 0, r.cfg.MaxBatch)
	X := make([][]float64, r.cfg.MaxBatch)
	for {
		select {
		case first := <-ln.in:
			batch = batch[:0]
			if r.keep(ln, first) {
				batch = append(batch, first)
			}
			batch = r.take(ln, batch)
		case <-r.stop:
			return
		}
		if len(batch) == 0 {
			continue
		}
		// The send that woke this worker handed it the processor ahead of
		// every caller that was about to enqueue, so what it sees is one
		// instance however loaded the line is. Yield to them, and again
		// for as long as a yield brings more: on an idle processor the
		// first yield returns at once with nothing and the batch goes as
		// it is; on a busy one the batch grows until the callers have all
		// enqueued and are waiting, which is when waiting longer could
		// gain nothing.
		for len(batch) < cap(batch) {
			n := len(batch)
			runtime.Gosched()
			if batch = r.take(ln, batch); len(batch) == n {
				break
			}
		}
		r.execute(ln, batch, X)
		// Drop the request rows and calls so an idle line pins none.
		clear(batch)
		clear(X[:len(batch)])
	}
}

// execute scores one batch and delivers per-item results. A model error
// (or a prediction panic) fails every item's call instead of crashing the
// worker; a row the model cannot take never gets here (check).
func (r *Runtime) execute(ln *line, batch []*item, X [][]float64) {
	first := batch[0].at
	probs, err := r.scoreBatch(ln.id, batch, X)
	// Accounting precedes delivery: a Predict caller wakes the moment its
	// result lands, and anything it then reads (in-flight count, batch
	// histograms) must already reflect this batch.
	ln.inflight.Add(-int64(len(batch)))
	if err == nil {
		// Counted here, once per batch, rather than per call: every
		// instance in the batch was scored.
		r.met.predictions.Add(float64(len(batch)))
	}
	r.met.batchSize.Observe(float64(len(batch)))
	r.met.batchLatency.Observe(r.clk.Since(first).Seconds())
	if err != nil {
		for _, it := range batch {
			it.call.fail(err)
		}
		return
	}
	// Reslice hint: scoreBatch returns one row per item on success.
	probs = probs[:len(batch)]
	for i, it := range batch {
		it.call.deliver(it.out, probs[i])
	}
}

// scoreBatch gathers the batch's rows into X (the worker's scratch, at
// least one slot per item) and scores them.
func (r *Runtime) scoreBatch(id string, batch []*item, X [][]float64) (probs [][]float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("serving: predict panic: %v", rec)
		}
	}()
	model, err := r.reg.Model(id)
	if err != nil {
		return nil, err
	}
	X = X[:len(batch)]
	for i, it := range batch {
		X[i] = it.x
	}
	return ml.PredictProbaAll(model, X), nil
}

// InFlight reports the total in-flight instance count across every model
// line (the admission-control queue-depth signal).
func (r *Runtime) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, ln := range r.lines {
		total += ln.inflight.Load()
	}
	return int(total)
}

// Close stops every worker — one mid-batch finishes and delivers that
// batch first — fails the Predict calls still waiting with ErrClosed and
// releases the rows they left queued, so InFlight is 0 once Close and
// every Predict have returned. It is idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ln := range r.lines {
		r.release(ln)
	}
}

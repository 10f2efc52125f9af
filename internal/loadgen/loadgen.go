// Package loadgen is the capacity-testing harness standing in for the
// paper's JMeter setup: thread groups with ramp-up periods drive a sampler
// concurrently, and listeners aggregate response times, throughput, and
// error rates (the "Summary Report" and "Response Times Over Active
// Threads" views the paper reads its fig-8 results from).
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Sampler issues one request and reports success.
type Sampler interface {
	Sample(ctx context.Context) error
}

// SamplerFunc adapts a function to Sampler.
type SamplerFunc func(ctx context.Context) error

// Sample implements Sampler.
func (f SamplerFunc) Sample(ctx context.Context) error { return f(ctx) }

// StatusError reports a sample that reached the server but came back with
// an error status. IsShed tells shed load (429 from serving admission
// control) from hard failures.
type StatusError struct {
	Code int
}

// Error implements error, keeping the historical "status NNN" shape.
func (e *StatusError) Error() string { return fmt.Sprintf("status %d", e.Code) }

// IsShed reports whether err is a shed: a *StatusError with code 429, the
// admission controller's answer rather than a failure of the stack.
func IsShed(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// DefaultClientTimeout bounds requests of samplers that did not inject
// their own client. http.DefaultClient has no timeout at all, so one
// hung upstream would pin a load-test thread forever and skew every
// latency percentile behind it.
const DefaultClientTimeout = 30 * time.Second

// defaultClient is the shared fallback client. Sharing one client (and
// so one transport) across samplers keeps connection pooling intact.
var defaultClient = &http.Client{Timeout: DefaultClientTimeout}

// HTTPSampler posts a fixed body to a URL, the typical JMeter "HTTP
// Request" sampler.
type HTTPSampler struct {
	Method string
	URL    string
	Body   []byte
	Header http.Header
	// Client overrides the HTTP client (chaos transports, custom
	// timeouts, test doubles). When nil a shared client with
	// DefaultClientTimeout is used — never http.DefaultClient, which
	// would wait on a hung upstream forever.
	Client *http.Client
}

// Sample implements Sampler.
func (s *HTTPSampler) Sample(ctx context.Context) error {
	client := s.Client
	if client == nil {
		client = defaultClient
	}
	method := s.Method
	if method == "" {
		method = http.MethodGet
	}
	var body io.Reader
	if len(s.Body) > 0 {
		body = bytes.NewReader(s.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.URL, body)
	if err != nil {
		return err
	}
	for k, vs := range s.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// Propagate the trace ID Run stamped on the context so client-side
	// latencies can be joined against server-side spans.
	telemetry.Inject(ctx, req.Header)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return &StatusError{Code: resp.StatusCode}
	}
	return nil
}

// ThreadGroup configures one load phase, mirroring JMeter's thread group.
type ThreadGroup struct {
	// Threads is the number of concurrent virtual users.
	Threads int
	// RampUp is the period over which threads start (thread i starts at
	// i/Threads · RampUp).
	RampUp time.Duration
	// Iterations is the number of samples each thread performs. Exactly
	// one of Iterations and Duration must be set.
	Iterations int
	// Duration, when set, makes each thread sample until the deadline
	// (measured from run start) instead of counting iterations.
	Duration time.Duration
	// Clock overrides the time source for ramp-up scheduling, deadline
	// checks, and sample timestamps; clock.Real() when nil. Tests inject
	// clock.Fake so ramp-up assertions are deterministic instead of
	// scheduler-dependent.
	Clock clock.Clock
}

// Sample is one recorded request.
type Sample struct {
	Start         time.Time
	Latency       time.Duration
	Err           error
	ActiveThreads int
	Thread        int
	// TraceID is the X-Trace-Id stamped on the request, joining this
	// client-side sample with the server-side spans at /traces.
	TraceID string
}

// Results collects samples from one run.
type Results struct {
	Samples []Sample
	Wall    time.Duration
}

// Run drives the sampler with the thread group until every thread
// completes its iterations or ctx is cancelled.
func Run(ctx context.Context, group ThreadGroup, sampler Sampler) (*Results, error) {
	if group.Threads <= 0 {
		return nil, errors.New("loadgen: Threads must be positive")
	}
	if (group.Iterations <= 0) == (group.Duration <= 0) {
		return nil, errors.New("loadgen: set exactly one of Iterations and Duration")
	}
	if sampler == nil {
		return nil, errors.New("loadgen: nil sampler")
	}

	clk := group.Clock
	if clk == nil {
		clk = clock.Real()
	}
	var (
		active  atomic.Int64
		mu      sync.Mutex
		samples []Sample
		wg      sync.WaitGroup
	)
	start := clk.Now()
	deadline := time.Time{}
	if group.Duration > 0 {
		deadline = start.Add(group.Duration)
	}
	for th := 0; th < group.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			// Ramp-up delay.
			if group.RampUp > 0 && group.Threads > 1 {
				delay := time.Duration(int64(group.RampUp) * int64(th) / int64(group.Threads))
				select {
				case <-clk.After(delay):
				case <-ctx.Done():
					return
				}
			}
			active.Add(1)
			defer active.Add(-1)
			for it := 0; group.Iterations <= 0 || it < group.Iterations; it++ {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && clk.Now().After(deadline) {
					return
				}
				s := Sample{
					Start:         clk.Now(),
					ActiveThreads: int(active.Load()),
					Thread:        th,
					TraceID:       telemetry.NewTraceID(),
				}
				s.Err = sampler.Sample(telemetry.ContextWithTrace(ctx, s.TraceID, ""))
				s.Latency = clk.Since(s.Start)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(th)
	}
	wg.Wait()
	res := &Results{Samples: samples, Wall: clk.Since(start)}
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].Start.Before(res.Samples[j].Start) })
	return res, ctx.Err()
}

// Summary is the JMeter "Summary Report" equivalent.
type Summary struct {
	Count  int `json:"count"`
	Errors int `json:"errors"`
	// Shed counts the subset of Errors that were 429 responses — load
	// the serving runtime's admission control rejected with a back-off
	// hint rather than queueing. A saturated-but-shedding service shows
	// a high Shed with a flat latency profile; a collapsing one shows
	// few Sheds and exploding percentiles.
	Shed       int           `json:"shed"`
	ErrorRate  float64       `json:"errorRate"`
	Mean       time.Duration `json:"meanNs"`
	Min        time.Duration `json:"minNs"`
	Max        time.Duration `json:"maxNs"`
	P50        time.Duration `json:"p50Ns"`
	P90        time.Duration `json:"p90Ns"`
	P95        time.Duration `json:"p95Ns"`
	P99        time.Duration `json:"p99Ns"`
	Throughput float64       `json:"throughputRps"`
	// SlowestTraces samples the trace IDs of the worst-latency requests
	// (up to 5) so tail latencies can be looked up in the server-side
	// span buffers (/traces?trace=<id>) of the gateway and services.
	SlowestTraces []TraceSample `json:"slowestTraces,omitempty"`
}

// TraceSample pairs a stamped trace ID with its client-observed latency.
type TraceSample struct {
	TraceID string        `json:"traceId"`
	Latency time.Duration `json:"latencyNs"`
	Err     bool          `json:"err,omitempty"`
}

// Summarize computes the summary report.
func (r *Results) Summarize() Summary {
	s := Summary{Count: len(r.Samples)}
	if s.Count == 0 {
		return s
	}
	lats := make([]time.Duration, 0, s.Count)
	var total time.Duration
	s.Min = r.Samples[0].Latency
	for _, smp := range r.Samples {
		if smp.Err != nil {
			s.Errors++
			if IsShed(smp.Err) {
				s.Shed++
			}
		}
		lats = append(lats, smp.Latency)
		total += smp.Latency
		if smp.Latency < s.Min {
			s.Min = smp.Latency
		}
		if smp.Latency > s.Max {
			s.Max = smp.Latency
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.Mean = total / time.Duration(s.Count)
	s.P50 = percentile(lats, 0.50)
	s.P90 = percentile(lats, 0.90)
	s.P95 = percentile(lats, 0.95)
	s.P99 = percentile(lats, 0.99)
	s.ErrorRate = float64(s.Errors) / float64(s.Count)
	if r.Wall > 0 {
		s.Throughput = float64(s.Count) / r.Wall.Seconds()
	}
	s.SlowestTraces = r.slowestTraces(5)
	return s
}

// slowestTraces returns the trace IDs of the n worst-latency samples,
// slowest first, skipping samples without a stamped trace.
func (r *Results) slowestTraces(n int) []TraceSample {
	traced := make([]Sample, 0, len(r.Samples))
	for _, s := range r.Samples {
		if s.TraceID != "" {
			traced = append(traced, s)
		}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].Latency > traced[j].Latency })
	if len(traced) > n {
		traced = traced[:n]
	}
	out := make([]TraceSample, 0, len(traced))
	for _, s := range traced {
		out = append(out, TraceSample{TraceID: s.TraceID, Latency: s.Latency, Err: s.Err != nil})
	}
	return out
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// ThreadPoint is one point of the "Response Times Over Active Threads"
// listener: the mean latency observed while a given number of threads was
// active.
type ThreadPoint struct {
	ActiveThreads int           `json:"activeThreads"`
	MeanLatency   time.Duration `json:"meanLatencyNs"`
	Count         int           `json:"count"`
}

// OverActiveThreads aggregates samples by concurrent thread count.
func (r *Results) OverActiveThreads() []ThreadPoint {
	type agg struct {
		total time.Duration
		n     int
	}
	byThreads := make(map[int]*agg)
	for _, s := range r.Samples {
		a, ok := byThreads[s.ActiveThreads]
		if !ok {
			a = &agg{}
			byThreads[s.ActiveThreads] = a
		}
		a.total += s.Latency
		a.n++
	}
	out := make([]ThreadPoint, 0, len(byThreads))
	for k, a := range byThreads {
		out = append(out, ThreadPoint{ActiveThreads: k, MeanLatency: a.total / time.Duration(a.n), Count: a.n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ActiveThreads < out[j].ActiveThreads })
	return out
}

package loadgen

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestRunCompletesAllIterations(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), ThreadGroup{Threads: 4, Iterations: 5}, SamplerFunc(func(context.Context) error {
		calls.Add(1)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 || len(res.Samples) != 20 {
		t.Fatalf("calls %d samples %d, want 20", calls.Load(), len(res.Samples))
	}
}

func TestRunValidation(t *testing.T) {
	s := SamplerFunc(func(context.Context) error { return nil })
	if _, err := Run(context.Background(), ThreadGroup{Threads: 0, Iterations: 1}, s); err == nil {
		t.Fatal("expected thread error")
	}
	if _, err := Run(context.Background(), ThreadGroup{Threads: 1, Iterations: 0}, s); err == nil {
		t.Fatal("expected iteration error")
	}
	if _, err := Run(context.Background(), ThreadGroup{Threads: 1, Iterations: 1}, nil); err == nil {
		t.Fatal("expected sampler error")
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Run(ctx, ThreadGroup{Threads: 2, Iterations: 1000000}, SamplerFunc(func(context.Context) error {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}))
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
	if calls.Load() == 0 {
		t.Fatal("no samples before cancel")
	}
}

func TestSummaryStatistics(t *testing.T) {
	res := &Results{Wall: 2 * time.Second}
	for i := 1; i <= 100; i++ {
		var err error
		if i%10 == 0 {
			err = errors.New("boom")
		}
		res.Samples = append(res.Samples, Sample{Latency: time.Duration(i) * time.Millisecond, Err: err})
	}
	s := res.Summarize()
	if s.Count != 100 || s.Errors != 10 {
		t.Fatalf("count/errors %d/%d", s.Count, s.Errors)
	}
	if s.ErrorRate != 0.1 {
		t.Fatalf("error rate %v", s.ErrorRate)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean %v", s.Mean)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 %v", s.P50)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("p99 %v", s.P99)
	}
	if s.Throughput != 50 {
		t.Fatalf("throughput %v", s.Throughput)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := (&Results{}).Summarize()
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestOverActiveThreadsAggregates(t *testing.T) {
	res := &Results{}
	res.Samples = []Sample{
		{ActiveThreads: 1, Latency: 10 * time.Millisecond},
		{ActiveThreads: 1, Latency: 20 * time.Millisecond},
		{ActiveThreads: 2, Latency: 40 * time.Millisecond},
	}
	pts := res.OverActiveThreads()
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].ActiveThreads != 1 || pts[0].MeanLatency != 15*time.Millisecond || pts[0].Count != 2 {
		t.Fatalf("point0 %+v", pts[0])
	}
	if pts[1].ActiveThreads != 2 || pts[1].MeanLatency != 40*time.Millisecond {
		t.Fatalf("point1 %+v", pts[1])
	}
}

func TestRampUpStaggersThreadStarts(t *testing.T) {
	// Driven by a fake clock so the exact JMeter-style stagger
	// (thread i starts at i/Threads · RampUp) is asserted without
	// real sleeps or scheduler-dependent slack.
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	fc := clock.NewFake(epoch)
	sampled := make(chan struct{}, 4)
	type outcome struct {
		res *Results
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(context.Background(),
			ThreadGroup{Threads: 4, RampUp: 200 * time.Millisecond, Iterations: 1, Clock: fc},
			SamplerFunc(func(context.Context) error {
				sampled <- struct{}{}
				return nil
			}))
		done <- outcome{res, err}
	}()

	// Thread 0's ramp delay is zero, so it samples at the epoch; threads
	// 1-3 park on the fake clock for 50/100/150ms.
	<-sampled
	fc.BlockUntil(3)
	for i := 0; i < 3; i++ {
		fc.Advance(50 * time.Millisecond)
		<-sampled
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	starts := make([]time.Duration, 0, len(out.res.Samples))
	for _, s := range out.res.Samples {
		starts = append(starts, s.Start.Sub(epoch))
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	want := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	if len(starts) != len(want) {
		t.Fatalf("got %d samples, want %d", len(starts), len(want))
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("thread start %d at +%v, want +%v", i, starts[i], want[i])
		}
	}
	if out.res.Wall != 150*time.Millisecond {
		t.Fatalf("wall time %v on fake timeline, want 150ms", out.res.Wall)
	}
}

func TestHTTPSampler(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.URL.Path == "/fail" {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ok := &HTTPSampler{URL: srv.URL + "/ok"}
	if err := ok.Sample(context.Background()); err != nil {
		t.Fatal(err)
	}
	bad := &HTTPSampler{URL: srv.URL + "/fail"}
	if err := bad.Sample(context.Background()); err == nil {
		t.Fatal("expected error for 500 response")
	}
	if hits.Load() != 2 {
		t.Fatalf("hits %d", hits.Load())
	}
}

func TestHTTPSamplerUnderLoad(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	res, err := Run(context.Background(), ThreadGroup{Threads: 8, Iterations: 4},
		&HTTPSampler{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize()
	if s.Count != 32 || s.Errors != 0 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean < 2*time.Millisecond {
		t.Fatalf("mean latency %v implausibly low", s.Mean)
	}
}

func TestRunDurationMode(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), ThreadGroup{Threads: 3, Duration: 150 * time.Millisecond},
		SamplerFunc(func(context.Context) error {
			calls.Add(1)
			time.Sleep(5 * time.Millisecond)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("no samples in duration mode")
	}
	if res.Wall < 150*time.Millisecond {
		t.Fatalf("run ended early: %v", res.Wall)
	}
	if res.Wall > 2*time.Second {
		t.Fatalf("run overshot duration: %v", res.Wall)
	}
}

func TestRunRejectsAmbiguousStopCondition(t *testing.T) {
	s := SamplerFunc(func(context.Context) error { return nil })
	if _, err := Run(context.Background(), ThreadGroup{Threads: 1}, s); err == nil {
		t.Fatal("expected error when neither Iterations nor Duration set")
	}
	if _, err := Run(context.Background(), ThreadGroup{Threads: 1, Iterations: 1, Duration: time.Second}, s); err == nil {
		t.Fatal("expected error when both Iterations and Duration set")
	}
}

// TestHTTPSamplerDefaultClientTimeout: a sampler without an injected
// client must NOT fall back to http.DefaultClient (no timeout — one hung
// upstream pins a thread forever); the shared fallback carries
// DefaultClientTimeout, and an injected client is used as-is.
func TestHTTPSamplerDefaultClientTimeout(t *testing.T) {
	if defaultClient == http.DefaultClient {
		t.Fatal("fallback client is http.DefaultClient")
	}
	if defaultClient.Timeout != DefaultClientTimeout {
		t.Fatalf("fallback timeout %v, want %v", defaultClient.Timeout, DefaultClientTimeout)
	}
	if DefaultClientTimeout <= 0 {
		t.Fatal("DefaultClientTimeout must be positive")
	}

	// Injected clients are honored: a transport-level stub answers
	// without any server.
	injected := &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusTeapot, Body: http.NoBody, Request: r}, nil
	})}
	s := &HTTPSampler{URL: "http://example.invalid/x", Client: injected}
	err := s.Sample(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTeapot {
		t.Fatalf("injected client not used: %v", err)
	}
}

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

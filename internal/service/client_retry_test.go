package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/serving"
	"repro/internal/wire"
)

// TestClientRetriesShedRequests drives the client against a server that
// sheds twice (429 + Retry-After: 1) before serving, and asserts the
// retry loop sleeps exactly the server's hint on a virtual timeline.
func TestClientRetriesShedRequests(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"classes":[1],"probs":[[0,1]]}`))
	}))
	defer srv.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{MaxAttempts: 4, Clock: fake, Seed: 1}}

	type result struct {
		resp PredictResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Predict(context.Background(), PredictRequest{ModelID: "m0001", Instances: [][]float64{{2, 0}}})
		done <- result{resp, err}
	}()

	// Two shed attempts — release each exactly at the 1s Retry-After hint.
	for i := 0; i < 2; i++ {
		fake.BlockUntil(1)
		fake.Advance(time.Second)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("predict after retries: %v", res.err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts %d, want 3", got)
	}
	if len(res.resp.Classes) != 1 || res.resp.Classes[0] != 1 {
		t.Fatalf("classes %v", res.resp.Classes)
	}
}

// TestClientRetriesIdempotentGET covers the 5xx retry path for GETs: the
// back-off is jittered but always within the BaseDelay ceiling, so one
// BaseDelay advance releases it.
func TestClientRetriesIdempotentGET(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, Clock: fake, Seed: 7}}

	done := make(chan error, 1)
	go func() {
		_, err := c.Aliases(context.Background())
		done <- err
	}()
	fake.BlockUntil(1)
	fake.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("aliases after retry: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts %d, want 2", got)
	}
}

// TestClientDoesNotRetryFailedPOST pins the safety rule: a non-429 error
// on a non-idempotent method must surface immediately.
func TestClientDoesNotRetryFailedPOST(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{MaxAttempts: 4, Clock: fake}}
	if _, err := c.Predict(context.Background(), PredictRequest{ModelID: "x"}); err == nil {
		t.Fatal("expected error")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts %d, want 1 (POST 500 must not retry)", got)
	}
}

// TestClientDoesNotRetryOversizedPredict: a predict with more rows than an
// idle ML service could ever admit is answered 413 naming the limit, not
// 429, so the retrying client gives up after the one attempt; a request
// of exactly the limit is served.
func TestClientDoesNotRetryOversizedPredict(t *testing.T) {
	svc := NewMLService()
	defer svc.Close()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		svc.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{MaxAttempts: 4, Clock: clock.NewFake(time.Unix(1700000000, 0))}}
	ctx := context.Background()
	trained, err := c.Train(ctx, TrainRequest{Algorithm: "lr", Train: FromTable(sepTable(40)), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 769) // the default watermark is 768
	for i := range rows {
		rows[i] = []float64{2, 0}
	}

	attempts.Store(0)
	_, err = c.Predict(ctx, PredictRequest{ModelID: trained.ModelID, Instances: rows})
	var status *wire.StatusError
	if !errors.As(err, &status) || status.Status != http.StatusRequestEntityTooLarge || !errors.Is(err, serving.ErrTooManyInstances) {
		t.Fatalf("769 rows: %v, want a 413 that is serving.ErrTooManyInstances", err)
	}
	if !strings.Contains(status.Message, "limit 768") {
		t.Fatalf("message %q does not name the limit", status.Message)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts %d, want 1 (a 413 must not retry)", got)
	}
	if resp, err := c.Predict(ctx, PredictRequest{ModelID: trained.ModelID, Instances: rows[:768]}); err != nil || len(resp.Classes) != 768 {
		t.Fatalf("768 rows: %d classes, %v; want served", len(resp.Classes), err)
	}
}

// TestClientDefaultHTTPTimeout: a Client without an injected HTTP client
// must NOT fall back to http.DefaultClient (no timeout — one hung gateway
// hangs a sensor collection forever); the shared fallback carries a
// timeout, and an injected client is used as-is.
func TestClientDefaultHTTPTimeout(t *testing.T) {
	if wire.DefaultClient == http.DefaultClient {
		t.Fatal("fallback client is http.DefaultClient")
	}
	if wire.DefaultClient.Timeout <= 0 {
		t.Fatalf("fallback timeout %v, want positive", wire.DefaultClient.Timeout)
	}
	srv := httptest.NewServer(NewFairnessService())
	defer srv.Close()
	var viaInjected atomic.Int64
	injected := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		viaInjected.Add(1)
		return http.DefaultTransport.RoundTrip(r)
	})}
	if _, err := (&Client{BaseURL: srv.URL, HTTP: injected}).Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if viaInjected.Load() != 1 {
		t.Fatal("injected client not used")
	}
	if _, err := (&Client{BaseURL: srv.URL}).Healthz(context.Background()); err != nil {
		t.Fatalf("healthz through the shared fallback client: %v", err)
	}
	if viaInjected.Load() != 1 {
		t.Fatal("a Client without HTTP went through another Client's injected one")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

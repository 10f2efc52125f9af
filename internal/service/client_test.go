package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serving"
	"repro/internal/wire"
)

// TestClientDoesNotRetryOversizedPredict: a predict with more rows than an
// idle ML service could ever admit is answered 413 naming the limit, not
// the 429 of a shed, which a caller may retry; a request of exactly the
// limit is served.
func TestClientDoesNotRetryOversizedPredict(t *testing.T) {
	svc := NewMLService()
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()
	trained, err := c.Train(ctx, TrainRequest{Algorithm: "lr", Train: FromTable(sepTable(40)), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 769) // the default watermark is 768
	for i := range rows {
		rows[i] = []float64{2, 0}
	}

	_, err = c.Predict(ctx, PredictRequest{ModelID: trained.ModelID, Instances: rows})
	var status *wire.StatusError
	if !errors.As(err, &status) || status.Status != http.StatusRequestEntityTooLarge || !errors.Is(err, serving.ErrTooManyInstances) {
		t.Fatalf("769 rows: %v, want a 413 that is serving.ErrTooManyInstances", err)
	}
	if !strings.Contains(status.Message, "limit 768") {
		t.Fatalf("message %q does not name the limit", status.Message)
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

package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestMetricsEndpointBypassesAuthAndRateLimit pins the satellite
// requirement: /metrics (and /traces) answer without an API key and are
// never shed by the rate limiter, so scrapers need no credentials.
func TestMetricsEndpointBypassesAuthAndRateLimit(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{APIKeys: []string{"secret"}, RatePerSecond: 0.0001, Burst: 1})
	if err := g.AddRoute("/shap", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}

	// Burn the rate-limit budget with an authenticated request.
	get(t, g, "/shap/x", map[string]string{"X-API-Key": "secret"})
	if code, _ := get(t, g, "/shap/x", map[string]string{"X-API-Key": "secret"}); code != http.StatusTooManyRequests {
		t.Fatalf("expected rate limit, got %d", code)
	}

	// /metrics still answers, keyless, in Prometheus text format.
	for i := 0; i < 5; i++ {
		code, body := get(t, g, "/metrics", nil)
		if code != http.StatusOK {
			t.Fatalf("metrics status %d on attempt %d", code, i)
		}
		for _, want := range []string{
			`spatial_http_requests_total{service="gateway",route="/shap",method="GET",code="2xx"} 1`,
			`spatial_http_request_duration_seconds_bucket{service="gateway",route="/shap"`,
			`quantile="0.99"`,
			"go_goroutines",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %q:\n%s", want, body)
			}
		}
	}
	if code, _ := get(t, g, "/traces", nil); code != http.StatusOK {
		t.Fatalf("traces endpoint status %d", code)
	}
}

// TestGatewayRecordsSpansAndPropagatesTrace checks that a request carrying
// X-Trace-Id yields a gateway span under that trace, that the trace ID is
// echoed to the client, and that the upstream receives both trace headers
// with the gateway's span as parent.
func TestGatewayRecordsSpansAndPropagatesTrace(t *testing.T) {
	var gotTrace, gotSpan string
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get(telemetry.HeaderTraceID)
		gotSpan = r.Header.Get(telemetry.HeaderSpanID)
		// Echo the trace header like an instrumented service would;
		// the gateway must dedupe it on the client response.
		w.Header().Set(telemetry.HeaderTraceID, gotTrace)
		w.WriteHeader(http.StatusOK)
	}))
	defer b.Close()

	g := New(Config{})
	if err := g.AddRoute("/ml", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/ml/predict", nil)
	req.Header.Set(telemetry.HeaderTraceID, "trace-abc")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if vals := rec.Header().Values(telemetry.HeaderTraceID); len(vals) != 1 || vals[0] != "trace-abc" {
		t.Errorf("response %s = %v, want exactly one trace-abc", telemetry.HeaderTraceID, vals)
	}
	if gotTrace != "trace-abc" {
		t.Errorf("upstream saw trace %q, want trace-abc", gotTrace)
	}
	if gotSpan == "" {
		t.Error("upstream did not receive the gateway's span id")
	}
	spans := g.Tracer().Spans("trace-abc", 0)
	if len(spans) != 1 {
		t.Fatalf("gateway spans = %+v", spans)
	}
	if spans[0].Service != "gateway" || spans[0].Name != "GET /ml" || spans[0].SpanID != gotSpan {
		t.Errorf("span = %+v (upstream parent %q)", spans[0], gotSpan)
	}
}

// TestGatewayMintsTraceWhenAbsent: requests without trace headers still
// get a trace ID, echoed on the response for client-side correlation.
func TestGatewayMintsTraceWhenAbsent(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{})
	if err := g.AddRoute("/ml", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/ml/x", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	minted := rec.Header().Get(telemetry.HeaderTraceID)
	if len(minted) != 32 {
		t.Fatalf("minted trace id %q", minted)
	}
	if spans := g.Tracer().Spans(minted, 0); len(spans) != 1 {
		t.Errorf("spans for minted trace = %+v", spans)
	}
}

package repro

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestTracePropagationGatewayToService drives a request with a client
// X-Trace-Id through an in-process gateway→SHAP-service hop and asserts
// that both tiers recorded a correlated span: the gateway span carries
// the client's trace ID, the service span carries the same trace ID with
// the gateway's span as parent, and both are queryable via each tier's
// /traces endpoint.
func TestTracePropagationGatewayToService(t *testing.T) {
	shap := service.NewSHAPService()
	backend := httptest.NewServer(shap)
	defer backend.Close()

	gw := gateway.New(gateway.Config{})
	if err := gw.AddRoute("/shap", gateway.RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()

	traceID := telemetry.NewTraceID()
	req, err := http.NewRequestWithContext(context.Background(),
		http.MethodGet, front.URL+"/shap/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.HeaderTraceID, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.HeaderTraceID); got != traceID {
		t.Errorf("response trace id %q, want %q", got, traceID)
	}

	fetchSpans := func(url string) []telemetry.Span {
		t.Helper()
		resp, err := http.Get(url + "/traces?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var spans []telemetry.Span
		if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
			t.Fatal(err)
		}
		return spans
	}

	gwSpans := fetchSpans(front.URL)
	if len(gwSpans) != 1 || gwSpans[0].Service != "gateway" {
		t.Fatalf("gateway spans = %+v", gwSpans)
	}
	svcSpans := fetchSpans(backend.URL)
	if len(svcSpans) != 1 || svcSpans[0].Service != "shap" {
		t.Fatalf("service spans = %+v", svcSpans)
	}
	if svcSpans[0].ParentID != gwSpans[0].SpanID {
		t.Errorf("service span parent %q, want gateway span %q",
			svcSpans[0].ParentID, gwSpans[0].SpanID)
	}
	if svcSpans[0].TraceID != traceID || gwSpans[0].TraceID != traceID {
		t.Errorf("trace ids diverged: gw=%q svc=%q want %q",
			gwSpans[0].TraceID, svcSpans[0].TraceID, traceID)
	}
}

// TestMetricsExposedOnEveryTier scrapes /metrics on the gateway, a
// service, and the dashboard after traffic, asserting the Prometheus
// exposition carries request counters, histogram buckets with estimated
// quantiles, and runtime stats on each tier.
func TestMetricsExposedOnEveryTier(t *testing.T) {
	shap := service.NewSHAPService()
	backend := httptest.NewServer(shap)
	defer backend.Close()
	gw := gateway.New(gateway.Config{})
	if err := gw.AddRoute("/shap", gateway.RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()

	if resp, err := http.Get(front.URL + "/shap/healthz"); err != nil {
		t.Fatal(err)
	} else {
		_ = resp.Body.Close()
	}

	scrape := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s/metrics Content-Type = %q", url, ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	gwText := scrape(front.URL)
	for _, want := range []string{
		`spatial_http_requests_total{service="gateway",route="/shap",method="GET",code="2xx"} 1`,
		`spatial_http_request_duration_seconds_bucket{service="gateway",route="/shap",le="+Inf"} 1`,
		`spatial_http_request_duration_seconds_quantile{service="gateway",route="/shap",quantile="0.95"}`,
		"go_heap_alloc_bytes",
	} {
		if !strings.Contains(gwText, want) {
			t.Errorf("gateway exposition missing %q", want)
		}
	}

	svcText := scrape(backend.URL)
	for _, want := range []string{
		`spatial_http_requests_total{service="shap",route="/healthz",method="GET",code="2xx"} 1`,
		`spatial_http_request_duration_seconds_bucket{service="shap",route="/healthz",le="+Inf"} 1`,
		`quantile="0.99"`,
		"go_goroutines",
	} {
		if !strings.Contains(svcText, want) {
			t.Errorf("service exposition missing %q", want)
		}
	}
}

// TestLoadgenStampsTraceIDs asserts the loadgen satellite: every sample
// carries a fresh X-Trace-Id, the server observes exactly those IDs, and
// the summary surfaces the slowest ones for joining against spans.
func TestLoadgenStampsTraceIDs(t *testing.T) {
	var mu = make(chan struct{}, 1)
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu <- struct{}{}
		seen[r.Header.Get(telemetry.HeaderTraceID)]++
		<-mu
	}))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(),
		loadgen.ThreadGroup{Threads: 4, Iterations: 5},
		&loadgen.HTTPSampler{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for _, s := range res.Samples {
		if len(s.TraceID) != 32 {
			t.Fatalf("sample trace id %q", s.TraceID)
		}
		if seen[s.TraceID] != 1 {
			t.Errorf("trace %s seen %d times on the server", s.TraceID, seen[s.TraceID])
		}
	}
	sum := res.Summarize()
	if len(sum.SlowestTraces) != 5 {
		t.Fatalf("SlowestTraces = %+v", sum.SlowestTraces)
	}
	for i := 1; i < len(sum.SlowestTraces); i++ {
		if sum.SlowestTraces[i].Latency > sum.SlowestTraces[i-1].Latency {
			t.Errorf("slowest traces not sorted: %+v", sum.SlowestTraces)
		}
	}
	if seen[sum.SlowestTraces[0].TraceID] != 1 {
		t.Errorf("slowest trace %s never reached the server", sum.SlowestTraces[0].TraceID)
	}
}

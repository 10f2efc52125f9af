package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16)
	var sawTrace, sawSpan string
	handler := NewMiddleware(MiddlewareConfig{
		Registry: reg,
		Tracer:   tr,
		Service:  "svc",
		Route:    func(r *http.Request) string { return r.URL.Path },
	})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ok bool
		sawTrace, sawSpan, ok = TraceFromContext(r.Context())
		if !ok {
			t.Error("handler context missing trace")
		}
		w.WriteHeader(http.StatusTeapot)
	}))

	req := httptest.NewRequest("POST", "/explain", nil)
	req.Header.Set(HeaderTraceID, "trace-xyz")
	req.Header.Set(HeaderSpanID, "parent-1")
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, req)

	if sawTrace != "trace-xyz" {
		t.Errorf("handler saw trace %q, want trace-xyz", sawTrace)
	}
	if sawSpan == "" || sawSpan == "parent-1" {
		t.Errorf("handler should see a fresh span id, got %q", sawSpan)
	}
	if got := rr.Header().Get(HeaderTraceID); got != "trace-xyz" {
		t.Errorf("response %s = %q", HeaderTraceID, got)
	}

	spans := tr.Spans("trace-xyz", 0)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	s := spans[0]
	if s.ParentID != "parent-1" || s.Service != "svc" || s.Name != "POST /explain" || s.Status != http.StatusTeapot {
		t.Errorf("span = %+v", s)
	}

	if got := reg.Counter(FamRequests, "", "service", "route", "method", "code").
		With("svc", "/explain", "POST", "4xx").Value(); got != 1 {
		t.Errorf("request counter = %v, want 1", got)
	}
	if got := reg.Histogram(FamLatency, "", nil, "service", "route").
		With("svc", "/explain").Count(); got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
	if got := reg.Gauge(FamInFlight, "", "service").With("svc").Value(); got != 0 {
		t.Errorf("in-flight = %v, want 0 after completion", got)
	}
}

func TestMiddlewareMintsTraceWhenAbsent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16)
	handler := NewMiddleware(MiddlewareConfig{Registry: reg, Tracer: tr, Service: "svc",
		Route: func(*http.Request) string { return "/x" }})(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	minted := rr.Header().Get(HeaderTraceID)
	if len(minted) != 32 {
		t.Fatalf("minted trace id %q", minted)
	}
	if spans := tr.Spans(minted, 0); len(spans) != 1 || spans[0].ParentID != "" {
		t.Errorf("spans = %+v", spans)
	}
}

func TestMiddlewareCustomRouteLabel(t *testing.T) {
	reg := NewRegistry()
	handler := NewMiddleware(MiddlewareConfig{
		Registry: reg,
		Tracer:   NewTracer(16),
		Service:  "gw",
		Route:    func(r *http.Request) string { return "/fixed" },
	})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for _, p := range []string{"/a", "/b/c", "/d?e=f"} {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", p, nil))
	}
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	if !strings.Contains(out, `route="/fixed",method="GET",code="2xx"} 3`) {
		t.Errorf("custom route label not applied:\n%s", out)
	}
	if strings.Contains(out, `route="/a"`) {
		t.Errorf("raw path leaked into labels:\n%s", out)
	}
}

// TestMiddlewareCountsAbortedHandler: a handler that unwinds by panicking
// with http.ErrAbortHandler (how net/http aborts a response, and how
// ReverseProxy reports an upstream that died mid-body) is still counted as
// a 5xx, timed and spanned, and leaves in-flight at 0. Behind a real
// server, so net/http swallows the panic the middleware lets through.
func TestMiddlewareCountsAbortedHandler(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16)
	srv := httptest.NewServer(NewMiddleware(MiddlewareConfig{
		Registry: reg,
		Tracer:   tr,
		Service:  "svc",
		Route:    func(*http.Request) string { return "/abort" },
	})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})))
	defer srv.Close()

	const n = 3
	for i := 0; i < n; i++ {
		// The connection is closed only after the handler has unwound, so
		// the error comes back once the middleware's accounting has run.
		resp, err := http.Get(srv.URL + "/x")
		if err == nil {
			resp.Body.Close()
			t.Fatalf("request %d: aborted handler answered %d", i, resp.StatusCode)
		}
	}

	if got := reg.Counter(FamRequests, "", "service", "route", "method", "code").
		With("svc", "/abort", "GET", "5xx").Value(); got != n {
		t.Errorf("5xx request counter = %v, want %d", got, n)
	}
	if got := reg.Histogram(FamLatency, "", nil, "service", "route").
		With("svc", "/abort").Count(); got != n {
		t.Errorf("latency count = %d, want %d", got, n)
	}
	spans := tr.Spans("", 0)
	if len(spans) != n {
		t.Fatalf("spans = %+v, want %d", spans, n)
	}
	for _, s := range spans {
		if s.Status != http.StatusInternalServerError || s.Name != "GET /abort" {
			t.Errorf("span = %+v", s)
		}
	}
	if got := reg.Gauge(FamInFlight, "", "service").With("svc").Value(); got != 0 {
		t.Errorf("in-flight = %v, want 0", got)
	}
}

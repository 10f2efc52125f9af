package telemetry

import (
	"net/http"
	"strconv"

	"repro/internal/clock"
)

// MiddlewareConfig parameterizes NewMiddleware.
type MiddlewareConfig struct {
	// Registry records the request metrics; required.
	Registry *Registry
	// Tracer records one span per request; nil disables tracing.
	Tracer *Tracer
	// Service names the component in metric labels and spans.
	Service string
	// Route derives the bounded route label from a request; defaults to
	// r.URL.Path. Override in front of open-ended path spaces to avoid
	// label-cardinality blowups.
	Route func(r *http.Request) string
}

// Shared metric family names recorded by the HTTP middleware, exported so
// consumers (service /stats, dashboard snapshot) can find them in Gather
// output.
const (
	FamRequests = "spatial_http_requests_total"
	FamInFlight = "spatial_http_in_flight_requests"
	FamLatency  = "spatial_http_request_duration_seconds"
)

// NewMiddleware builds an http.Handler wrapper that, per request:
// counts it by (service, route, method, status class), tracks in-flight
// requests, observes latency into a histogram, and — when a Tracer is
// configured — extracts or mints trace IDs, exposes them to the handler
// via the request context, echoes X-Trace-Id on the response, and records
// a server span.
func NewMiddleware(cfg MiddlewareConfig) func(http.Handler) http.Handler {
	if cfg.Registry == nil {
		panic("telemetry: MiddlewareConfig.Registry is required")
	}
	routeOf := cfg.Route
	if routeOf == nil {
		routeOf = func(r *http.Request) string { return r.URL.Path }
	}
	requests := cfg.Registry.Counter(FamRequests,
		"HTTP requests served.", "service", "route", "method", "code")
	inFlightVec := cfg.Registry.Gauge(FamInFlight,
		"HTTP requests currently being served.", "service")
	//lint:ignore telemetry-cardinality service name is fixed once per process at construction
	inFlight := inFlightVec.With(cfg.Service)
	latency := cfg.Registry.Histogram(FamLatency,
		"HTTP request latency in seconds.", DefLatencyBuckets, "service", "route")

	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := routeOf(r)
			start := clock.Real().Now()
			inFlight.Inc()
			defer inFlight.Dec()

			var traceID, parentID, spanID string
			if cfg.Tracer != nil {
				traceID, parentID = Extract(r.Header)
				if traceID == "" {
					traceID = NewTraceID()
				}
				spanID = NewSpanID()
				r = r.WithContext(ContextWithTrace(r.Context(), traceID, spanID))
				w.Header().Set(HeaderTraceID, traceID)
			}

			rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			next.ServeHTTP(rec, r)

			elapsed := clock.Real().Since(start)
			//lint:ignore telemetry-cardinality service is fixed per process, route comes from cfg.Route's bounded table, method and code are normalized to fixed enums
			requests.With(cfg.Service, route, normalizeMethod(r.Method), statusClass(rec.status)).Inc()
			//lint:ignore telemetry-cardinality service is fixed per process, route comes from cfg.Route's bounded table
			latency.With(cfg.Service, route).Observe(elapsed.Seconds())
			if cfg.Tracer != nil {
				cfg.Tracer.Record(Span{
					TraceID:  traceID,
					SpanID:   spanID,
					ParentID: parentID,
					Service:  cfg.Service,
					Name:     r.Method + " " + route,
					Start:    start,
					Duration: float64(elapsed.Nanoseconds()) / 1e6,
					Status:   rec.status,
				})
			}
		})
	}
}

// normalizeMethod clamps the method label to the standard HTTP verbs.
// The method string is raw client input — a client sending made-up verbs
// must not be able to mint new metric series — so anything non-standard
// collapses to "other".
func normalizeMethod(m string) string {
	switch m {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodConnect,
		http.MethodOptions, http.MethodTrace:
		return m
	}
	return "other"
}

// statusClass buckets a status code into "2xx"-style classes to keep the
// code label low-cardinality.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// statusWriter captures the response status code.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Package gateway implements the micro-service API gateway SPATIAL fronts
// its metric services with (the paper deploys Kong). It provides prefix
// routing, round-robin and least-connections load balancing, active health
// checks, token-bucket rate limiting, API-key authentication, per-route
// latency metrics, and a per-upstream circuit breaker.
package gateway

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Balancing selects the load-balancing policy of a route.
type Balancing int

// Balancing policies.
const (
	RoundRobin Balancing = iota + 1
	LeastConnections
)

// Config parameterizes the gateway.
type Config struct {
	// APIKeys, when non-empty, enables X-API-Key authentication.
	APIKeys []string
	// RatePerSecond and Burst configure the per-client token bucket;
	// RatePerSecond <= 0 disables rate limiting.
	RatePerSecond float64
	Burst         int
	// HealthInterval is the active health-check period (default 1s,
	// used by Start).
	HealthInterval time.Duration
	// Telemetry is the metric registry the gateway records into; a
	// private registry (with runtime metrics) is created when nil. The
	// registry is exposed at /metrics, which bypasses auth and rate
	// limiting so scrapers need no API key.
	Telemetry *telemetry.Registry
	// Tracer records one span per proxied request; a private 1024-span
	// tracer is created when nil. Served as JSON at /traces.
	Tracer *telemetry.Tracer
	// Clock is the time source for request latencies, the circuit
	// breaker, and the health-check ticker; clock.Real() when nil.
	// Tests inject clock.Fake so breaker open/half-open/closed
	// transitions run on a virtual timeline instead of real sleeps.
	Clock clock.Clock
}

const (
	// breakerThreshold is the number of consecutive upstream failures
	// that opens the circuit.
	breakerThreshold = 3
	// breakerCooldown is how long an open circuit rejects an upstream
	// before letting one probe through.
	breakerCooldown = 5 * time.Second
	// halfOpen is openUntil while the one probe past a cooldown is in
	// flight: a deadline no clock reaches, so every other caller is
	// refused until the probe ends.
	halfOpen = math.MaxInt64
)

// upstream is one backend instance of a route.
type upstream struct {
	target  *url.URL
	proxy   *httputil.ReverseProxy
	healthy atomic.Bool
	// conns counts in-flight requests (least-connections policy).
	conns atomic.Int64
	// consecutive proxy failures and the breaker deadline.
	fails     atomic.Int32
	openUntil atomic.Int64 // unix nanos; 0 = closed, halfOpen = probing
}

// available reports whether u may take a request now, and whether that
// request is the breaker's half-open probe, which the caller must send.
func (u *upstream) available(now time.Time) (ok, probe bool) {
	if !u.healthy.Load() {
		return false, false
	}
	if openUntil := u.openUntil.Load(); openUntil != 0 {
		if now.UnixNano() < openUntil {
			return false, false
		}
		// Past the cooldown: exactly one caller wins the CAS and becomes
		// the probe. The breaker stays half-open, refusing every other
		// caller, until forward ends the probe. A breaker concurrently
		// re-opened with a fresh deadline is not erased by a plain store.
		if !u.openUntil.CompareAndSwap(openUntil, halfOpen) {
			return false, false
		}
		return true, true
	}
	return true, false
}

// route maps a path prefix onto a backend pool. Per-route statistics
// live in the telemetry registry (handles below), so /gateway/metrics,
// RouteMetrics, and the Prometheus /metrics exposition all read the same
// counters instead of keeping parallel private copies.
type route struct {
	prefix    string
	policy    Balancing
	upstreams []*upstream
	rr        atomic.Uint64

	// telemetry handles, resolved once at AddRoute.
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// Gateway is the HTTP entry point. Create with New, register routes with
// AddRoute, then serve. Start launches the active health checker; Stop
// shuts it down.
type Gateway struct {
	cfg Config
	clk clock.Clock

	mu     sync.RWMutex
	routes []*route

	limiter *rateLimiter
	keys    map[string]struct{}
	// transport is the gateway's own connection pool (the default
	// transport's settings), shared by every reverse proxy and the health
	// checker, so Stop can close its idle connections: a server being
	// shut down would otherwise wait out the ones dialed and never used.
	transport *http.Transport

	tel     *telemetry.Registry
	tracer  *telemetry.Tracer
	metricH http.Handler
	traceH  http.Handler
	// telemetry family handles shared across routes.
	reqVec   *telemetry.CounterVec
	errVec   *telemetry.CounterVec
	latVec   *telemetry.HistogramVec
	inFlight *telemetry.Gauge
	shed     *telemetry.Counter

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New constructs a gateway.
func New(cfg Config) *Gateway {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	telemetry.RegisterRuntimeMetrics(tel)
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = telemetry.NewTracer(1024)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	transport := &http.Transport{}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		transport = t.Clone()
	}
	g := &Gateway{
		cfg:       cfg,
		clk:       clk,
		transport: transport,
		tel:       tel,
		tracer:    tracer,
		metricH:   tel.Handler(),
		traceH:    tracer.Handler(),
		reqVec: tel.Counter("spatial_gateway_requests_total",
			"Requests handled by the gateway, per route.", "route"),
		errVec: tel.Counter("spatial_gateway_errors_total",
			"Requests that ended in a 5xx, per route.", "route"),
		latVec: tel.Histogram("spatial_gateway_request_duration_seconds",
			"Gateway request latency in seconds, per route.", nil, "route"),
		inFlight: tel.Gauge("spatial_gateway_in_flight_requests",
			"Requests currently traversing the gateway.").With(),
		shed: tel.Counter("spatial_gateway_upstream_shed_total",
			"Proxied requests an upstream shed with 429 (serving admission control); the Retry-After hint passes through to the client.").With(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if len(cfg.APIKeys) > 0 {
		g.keys = make(map[string]struct{}, len(cfg.APIKeys))
		for _, k := range cfg.APIKeys {
			g.keys[k] = struct{}{}
		}
	}
	if cfg.RatePerSecond > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(cfg.RatePerSecond)
			if burst < 1 {
				burst = 1
			}
		}
		g.limiter = newRateLimiter(cfg.RatePerSecond, burst)
		g.limiter.now = clk.Now
	}
	return g
}

// AddRoute registers a prefix route over one or more backend base URLs.
// The prefix is stripped before forwarding: /shap/explain with prefix
// /shap reaches the backend as /explain.
func (g *Gateway) AddRoute(prefix string, policy Balancing, backends ...string) error {
	if !strings.HasPrefix(prefix, "/") || prefix == "/" {
		return fmt.Errorf("gateway: invalid route prefix %q", prefix)
	}
	if len(backends) == 0 {
		return errors.New("gateway: route needs at least one backend")
	}
	if policy != RoundRobin && policy != LeastConnections {
		return fmt.Errorf("gateway: unknown balancing policy %d", policy)
	}
	cleanPrefix := strings.TrimSuffix(prefix, "/")
	rt := &route{
		prefix:   cleanPrefix,
		policy:   policy,
		requests: g.reqVec.With(cleanPrefix), //lint:ignore telemetry-cardinality route prefixes are the operator-configured -route set
		errors:   g.errVec.With(cleanPrefix), //lint:ignore telemetry-cardinality route prefixes are the operator-configured -route set
		latency:  g.latVec.With(cleanPrefix), //lint:ignore telemetry-cardinality route prefixes are the operator-configured -route set
	}
	for _, b := range backends {
		target, err := url.Parse(b)
		if err != nil {
			return fmt.Errorf("gateway: backend %q: %w", b, err)
		}
		if target.Scheme == "" || target.Host == "" {
			return fmt.Errorf("gateway: backend %q must be an absolute URL", b)
		}
		u := &upstream{target: target}
		u.healthy.Store(true) // optimistic until the first health check
		proxy := httputil.NewSingleHostReverseProxy(target)
		proxy.Transport = g.transport
		proxy.ModifyResponse = func(resp *http.Response) error {
			// The gateway already stamped X-Trace-Id on the client
			// response; drop the upstream's echo so the header is
			// not duplicated.
			resp.Header.Del(telemetry.HeaderTraceID)
			return nil
		}
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			g.onUpstreamFailure(u)
			http.Error(w, fmt.Sprintf("upstream error: %v", err), http.StatusBadGateway)
		}
		u.proxy = proxy
		rt.upstreams = append(rt.upstreams, u)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	for _, existing := range g.routes {
		if existing.prefix == rt.prefix {
			return fmt.Errorf("gateway: route %q already registered", rt.prefix)
		}
	}
	g.routes = append(g.routes, rt)
	// Longest prefix first so /explain/image wins over /explain.
	sort.Slice(g.routes, func(i, j int) bool { return len(g.routes[i].prefix) > len(g.routes[j].prefix) })
	return nil
}

// onUpstreamFailure counts one transport failure. The threshold opens the
// circuit, and any failure while it is half-open re-opens it with a fresh
// cooldown: a request that succeeded while the circuit was open may have
// reset the streak below the threshold.
func (g *Gateway) onUpstreamFailure(u *upstream) {
	if u.fails.Add(1) >= breakerThreshold || u.openUntil.Load() == halfOpen {
		u.openUntil.Store(g.clk.Now().Add(breakerCooldown).UnixNano())
	}
}

func (g *Gateway) match(path string) *route {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, rt := range g.routes {
		if strings.HasPrefix(path, rt.prefix) {
			rest := path[len(rt.prefix):]
			if rest == "" || rest[0] == '/' {
				return rt
			}
		}
	}
	return nil
}

// pick selects an available upstream per the route policy. The bool is
// true when the request is that upstream's half-open probe: a probe goes
// out whatever the policy, since an unsent one would leave the breaker
// half-open.
func (g *Gateway) pick(rt *route) (*upstream, bool) {
	now := g.clk.Now()
	candidates := make([]*upstream, 0, len(rt.upstreams))
	for _, u := range rt.upstreams {
		ok, probe := u.available(now)
		if probe {
			return u, true
		}
		if ok {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	switch rt.policy {
	case LeastConnections:
		best := candidates[0]
		for _, u := range candidates[1:] {
			if u.conns.Load() < best.conns.Load() {
				best = u
			}
		}
		return best, false
	default: // RoundRobin
		return candidates[rt.rr.Add(1)%uint64(len(candidates))], false
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Observability endpoints answer before auth and rate limiting so
	// scrapers and operators need no API key and are never shed.
	switch r.URL.Path {
	case "/gateway/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","routes":%d}`, len(g.RouteMetrics()))
		return
	case "/gateway/metrics":
		g.serveMetrics(w)
		return
	case "/metrics":
		g.metricH.ServeHTTP(w, r)
		return
	case "/traces":
		g.traceH.ServeHTTP(w, r)
		return
	}

	if g.keys != nil {
		if _, ok := g.keys[r.Header.Get("X-API-Key")]; !ok {
			http.Error(w, "invalid or missing API key", http.StatusUnauthorized)
			return
		}
	}
	if g.limiter != nil && !g.limiter.allow(clientKey(r)) {
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}

	rt := g.match(r.URL.Path)
	if rt == nil {
		http.Error(w, "no route", http.StatusNotFound)
		return
	}
	u, probe := g.pick(rt)
	if u == nil {
		http.Error(w, "no healthy upstream", http.StatusServiceUnavailable)
		return
	}
	g.forward(w, r, rt, u, probe)
}

// forward proxies one admitted request to u and accounts for it: route
// metrics, the breaker's failure streak, and one span. A probe ends the
// breaker's half-open state however it ends.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, rt *route, u *upstream, probe bool) {
	// Trace propagation: adopt the caller's trace (or mint one), then
	// hand our fresh span to the upstream as its parent so the gateway
	// hop and the service hop correlate under one trace ID.
	start := g.clk.Now()
	traceID, parentID := telemetry.Extract(r.Header)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	spanID := telemetry.NewSpanID()
	w.Header().Set(telemetry.HeaderTraceID, traceID)

	// Strip the route prefix.
	r2 := r.Clone(telemetry.ContextWithTrace(r.Context(), traceID, spanID))
	r2.URL.Path = strings.TrimPrefix(r.URL.Path, rt.prefix)
	if r2.URL.Path == "" {
		r2.URL.Path = "/"
	}
	r2.Header.Set(telemetry.HeaderTraceID, traceID)
	r2.Header.Set(telemetry.HeaderSpanID, spanID)

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	g.inFlight.Inc()
	u.conns.Add(1)
	// The accounting is deferred because ReverseProxy does not always
	// return: when the upstream dies mid-body it panics with
	// http.ErrAbortHandler so that net/http aborts the client connection.
	// The panic passes through untouched; the request is booked as an
	// upstream failure and a 502, whatever status line was already sent.
	aborted := true
	defer func() {
		u.conns.Add(-1)
		g.inFlight.Dec()
		status := rec.status
		if aborted {
			g.onUpstreamFailure(u)
			status = http.StatusBadGateway
		} else if status < 500 {
			u.fails.Store(0)
		}
		if probe {
			// Any answer closes the circuit. A failed probe has already
			// re-opened it with a fresh cooldown, which this CAS keeps.
			u.openUntil.CompareAndSwap(halfOpen, 0)
		}
		elapsed := g.clk.Since(start)
		rt.requests.Inc()
		rt.latency.Observe(elapsed.Seconds())
		if status >= 500 {
			rt.errors.Inc()
		}
		if status == http.StatusTooManyRequests {
			g.shed.Inc()
		}
		g.tracer.Record(telemetry.Span{
			TraceID:  traceID,
			SpanID:   spanID,
			ParentID: parentID,
			Service:  "gateway",
			Name:     "proxy " + rt.prefix,
			Start:    start,
			Duration: float64(elapsed.Nanoseconds()) / 1e6,
			Status:   status,
		})
	}()
	u.proxy.ServeHTTP(rec, r2)
	aborted = false
}

// Telemetry exposes the gateway's metric registry (for sharing with other
// components in the same process or scraping programmatically).
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// Tracer exposes the gateway's span ring buffer.
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return r.RemoteAddr
}

// RouteMetric is the exported per-route statistics record.
type RouteMetric struct {
	Prefix        string           `json:"prefix"`
	Requests      int64            `json:"requests"`
	Errors        int64            `json:"errors"`
	MeanLatencyMs float64          `json:"meanLatencyMs"`
	Upstreams     []UpstreamStatus `json:"upstreams"`
}

// UpstreamStatus reports one backend's health.
type UpstreamStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	BreakerOpen bool   `json:"breakerOpen"`
	InFlight    int64  `json:"inFlight"`
}

// RouteMetrics snapshots per-route statistics from the telemetry
// registry.
func (g *Gateway) RouteMetrics() []RouteMetric {
	g.mu.RLock()
	defer g.mu.RUnlock()
	now := g.clk.Now().UnixNano()
	out := make([]RouteMetric, 0, len(g.routes))
	for _, rt := range g.routes {
		m := RouteMetric{
			Prefix:   rt.prefix,
			Requests: int64(rt.requests.Value()),
			Errors:   int64(rt.errors.Value()),
		}
		if n := rt.latency.Count(); n > 0 {
			m.MeanLatencyMs = rt.latency.Sum() / float64(n) * 1e3
		}
		for _, u := range rt.upstreams {
			m.Upstreams = append(m.Upstreams, UpstreamStatus{
				URL:         u.target.String(),
				Healthy:     u.healthy.Load(),
				BreakerOpen: u.openUntil.Load() > now,
				InFlight:    u.conns.Load(),
			})
		}
		out = append(out, m)
	}
	return out
}

func (g *Gateway) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	metrics := g.RouteMetrics()
	fmt.Fprint(w, "[")
	for i, m := range metrics {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, `{"prefix":%q,"requests":%d,"errors":%d,"meanLatencyMs":%.3f}`,
			m.Prefix, m.Requests, m.Errors, m.MeanLatencyMs)
	}
	fmt.Fprint(w, "]")
}

// Start launches the active health checker. Call Stop to shut it down.
func (g *Gateway) Start() {
	if !g.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(g.done)
		ticker := g.clk.NewTicker(g.cfg.HealthInterval)
		defer ticker.Stop()
		// The probe timeout is decoupled from the probe period: under
		// CPU saturation a busy-but-healthy service can take far longer
		// than the check interval to answer /healthz, and flapping it
		// unhealthy would turn overload into an outage.
		probeTimeout := g.cfg.HealthInterval
		if probeTimeout < 3*time.Second {
			probeTimeout = 3 * time.Second
		}
		client := &http.Client{Timeout: probeTimeout, Transport: g.transport}
		for {
			select {
			case <-ticker.C():
				g.checkHealth(client)
			case <-g.stop:
				return
			}
		}
	}()
}

// Stop terminates the health checker, waits for it to exit, and closes
// the gateway's idle upstream connections. It is safe to call multiple
// times, and safe to call even if Start was never called (the health
// goroutine simply never ran).
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	if g.started.Load() {
		<-g.done
	}
	g.transport.CloseIdleConnections()
}

func (g *Gateway) checkHealth(client *http.Client) {
	g.mu.RLock()
	routes := append([]*route(nil), g.routes...)
	g.mu.RUnlock()
	for _, rt := range routes {
		for _, u := range rt.upstreams {
			resp, err := client.Get(u.target.String() + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				_ = resp.Body.Close()
			}
			u.healthy.Store(ok)
		}
	}
}

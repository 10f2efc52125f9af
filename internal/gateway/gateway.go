// Package gateway implements the micro-service API gateway SPATIAL fronts
// its metric services with (the paper deploys Kong). It provides prefix
// routing, round-robin and least-connections load balancing, active health
// checks, token-bucket rate limiting, API-key authentication, a
// per-upstream circuit breaker, and per-route request metrics and spans
// recorded by the shared telemetry middleware.
package gateway

import (
	"context"
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
	// Clock is the time source for the circuit breaker, the rate
	// limiter, and the health-check ticker; clock.Real() when nil.
	// Tests inject clock.Fake so breaker open/half-open/closed
	// transitions run on a virtual timeline instead of real sleeps.
	// Request latencies and spans are timed by the telemetry middleware,
	// on the real clock.
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

// route maps a path prefix onto a backend pool. handler picks an
// upstream and forwards to it, inside the telemetry middleware that
// counts, times and spans each request under the route's prefix.
type route struct {
	prefix    string
	policy    Balancing
	upstreams []*upstream
	rr        atomic.Uint64
	handler   http.Handler
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
	shed    *telemetry.Counter

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
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	tracer := telemetry.NewTracer(1024)
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
	rt := &route{prefix: strings.TrimSuffix(prefix, "/"), policy: policy}
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
		direct := proxy.Director
		// The Director runs on the proxy's own clone of the request, so
		// the inbound request is never mutated.
		proxy.Director = func(out *http.Request) {
			// Strip both spellings of the path, as http.StripPrefix does:
			// an escaped segment (a%2Fb) must reach the upstream escaped.
			out.URL.Path = strings.TrimPrefix(out.URL.Path, rt.prefix)
			out.URL.RawPath = strings.TrimPrefix(out.URL.RawPath, rt.prefix)
			if out.URL.Path == "" {
				out.URL.Path = "/"
			}
			direct(out)
			// The middleware's span is the upstream's parent.
			telemetry.Inject(out.Context(), out.Header)
		}
		proxy.Transport = g.transport
		proxy.BufferPool = copyBuffers{}
		proxy.ModifyResponse = func(resp *http.Response) error {
			// The gateway already stamped X-Trace-Id on the client
			// response; drop the upstream's echo so the header is
			// not duplicated.
			resp.Header.Del(telemetry.HeaderTraceID)
			if status, ok := resp.Request.Context().Value(statusKey{}).(*int); ok {
				*status = resp.StatusCode
			}
			return nil
		}
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			g.onUpstreamFailure(u)
			http.Error(w, fmt.Sprintf("upstream error: %v", err), http.StatusBadGateway)
		}
		u.proxy = proxy
		rt.upstreams = append(rt.upstreams, u)
	}
	rt.handler = telemetry.NewMiddleware(telemetry.MiddlewareConfig{
		Registry: g.tel,
		Tracer:   g.tracer,
		Service:  "gateway",
		Route:    func(*http.Request) string { return rt.prefix },
	})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, probe := g.pick(rt)
		if u == nil {
			http.Error(w, "no healthy upstream", http.StatusServiceUnavailable)
			return
		}
		g.forward(w, r, u, probe)
	}))

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
		g.mu.RLock()
		n := len(g.routes)
		g.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","routes":%d}`, n)
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
	rt.handler.ServeHTTP(w, r)
}

// copyBufferSize is httputil's own default copy buffer.
const copyBufferSize = 32 << 10

// copyBufferPool holds the response copy buffers of every gateway proxy.
// It stores array pointers, so a Put boxes nothing.
var copyBufferPool = sync.Pool{New: func() any { return new([copyBufferSize]byte) }}

// copyBuffers is the httputil.BufferPool of every gateway proxy: without
// one, ReverseProxy allocates and zeroes a fresh 32 KiB buffer for every
// response it relays.
type copyBuffers struct{}

func (copyBuffers) Get() []byte { return copyBufferPool.Get().(*[copyBufferSize]byte)[:] }

// Put takes back only what Get handed out, so the conversion cannot fail.
func (copyBuffers) Put(b []byte) { copyBufferPool.Put((*[copyBufferSize]byte)(b)) }

// statusKey carries forward's slot for the upstream's status code, in the
// outbound request's context, to the proxy's ModifyResponse.
type statusKey struct{}

// forward proxies one request to u; the route's middleware counts, times
// and spans it. forward keeps what is the gateway's own: the breaker's
// failure streak, the least-connections count and the shed counter. A
// probe ends the breaker's half-open state however it ends. r is passed
// on uncloned: the proxy makes the one outbound copy, and its Director
// strips the route prefix there.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, u *upstream, probe bool) {
	// status stays 0 when no response arrives: ErrorHandler has then
	// already booked the transport failure.
	var status int
	r2 := r.WithContext(context.WithValue(r.Context(), statusKey{}, &status))

	u.conns.Add(1)
	// The accounting is deferred because ReverseProxy does not always
	// return: when the upstream dies mid-body it panics with
	// http.ErrAbortHandler so that net/http aborts the client connection.
	// The panic passes through untouched; the request is booked as an
	// upstream failure, whatever status line was already sent.
	aborted := true
	defer func() {
		u.conns.Add(-1)
		if aborted {
			g.onUpstreamFailure(u)
		} else if status != 0 && status < 500 {
			u.fails.Store(0)
		}
		if !aborted && status == http.StatusTooManyRequests {
			g.shed.Inc()
		}
		if probe {
			// Any answer closes the circuit. A failed probe has already
			// re-opened it with a fresh cooldown, which this CAS keeps.
			u.openUntil.CompareAndSwap(halfOpen, 0)
		}
	}()
	u.proxy.ServeHTTP(w, r2)
	aborted = false
}

// Telemetry exposes the gateway's metric registry, served at /metrics.
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// Tracer exposes the gateway's span ring buffer.
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return r.RemoteAddr
}

// RouteMetric is one route's upstream state. Its request counts and
// latencies are the spatial_http_* series labelled service="gateway" and
// route=Prefix in the registry served at /metrics.
type RouteMetric struct {
	Prefix    string           `json:"prefix"`
	Upstreams []UpstreamStatus `json:"upstreams"`
}

// UpstreamStatus reports one backend's health.
type UpstreamStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	BreakerOpen bool   `json:"breakerOpen"`
	InFlight    int64  `json:"inFlight"`
}

// RouteMetrics snapshots each route's upstream state.
func (g *Gateway) RouteMetrics() []RouteMetric {
	g.mu.RLock()
	defer g.mu.RUnlock()
	now := g.clk.Now().UnixNano()
	out := make([]RouteMetric, 0, len(g.routes))
	for _, rt := range g.routes {
		m := RouteMetric{Prefix: rt.prefix}
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

package gateway

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// echoBackend returns a test server that identifies itself and echoes the
// request path.
func echoBackend(name string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		fmt.Fprintf(w, "%s:%s", name, r.URL.Path)
	}))
}

func get(t *testing.T, gw http.Handler, path string, headers map[string]string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestRoutingAndPrefixStrip(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{})
	if err := g.AddRoute("/shap", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, g, "/shap/explain", nil)
	if code != http.StatusOK || body != "svc:/explain" {
		t.Fatalf("got %d %q", code, body)
	}
	code, _ = get(t, g, "/unknown/x", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unrouted path status %d", code)
	}
	// Prefix must match on a path-segment boundary.
	code, _ = get(t, g, "/shapelike/explain", nil)
	if code != http.StatusNotFound {
		t.Fatalf("partial prefix matched: %d", code)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	b := echoBackend("b")
	defer b.Close()
	g := New(Config{})
	if err := g.AddRoute("/explain", RoundRobin, a.URL); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRoute("/explain/image", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, g, "/explain/image/run", nil)
	if body != "b:/run" {
		t.Fatalf("longest prefix not preferred: %q", body)
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	b := echoBackend("b")
	defer b.Close()
	g := New(Config{})
	if err := g.AddRoute("/svc", RoundRobin, a.URL, b.URL); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		_, body := get(t, g, "/svc/x", nil)
		counts[body[:1]]++
	}
	if counts["a"] != 5 || counts["b"] != 5 {
		t.Fatalf("round robin distribution %v", counts)
	}
}

func TestLeastConnectionsPrefersIdle(t *testing.T) {
	release := make(chan struct{})
	var slowStarted sync.WaitGroup
	slowStarted.Add(1)
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		once.Do(slowStarted.Done)
		<-release
		fmt.Fprint(w, "slow")
	}))
	defer slow.Close()
	fast := echoBackend("fast")
	defer fast.Close()

	g := New(Config{})
	if err := g.AddRoute("/svc", LeastConnections, slow.URL, fast.URL); err != nil {
		t.Fatal(err)
	}

	// Occupy the slow backend with one in-flight request.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, g, "/svc/first", nil) // least-conns: both idle, picks first (slow)
	}()
	slowStarted.Wait()

	// Now every new request must go to the idle fast backend.
	for i := 0; i < 3; i++ {
		_, body := get(t, g, "/svc/x", nil)
		if body != "fast:/x" {
			close(release)
			t.Fatalf("request %d went to %q", i, body)
		}
	}
	close(release)
	wg.Wait()
}

func TestAPIKeyAuth(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{APIKeys: []string{"secret"}})
	if err := g.AddRoute("/svc", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, g, "/svc/x", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("missing key admitted: %d", code)
	}
	code, _ = get(t, g, "/svc/x", map[string]string{"X-API-Key": "wrong"})
	if code != http.StatusUnauthorized {
		t.Fatalf("wrong key admitted: %d", code)
	}
	code, _ = get(t, g, "/svc/x", map[string]string{"X-API-Key": "secret"})
	if code != http.StatusOK {
		t.Fatalf("valid key rejected: %d", code)
	}
}

func TestRateLimiting(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{RatePerSecond: 1, Burst: 2})
	if err := g.AddRoute("/svc", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	codes := make([]int, 4)
	for i := range codes {
		codes[i], _ = get(t, g, "/svc/x", nil)
	}
	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third request admitted past burst: %v", codes)
	}
}

func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(10, 1)
	now := time.Now()
	l.now = func() time.Time { return now }
	if !l.allow("k") {
		t.Fatal("first request should pass")
	}
	if l.allow("k") {
		t.Fatal("bucket should be empty")
	}
	now = now.Add(150 * time.Millisecond) // refills 1.5 tokens, capped at 1
	if !l.allow("k") {
		t.Fatal("refilled token not granted")
	}
	if l.allow("k") {
		t.Fatal("cap exceeded")
	}
}

func TestRateLimiterIsolatesClients(t *testing.T) {
	l := newRateLimiter(1, 1)
	if !l.allow("a") || !l.allow("b") {
		t.Fatal("independent clients share a bucket")
	}
}

func TestHealthCheckRemovesDeadUpstream(t *testing.T) {
	alive := echoBackend("alive")
	defer alive.Close()
	dead := echoBackend("dead")
	deadURL := dead.URL
	dead.Close() // kill it immediately

	g := New(Config{HealthInterval: 20 * time.Millisecond})
	if err := g.AddRoute("/svc", RoundRobin, alive.URL, deadURL); err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for {
		ms := g.RouteMetrics()
		if !ms[0].Upstreams[1].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead upstream never marked unhealthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		code, body := get(t, g, "/svc/x", nil)
		if code != http.StatusOK || body != "alive:/x" {
			t.Fatalf("request hit dead upstream: %d %q", code, body)
		}
	}
}

func TestCircuitBreakerOpens(t *testing.T) {
	var calls atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // abort mid-response -> proxy error
		}
	}))
	defer failing.Close()

	g := New(Config{Clock: clock.NewFake(time.Unix(1700000000, 0))})
	if err := g.AddRoute("/svc", RoundRobin, failing.URL); err != nil {
		t.Fatal(err)
	}
	// breakerThreshold failures open the breaker.
	for i := 0; i < breakerThreshold; i++ {
		code, _ := get(t, g, "/svc/x", nil)
		if code != http.StatusBadGateway {
			t.Fatalf("expected 502, got %d", code)
		}
	}
	before := calls.Load()
	code, _ := get(t, g, "/svc/x", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breaker did not open: %d", code)
	}
	if calls.Load() != before {
		t.Fatal("request reached upstream through open breaker")
	}
}

func TestGatewayMetricsEndpoint(t *testing.T) {
	b := echoBackend("svc")
	defer b.Close()
	g := New(Config{})
	if err := g.AddRoute("/svc", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	get(t, g, "/svc/x", nil)
	code, body := get(t, g, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %q", code, body)
	}
	if want := `spatial_http_requests_total{service="gateway",route="/svc",method="GET",code="2xx"} 1`; !strings.Contains(body, want) {
		t.Fatalf("metrics missing %q:\n%s", want, body)
	}
	if strings.Contains(body, `code="5xx"`) {
		t.Fatalf("metrics count an error:\n%s", body)
	}
	code, body = get(t, g, "/gateway/healthz", nil)
	if code != http.StatusOK || body != `{"status":"ok","routes":1}` {
		t.Fatalf("gateway healthz %d %q", code, body)
	}
}

func TestAddRouteValidation(t *testing.T) {
	g := New(Config{})
	if err := g.AddRoute("bad", RoundRobin, "http://x"); err == nil {
		t.Fatal("expected prefix error")
	}
	if err := g.AddRoute("/a", RoundRobin); err == nil {
		t.Fatal("expected backend error")
	}
	if err := g.AddRoute("/a", Balancing(99), "http://x"); err == nil {
		t.Fatal("expected policy error")
	}
	if err := g.AddRoute("/a", RoundRobin, "relative/url"); err == nil {
		t.Fatal("expected absolute-URL error")
	}
	if err := g.AddRoute("/a", RoundRobin, "http://x"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRoute("/a", RoundRobin, "http://y"); err == nil {
		t.Fatal("expected duplicate-route error")
	}
}

func TestStopWithoutStart(t *testing.T) {
	g := New(Config{})
	done := make(chan struct{})
	go func() {
		g.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hangs")
	}
}

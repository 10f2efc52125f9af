package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// TestCircuitBreakerHalfOpenRecovery: after the cooldown the breaker lets
// a probe request through; a success closes the circuit again. The
// cooldown passes on a fake clock.
func TestCircuitBreakerHalfOpenRecovery(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		if failing.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	g := New(Config{Clock: fake})
	if err := g.AddRoute("/svc", RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}

	// Trip the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusBadGateway {
			t.Fatalf("expected 502, got %d", code)
		}
	}
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("breaker not open: %d", code)
	}

	// Heal the backend; after the cooldown the probe succeeds and the
	// circuit closes.
	failing.Store(false)
	fake.Advance(breakerCooldown)
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusOK {
		t.Fatalf("half-open probe failed: %d", code)
	}
	// Fully closed: subsequent requests flow.
	for i := 0; i < 3; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusOK {
			t.Fatalf("post-recovery request %d failed: %d", i, code)
		}
	}
}

// TestCircuitBreakerReopensAfterFailedProbe: a failing probe during
// half-open re-opens the circuit immediately. The cooldown passes on a
// fake clock.
func TestCircuitBreakerReopensAfterFailedProbe(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer backend.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	g := New(Config{Clock: fake})
	if err := g.AddRoute("/svc", RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerThreshold; i++ {
		get(t, g, "/svc/x", nil)
	}
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("breaker not open: %d", code)
	}
	fake.Advance(breakerCooldown)
	// Probe goes through to the (still broken) upstream -> 502 and the
	// breaker re-opens at once (threshold already primed).
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusBadGateway {
		t.Fatalf("expected probe 502, got %d", code)
	}
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("breaker should re-open after failed probe: %d", code)
	}
}

// TestUpstreamAbortMidBodyIsAccounted: an upstream that dies after the
// status line makes ReverseProxy panic with http.ErrAbortHandler instead
// of returning. Behind a real server the request must still leave the
// in-flight counts, be counted, and feed the breaker.
func TestUpstreamAbortMidBodyIsAccounted(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		// Promise 100 bytes, deliver 5.
		if _, err := buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello"); err != nil {
			t.Error(err)
		}
		if err := buf.Flush(); err != nil {
			t.Error(err)
		}
	}))
	defer backend.Close()

	// On a fake clock the breaker cannot close again before the last
	// request below, however slow the machine.
	const threshold = breakerThreshold
	g := New(Config{Clock: clock.NewFake(time.Unix(1700000000, 0))})
	if err := g.AddRoute("/svc", LeastConnections, backend.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g)
	defer front.Close()
	defer g.Stop()

	for i := 0; i < threshold; i++ {
		resp, err := http.Get(front.URL + "/svc/x")
		if err != nil {
			continue // the abort may land before the client has the headers
		}
		// The connection is torn down only after the handler has unwound,
		// so the read returns once the gateway's accounting has run.
		if body, err := io.ReadAll(resp.Body); err == nil {
			t.Fatalf("request %d: truncated upstream body delivered as complete: %q", i, body)
		}
		resp.Body.Close()
	}

	if v := g.Telemetry().Gauge(telemetry.FamInFlight, "", "service").With("gateway").Value(); v != 0 {
		t.Errorf("in-flight gauge = %v after %d aborted requests, want 0", v, threshold)
	}
	if requests, errors := routeRequests(g, "/svc"); requests != threshold || errors != threshold {
		t.Errorf("requests = %v, errors = %v, want %d each", requests, errors, threshold)
	}
	up := g.RouteMetrics()[0].Upstreams[0]
	if up.InFlight != 0 {
		t.Errorf("upstream in-flight = %d, want 0", up.InFlight)
	}
	if !up.BreakerOpen {
		t.Errorf("breaker closed after %d consecutive aborts", threshold)
	}
	resp, err := http.Get(front.URL + "/svc/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request past an open breaker: status %d, want 503", resp.StatusCode)
	}
}

// routeRequests sums the gateway's request counter for one route: every
// status class, and the 5xx class alone.
func routeRequests(g *Gateway, prefix string) (requests, errors float64) {
	for _, fam := range g.Telemetry().Gather() {
		if fam.Name != telemetry.FamRequests {
			continue
		}
		for _, se := range fam.Series {
			var route, code string
			for _, l := range se.Labels {
				switch l.Name {
				case "route":
					route = l.Value
				case "code":
					code = l.Value
				}
			}
			if route != prefix {
				continue
			}
			requests += se.Value
			if code == "5xx" {
				errors += se.Value
			}
		}
	}
	return requests, errors
}

// TestCircuitBreakerHalfOpenAdmitsOneProbe: past the cooldown exactly one
// request probes the upstream. Callers that arrive while the probe is in
// flight are refused with 503 and never reach the upstream; the probe's
// answer closes the circuit. The cooldown passes on a fake clock.
func TestCircuitBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	probeIn := make(chan struct{})
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		// The first request to reach the healed upstream is held until
		// the test releases it.
		if hits.Add(1) == 1 {
			close(probeIn)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	releaseProbe := sync.OnceFunc(func() { close(release) })
	defer releaseProbe()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	g := New(Config{Clock: fake})
	if err := g.AddRoute("/svc", RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerThreshold; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusBadGateway {
			t.Fatalf("expected 502, got %d", code)
		}
	}
	failing.Store(false)
	fake.Advance(breakerCooldown)

	// serve is get without t, for use off the test goroutine.
	serve := func() int {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/svc/x", nil))
		return rec.Code
	}
	probe := make(chan int, 1)
	go func() { probe <- serve() }()
	<-probeIn

	const behind = 8
	codes := make(chan int, behind)
	var wg sync.WaitGroup
	for i := 0; i < behind; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- serve()
		}()
	}
	wg.Wait()
	close(codes)
	refused := 0
	for code := range codes {
		if code == http.StatusServiceUnavailable {
			refused++
		}
	}
	if n := hits.Load(); n != 1 || refused != behind {
		t.Fatalf("half-open: %d upstream hits (want 1), %d of %d callers refused with 503", n, refused, behind)
	}

	releaseProbe()
	if code := <-probe; code != http.StatusOK {
		t.Fatalf("probe: expected 200, got %d", code)
	}
	for i := 0; i < 3; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusOK {
			t.Fatalf("post-probe request %d: expected 200, got %d", i, code)
		}
	}
	if n := hits.Load(); n != 4 {
		t.Fatalf("upstream hits after close: %d, want 4", n)
	}
}

// TestCircuitBreakerAbortedProbeReopens: a probe whose upstream dies
// mid-body (ReverseProxy panics with http.ErrAbortHandler) re-opens the
// circuit for a full fresh cooldown, after which the next probe goes
// through: the breaker is never left half-open.
func TestCircuitBreakerAbortedProbeReopens(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		hits.Add(1)
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		// Promise 100 bytes, deliver 5.
		if _, err := buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello"); err != nil {
			t.Error(err)
		}
		if err := buf.Flush(); err != nil {
			t.Error(err)
		}
	}))
	defer backend.Close()

	fake := clock.NewFake(time.Unix(1700000000, 0))
	g := New(Config{Clock: fake})
	if err := g.AddRoute("/svc", RoundRobin, backend.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g)
	defer front.Close()
	defer g.Stop()

	// send issues one request and reads the body to its end, so the
	// gateway's accounting has run when it returns.
	send := func() int {
		resp, err := http.Get(front.URL + "/svc/x")
		if err != nil {
			return 0 // the abort may land before the client has the headers
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		return resp.StatusCode
	}
	for i := 0; i < breakerThreshold; i++ {
		send()
	}
	if code := send(); code != http.StatusServiceUnavailable {
		t.Fatalf("breaker not open: %d", code)
	}

	// Each round's probe re-opens the circuit, so the next round's probe
	// is due one nanosecond after the 503 check.
	wait := breakerCooldown
	for round := 0; round < 2; round++ {
		fake.Advance(wait)
		before := hits.Load()
		send() // the probe, aborted mid-body
		if n := hits.Load() - before; n != 1 {
			t.Fatalf("round %d: probe reached the upstream %d times, want 1", round, n)
		}
		fake.Advance(breakerCooldown - time.Nanosecond)
		if code := send(); code != http.StatusServiceUnavailable {
			t.Fatalf("round %d: within the fresh cooldown: got %d, want 503", round, code)
		}
		if n := hits.Load() - before; n != 1 {
			t.Fatalf("round %d: request reached the upstream through the re-opened breaker", round)
		}
		wait = time.Nanosecond
	}
}

package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
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

	if v := g.inFlight.Value(); v != 0 {
		t.Errorf("in-flight gauge = %v after %d aborted requests, want 0", v, threshold)
	}
	rm := g.RouteMetrics()[0]
	if rm.Requests != threshold || rm.Errors != threshold {
		t.Errorf("requests = %d, errors = %d, want %d each", rm.Requests, rm.Errors, threshold)
	}
	up := rm.Upstreams[0]
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

package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/scenario"
)

// TestCircuitBreakerChaosRecoveryFakeClock walks the breaker through a
// full open → half-open → closed cycle with the chaos proxy injecting
// connection resets between the gateway and the upstream, entirely on a
// fake clock: no sleeps, and the measured recovery time is an exact
// virtual-time number instead of a scheduler-dependent estimate.
func TestCircuitBreakerChaosRecoveryFakeClock(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	fake := clock.NewFake(time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC))
	chaos, err := scenario.NewChaosProxy(backend.URL, fake, 1)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(chaos)
	defer proxy.Close()

	const (
		threshold = breakerThreshold
		cooldown  = breakerCooldown
	)
	g := New(Config{Clock: fake})
	if err := g.AddRoute("/svc", RoundRobin, proxy.URL); err != nil {
		t.Fatal(err)
	}

	// Healthy pass-through before any fault.
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusOK {
		t.Fatalf("clean request: expected 200, got %d", code)
	}

	// Error-burst faults surface as upstream 5xx but must NOT trip the
	// breaker: the upstream answered, so the transport is fine and
	// opening the circuit would amplify an application error into an
	// outage.
	chaos.SetFault(&scenario.Fault{Kind: scenario.FaultErrorBurst, Code: http.StatusServiceUnavailable})
	for i := 0; i < 2*threshold; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
			t.Fatalf("error burst request %d: expected 503, got %d", i, code)
		}
	}

	// Connection resets are transport failures: threshold of them opens
	// the circuit.
	chaos.SetFault(&scenario.Fault{Kind: scenario.FaultReset})
	for i := 0; i < threshold; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusBadGateway {
			t.Fatalf("reset request %d: expected 502, got %d", i, code)
		}
	}
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("breaker should be open: got %d", code)
	}
	if !breakerOpen(g) {
		t.Fatal("RouteMetrics should report the breaker open")
	}

	// Fault clears; the clock marks the moment recovery starts.
	chaos.SetFault(nil)
	faultCleared := fake.Now()

	// Mid-cooldown the circuit still rejects without probing.
	fake.Advance(cooldown - time.Second)
	if code, _ := get(t, g, "/svc/x", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("mid-cooldown: expected 503, got %d", code)
	}

	// Past the cooldown: half-open lets one probe through; it succeeds
	// and closes the circuit.
	fake.Advance(2 * time.Second)
	code, _ := get(t, g, "/svc/x", nil)
	if code != http.StatusOK {
		t.Fatalf("half-open probe: expected 200, got %d", code)
	}
	recovery := fake.Now().Sub(faultCleared)
	if want := cooldown + time.Second; recovery != want {
		t.Fatalf("virtual recovery time: got %v, want %v", recovery, want)
	}
	if breakerOpen(g) {
		t.Fatal("RouteMetrics should report the breaker closed after the probe")
	}

	// Closed for good: a sub-threshold blip does not reopen it.
	for i := 0; i < 3; i++ {
		if code, _ := get(t, g, "/svc/x", nil); code != http.StatusOK {
			t.Fatalf("post-recovery request %d: expected 200, got %d", i, code)
		}
	}
	stats := chaos.Stats()
	// >= threshold, not ==: net/http retries an idempotent request once
	// when a reused connection dies, so one gateway-visible failure can
	// cost two chaos-visible resets.
	if stats.Reset < threshold || stats.Errored != 2*threshold {
		t.Fatalf("chaos stats: got %+v", stats)
	}
}

// breakerOpen reports whether any upstream of any route has an open
// breaker per RouteMetrics.
func breakerOpen(g *Gateway) bool {
	for _, m := range g.RouteMetrics() {
		for _, u := range m.Upstreams {
			if u.BreakerOpen {
				return true
			}
		}
	}
	return false
}

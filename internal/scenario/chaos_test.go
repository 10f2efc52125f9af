package scenario

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestChaosProxyFaultKinds(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer backend.Close()

	chaos, err := NewChaosProxy(backend.URL, clock.Real(), 42)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(chaos)
	defer front.Close()

	get := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, front.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		return front.Client().Do(req)
	}

	// No fault: pass-through.
	resp, err := get()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pass-through: resp=%v err=%v", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("pass-through body: %q", body)
	}

	// Error burst at rate 1 answers without the upstream.
	chaos.SetFault(&Fault{Kind: FaultErrorBurst, Code: http.StatusBadGateway})
	resp, err = get()
	if err != nil || resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("error burst: resp=%v err=%v", resp, err)
	}
	_ = resp.Body.Close()

	// Reset aborts the connection: the client sees a transport error.
	chaos.SetFault(&Fault{Kind: FaultReset})
	if resp, err := get(); err == nil {
		_ = resp.Body.Close()
		t.Fatal("reset: expected transport error")
	}

	// Down refuses everything regardless of rate.
	chaos.SetFault(&Fault{Kind: FaultDown, Rate: 0.000001})
	if resp, err := get(); err == nil {
		_ = resp.Body.Close()
		t.Fatal("down: expected transport error")
	}

	// Clearing restores pass-through.
	chaos.SetFault(nil)
	resp, err = get()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cleared: resp=%v err=%v", resp, err)
	}
	_ = resp.Body.Close()

	st := chaos.Stats()
	if st.Errored != 1 || st.Reset != 2 || st.Passed < 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestChaosProxyLatencyFault(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	chaos, err := NewChaosProxy(backend.URL, clock.Real(), 7)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(chaos)
	defer front.Close()

	chaos.SetFault(&Fault{Kind: FaultLatency, Latency: Duration(30 * time.Millisecond)})
	start := time.Now()
	resp, err := front.Client().Get(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("latency fault not applied: %v", elapsed)
	}
	if st := chaos.Stats(); st.Delayed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestChaosDeterministicDecisions(t *testing.T) {
	roll := func() []decision {
		core := newChaosCore(11)
		core.SetFault(&Fault{Kind: FaultErrorBurst, Rate: 0.5})
		out := make([]decision, 40)
		for i := range out {
			out[i] = core.decide()
		}
		return out
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNewChaosProxyRejectsBadTarget(t *testing.T) {
	if _, err := NewChaosProxy("not-a-url", clock.Real(), 1); err == nil {
		t.Fatal("relative target accepted")
	}
	if _, err := NewChaosProxy("://", clock.Real(), 1); err == nil {
		t.Fatal("garbage target accepted")
	}
}

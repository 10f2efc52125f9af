package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// ErrInjectedReset is the error the virtual targets return for
// FaultReset/FaultDown decisions — the in-process stand-in for a TCP RST.
var ErrInjectedReset = errors.New("scenario: injected connection reset")

// ChaosStats counts what the fault engine did to each request: Delayed,
// Errored, Reset and Passed partition the requests it decided. A request
// the stack itself shed (429) was passed by the engine.
type ChaosStats struct {
	Delayed int64 `json:"delayed"`
	Errored int64 `json:"errored"`
	Reset   int64 `json:"reset"`
	Passed  int64 `json:"passed"`
	// Rerouted counts requests the virtual cluster served off their
	// shard owner after a replica kill (zero for single-target runs).
	Rerouted int64 `json:"rerouted"`
}

// chaosCore is the one fault decision engine, shared by the chaos proxy
// (live mode) and the virtual target (virtual mode): a settable Fault plus
// a seeded RNG so a fixed seed reproduces the same per-request decisions.
// Its counters partition the requests it decided: each is passed,
// delayed, errored or reset, exactly once.
type chaosCore struct {
	mu    sync.Mutex
	fault *Fault
	rng   *rand.Rand

	delayed atomic.Int64
	errored atomic.Int64
	reset   atomic.Int64
	passed  atomic.Int64
}

func newChaosCore(seed int64) *chaosCore {
	return &chaosCore{rng: rand.New(rand.NewSource(seed))}
}

// SetFault installs (or, with nil, clears) the active fault. The
// executor calls this at phase boundaries.
func (c *chaosCore) SetFault(f *Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f == nil {
		c.fault = nil
		return
	}
	cp := *f
	c.fault = &cp
}

// Stats snapshots the injection counters.
func (c *chaosCore) Stats() ChaosStats {
	return ChaosStats{
		Delayed: c.delayed.Load(),
		Errored: c.errored.Load(),
		Reset:   c.reset.Load(),
		Passed:  c.passed.Load(),
	}
}

// decision is the resolved fate of one request.
type decision struct {
	delay time.Duration
	code  int  // > 0: answer with this status
	reset bool // abort the connection
}

// decide rolls the installed fault for one request.
func (c *chaosCore) decide() decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fault
	if f == nil {
		c.passed.Add(1)
		return decision{}
	}
	if f.Kind == FaultDown {
		// A downed service refuses everything, no roll.
		c.reset.Add(1)
		return decision{reset: true}
	}
	if c.rng.Float64() >= f.rate() {
		c.passed.Add(1)
		return decision{}
	}
	switch f.Kind {
	case FaultLatency:
		d := f.Latency.D()
		if j := f.Jitter.D(); j > 0 {
			d += time.Duration(c.rng.Int63n(int64(2*j))) - j
		}
		if d < 0 {
			d = 0
		}
		c.delayed.Add(1)
		return decision{delay: d}
	case FaultErrorBurst:
		code := f.Code
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		c.errored.Add(1)
		return decision{code: code}
	case FaultReset:
		c.reset.Add(1)
		return decision{reset: true}
	default:
		c.passed.Add(1)
		return decision{}
	}
}

// ChaosProxy is the in-process misbehaving-upstream proxy inserted
// between the gateway and a service: it forwards requests to the target
// untouched until a Fault is installed, then injects latency, error
// bursts, connection resets, or a full outage without the upstream's
// cooperation. It is an http.Handler — mount it on a listener and point
// the gateway route at that listener instead of the service.
type ChaosProxy struct {
	*chaosCore
	clk   clock.Clock
	proxy *httputil.ReverseProxy
}

// NewChaosProxy builds a proxy forwarding to the target base URL. The
// clock paces injected latency (tests pass clock.Fake); seed fixes the
// per-request fault rolls.
func NewChaosProxy(target string, clk clock.Clock, seed int64) (*ChaosProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("scenario: chaos target %q: %w", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("scenario: chaos target %q must be an absolute URL", target)
	}
	if clk == nil {
		clk = clock.Real()
	}
	return &ChaosProxy{
		chaosCore: newChaosCore(seed),
		clk:       clk,
		proxy:     httputil.NewSingleHostReverseProxy(u),
	}, nil
}

// ServeHTTP applies the active fault, then (unless the request was
// consumed by it) forwards to the target.
func (p *ChaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := p.decide()
	if d.reset {
		// http.ErrAbortHandler makes net/http drop the connection
		// without a response — the closest in-process stand-in for a
		// mid-flight TCP reset; the gateway's reverse proxy sees a
		// transport error and feeds its circuit breaker.
		panic(http.ErrAbortHandler)
	}
	if d.delay > 0 {
		select {
		case <-p.clk.After(d.delay):
		case <-r.Context().Done():
			return
		}
	}
	if d.code > 0 {
		http.Error(w, "injected fault", d.code)
		return
	}
	p.proxy.ServeHTTP(w, r)
}

package scenario

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrInjectedReset is the virtual cluster's answer when every replica is
// down — the in-process stand-in for a refused connection.
var ErrInjectedReset = errors.New("scenario: injected connection reset")

// ChaosStats counts what the fault engine did to each request: Delayed,
// Errored, Reset and Passed partition the requests. Reset counts the
// requests a virtual cluster refused with every replica down. A request
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

// chaosCore is the fault decision engine of the virtual targets: a
// settable latency or error-burst Fault plus a seeded RNG so a fixed seed
// reproduces the same per-request decisions. Its counters partition the
// requests it decided: each is passed, delayed or errored, exactly once.
type chaosCore struct {
	mu    sync.Mutex
	fault *Fault
	rng   *rand.Rand
	stats ChaosStats
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// decision is the resolved fate of one request.
type decision struct {
	delay   time.Duration
	errored bool // answer with 503
}

// decide rolls the installed fault for one request.
func (c *chaosCore) decide() decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fault
	if f == nil || c.rng.Float64() >= f.Rate {
		c.stats.Passed++
		return decision{}
	}
	if f.Kind == FaultErrorBurst {
		c.stats.Errored++
		return decision{errored: true}
	}
	d := f.Latency
	if j := f.Jitter; j > 0 {
		d += time.Duration(c.rng.Int63n(int64(2*j))) - j
	}
	c.stats.Delayed++
	return decision{delay: max(d, 0)}
}

package scenario

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"
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

// chaosCore is the fault decision engine of the virtual targets: a
// settable Fault plus a seeded RNG so a fixed seed reproduces the same
// per-request decisions. Its counters partition the requests it decided:
// each is passed, delayed, errored or reset, exactly once.
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
	delay time.Duration
	code  int  // > 0: answer with this status
	reset bool // fail as a connection reset
}

// decide rolls the installed fault for one request.
func (c *chaosCore) decide() decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fault
	if f == nil {
		c.stats.Passed++
		return decision{}
	}
	if f.Kind == FaultDown {
		// A downed service refuses everything, no roll.
		c.stats.Reset++
		return decision{reset: true}
	}
	if c.rng.Float64() >= f.rate() {
		c.stats.Passed++
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
		c.stats.Delayed++
		return decision{delay: d}
	case FaultErrorBurst:
		code := f.Code
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		c.stats.Errored++
		return decision{code: code}
	case FaultReset:
		c.stats.Reset++
		return decision{reset: true}
	default:
		c.stats.Passed++
		return decision{}
	}
}

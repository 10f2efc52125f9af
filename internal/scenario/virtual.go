package scenario

import (
	"math"
	"net/http"
	"time"

	"repro/internal/loadgen"
)

// The virtual service model's constants: the unloaded latency and the
// admission watermark past which offered load is shed with 429s while
// served latency stays flat.
const (
	virtualBase     = 20 * time.Millisecond
	virtualCapacity = 150.0
)

// virtualTarget is one replica's deterministic service model: the fault
// engine (chaosCore) in front of a closed-form latency/shedding curve
// standing in for the gateway + serving stack.
// Under clock.Fake with a fixed seed every Sample sequence — latencies,
// sheds, injected faults — reproduces bit-for-bit, which is what makes
// scorecards byte-identical across runs.
type virtualTarget struct {
	*chaosCore
}

// newVirtualTarget builds the model with the given seed.
func newVirtualTarget(seed int64) *virtualTarget {
	return &virtualTarget{newChaosCore(seed)}
}

// Sample resolves one request at the given offered load. The installed
// fault decides first: an error burst answers 503, a delay adds to the
// modelled latency. The latency curve is base · (1 + 4·util³) up to the
// watermark; past it, admission control sheds the excess fraction with
// 429s and served latency stays clamped at 5·base — the "flat latency,
// rising sheds" signature a healthy overloaded stack shows (a collapsing
// one would instead explode the percentiles).
func (v *virtualTarget) Sample(offeredRPS float64) (time.Duration, error) {
	d := v.decide()
	if d.errored {
		return virtualBase / 2, &loadgen.StatusError{Code: http.StatusServiceUnavailable}
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	util := offeredRPS / virtualCapacity
	if util > 1 {
		// Shed the excess fraction: P(shed) = 1 - 1/util keeps the
		// served rate at the watermark.
		if v.rng.Float64() < 1-1/util {
			return virtualBase / 4, &loadgen.StatusError{Code: http.StatusTooManyRequests}
		}
		util = 1.25 // served requests run at the clamped overload point
	}
	factor := min(1+4*util*util*util, 9)
	lat := time.Duration(float64(virtualBase) * factor * math.Exp(0.05*v.rng.NormFloat64()))
	return lat + d.delay, nil
}

package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/loadgen"
	"repro/internal/sensor"
	"repro/internal/telemetry"
)

// FaultInjector installs each phase's fault and counts what it did: the
// chaos proxy in live mode, the virtual target or cluster in virtual mode.
type FaultInjector interface {
	// SetFault installs (or clears, with nil) the phase fault.
	SetFault(*Fault)
	// Stats snapshots the injection counters.
	Stats() ChaosStats
}

// VirtualSampler is the deterministic service model a virtual run drives:
// the single closed-form VirtualTarget or the sharded VirtualCluster.
type VirtualSampler interface {
	FaultInjector
	// Sample resolves one request at the given offered load.
	Sample(offeredRPS float64) (time.Duration, error)
}

// liveMaxInFlight bounds live-mode in-flight requests.
const liveMaxInFlight = 64

// ErrLiveCluster is Run's refusal of a scenario with a Cluster spec in
// live mode: the live stack has no replica tier for its faults to fail.
var ErrLiveCluster = errors.New("live mode cannot fail replicas; run the cluster scenario virtually")

// Env wires a scenario run to its world. Exactly one of Virtual and
// Sampler must be set: Virtual runs the deterministic service model
// (requires clock.Fake — the executor owns the timeline), Sampler drives
// real requests (an HTTPSampler through the chaos-proxied client against
// the live stack).
type Env struct {
	// Clock paces the timeline; clock.Real() when nil. A *clock.Fake is
	// advanced tick-by-tick by the executor itself.
	Clock clock.Clock
	// Virtual is the deterministic target of smoke runs: a
	// *VirtualTarget or, for sharded scenarios, a *VirtualCluster.
	Virtual VirtualSampler
	// Sampler is the live-mode target.
	Sampler loadgen.Sampler
	// Injector receives each phase's fault; defaults to Virtual. In
	// live mode pass the ChaosProxy.
	Injector FaultInjector
	// Stream, when set, emits (possibly adversarial) data batches on
	// the sensor cadence.
	Stream *Stream
	// Sensors, when set, is polled synchronously on the sensor cadence
	// (CollectOnce, never Start) so readings land on the scenario
	// timeline even under the fake clock. Its clock must be Env.Clock.
	Sensors *sensor.Manager
	// Telemetry, when set, receives scenario progress metrics and is
	// snapshotted into the record at the end of the run.
	Telemetry *telemetry.Registry
}

// PhaseMark records one executed phase's window on the run timeline.
type PhaseMark struct {
	Name        string       `json:"name"`
	Start       time.Time    `json:"start"`
	End         time.Time    `json:"end"`
	Fault       *Fault       `json:"fault,omitempty"`
	Adversarial *Adversarial `json:"adversarial,omitempty"`
}

// Record is everything a run produced; Score reduces it to a Scorecard.
type Record struct {
	Scenario Scenario
	Start    time.Time
	End      time.Time
	Results  *loadgen.Results
	Readings []sensor.Reading
	Marks    []PhaseMark
	// Chaos is what the injector did to each request (see ChaosStats).
	Chaos ChaosStats
	// SensorErrors counts failed collections (they do not abort a run).
	SensorErrors int
	// Families is the telemetry snapshot taken at run end (nil without
	// Env.Telemetry); the scorer mines it for stack-side counters such
	// as the gateway shed total.
	Families []telemetry.Family
}

// runMetrics are the executor's own telemetry handles.
type runMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	phase    *telemetry.Gauge
}

func newRunMetrics(reg *telemetry.Registry, scenarioName string) *runMetrics {
	return &runMetrics{
		requests: reg.Counter("spatial_scenario_requests_total",
			"Requests issued by the scenario executor.", "scenario").With(scenarioName), //lint:ignore telemetry-cardinality scenario names are the bounded registered library
		errors: reg.Counter("spatial_scenario_errors_total",
			"Scenario requests that failed (including sheds).", "scenario").With(scenarioName), //lint:ignore telemetry-cardinality scenario names are the bounded registered library
		phase: reg.Gauge("spatial_scenario_phase",
			"Index of the phase the executor is in, per scenario.", "scenario").With(scenarioName), //lint:ignore telemetry-cardinality scenario names are the bounded registered library
	}
}

// Run executes the scenario timeline against the environment and returns
// the full run record. Under clock.Fake the virtual timeline is advanced
// by the executor, so a 30-second scenario completes in milliseconds and
// two runs with the same seed produce identical records.
func Run(ctx context.Context, sc Scenario, env Env) (*Record, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	clk := env.Clock
	if clk == nil {
		clk = clock.Real()
	}
	fake, isFake := clk.(*clock.Fake)
	if (env.Virtual == nil) == (env.Sampler == nil) {
		return nil, fmt.Errorf("scenario: set exactly one of Env.Virtual and Env.Sampler")
	}
	if env.Virtual != nil && !isFake {
		return nil, fmt.Errorf("scenario: the virtual target requires clock.Fake (the executor owns the timeline)")
	}
	if env.Virtual == nil && sc.Cluster != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, ErrLiveCluster)
	}
	injector := env.Injector
	if injector == nil && env.Virtual != nil {
		injector = env.Virtual
	}
	var met *runMetrics
	if env.Telemetry != nil {
		met = newRunMetrics(env.Telemetry, sc.Name)
	}

	var sensorNames []string
	if env.Sensors != nil {
		sensorNames = env.Sensors.Names()
		sort.Strings(sensorNames)
	}

	rng := rand.New(rand.NewSource(sc.Seed))
	tick := sc.tick()
	sensorEvery := sc.sensorEvery()

	rec := &Record{Scenario: sc, Start: clk.Now()}
	// Virtual mode appends to inline; live-mode goroutines append to
	// spawned under mu. Separate slices, merged at the end, so neither
	// path aliases the other's backing array.
	var (
		mu      sync.Mutex
		inline  []loadgen.Sample
		spawned []loadgen.Sample
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, liveMaxInFlight)
	nextSensor := rec.Start.Add(sensorEvery)

	for pi, phase := range sc.Phases {
		if ctx.Err() != nil {
			break
		}
		if met != nil {
			met.phase.Set(float64(pi))
		}
		if injector != nil {
			injector.SetFault(phase.Fault)
		}
		mark := PhaseMark{
			Name:        phase.Name,
			Start:       clk.Now(),
			Fault:       phase.Fault,
			Adversarial: phase.Adversarial,
		}
		phaseDur := phase.Duration.D()
		acc := 0.0
		for elapsed := time.Duration(0); elapsed < phaseDur; elapsed += tick {
			if ctx.Err() != nil {
				break
			}
			// One uniform draw per tick keeps the seed stream aligned
			// across shapes; only heavy-tail consumes it.
			burstU := rng.Float64()
			rps := phase.Shape.RPS(elapsed, phaseDur, burstU)
			acc += rps * tick.Seconds()
			n := int(acc)
			acc -= float64(n)
			tickStart := clk.Now()

			if env.Virtual != nil {
				for i := 0; i < n; i++ {
					lat, err := env.Virtual.Sample(rps)
					s := loadgen.Sample{
						// Spread arrivals across the tick so SLO
						// windows see a smooth series.
						Start:   tickStart.Add(time.Duration(i) * tick / time.Duration(n)),
						Latency: lat,
						Err:     err,
					}
					inline = append(inline, s)
					if met != nil {
						met.requests.Inc()
						if err != nil {
							met.errors.Inc()
						}
					}
				}
			} else {
				for i := 0; i < n; i++ {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
					}
					if ctx.Err() != nil {
						break
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						s := loadgen.Sample{
							Start:   clk.Now(),
							TraceID: telemetry.NewTraceID(),
						}
						s.Err = env.Sampler.Sample(telemetry.ContextWithTrace(ctx, s.TraceID, ""))
						s.Latency = clk.Since(s.Start)
						mu.Lock()
						spawned = append(spawned, s)
						mu.Unlock()
						if met != nil {
							met.requests.Inc()
							if s.Err != nil {
								met.errors.Inc()
							}
						}
					}()
				}
			}

			// Sensor cadence: emit the next stream batch, then poll the
			// sensors synchronously so readings carry this timeline's
			// timestamps.
			tickEnd := tickStart.Add(tick)
			for !nextSensor.After(tickEnd) {
				progress := float64(elapsed+tick) / float64(phaseDur)
				if env.Stream != nil {
					if err := env.Stream.Emit(phase.Adversarial, progress); err != nil {
						return nil, err
					}
				}
				for _, name := range sensorNames {
					r, err := env.Sensors.CollectOnce(ctx, name)
					if err != nil {
						rec.SensorErrors++
						continue
					}
					rec.Readings = append(rec.Readings, r)
				}
				nextSensor = nextSensor.Add(sensorEvery)
			}

			if isFake {
				fake.Advance(tick)
			} else {
				select {
				case <-clk.After(tick - clk.Since(tickStart)):
				case <-ctx.Done():
				}
			}
		}
		mark.End = clk.Now()
		rec.Marks = append(rec.Marks, mark)
	}
	if injector != nil {
		injector.SetFault(nil)
	}
	wg.Wait()
	rec.End = clk.Now()
	rec.Results = &loadgen.Results{Samples: append(inline, spawned...), Wall: rec.End.Sub(rec.Start)}
	sort.SliceStable(rec.Results.Samples, func(i, j int) bool {
		return rec.Results.Samples[i].Start.Before(rec.Results.Samples[j].Start)
	})
	if injector != nil {
		rec.Chaos = injector.Stats()
	}
	if env.Telemetry != nil {
		rec.Families = env.Telemetry.Gather()
	}
	if err := ctx.Err(); err != nil {
		return rec, err
	}
	return rec, nil
}

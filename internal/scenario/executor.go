package scenario

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/loadgen"
	"repro/internal/sensor"
)

// Epoch is the fixed virtual start time of every run. Pinning it makes
// whole Records — not just scorecards — reproduce across machines.
var Epoch = time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)

// target is the deterministic service model a run drives: the single
// closed-form VirtualTarget or the sharded VirtualCluster.
type target interface {
	// SetFault installs (or clears, with nil) the phase fault.
	SetFault(*Fault)
	// Stats snapshots the injection counters.
	Stats() ChaosStats
	// Sample resolves one request at the given offered load.
	Sample(offeredRPS float64) (time.Duration, error)
}

// PhaseMark records one executed phase's window on the run timeline.
type PhaseMark struct {
	Name        string
	Start       time.Time
	End         time.Time
	Fault       *Fault
	Adversarial *Adversarial
}

// Record is everything a run produced; Score reduces it to a Scorecard.
type Record struct {
	Scenario Scenario
	Start    time.Time
	End      time.Time
	Results  *loadgen.Results
	Readings []sensor.Reading
	Marks    []PhaseMark
	// Chaos is what the fault engine did to each request (see ChaosStats).
	Chaos ChaosStats
	// SensorErrors counts failed collections (they do not abort a run).
	SensorErrors int
}

// Run executes the scenario timeline end to end in its deterministic
// world: a fake clock at Epoch that the executor advances tick by tick,
// the virtual target (a virtual cluster when sc.Cluster is set), the
// workload stream and its sensors — everything seeded from sc.Seed. A
// 30-second scenario completes in milliseconds, and two calls with the
// same scenario produce identical records, which is what the smoke tests
// pin down to byte-identical scorecards.
func Run(ctx context.Context, sc Scenario) (*Record, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	clk := clock.NewFake(Epoch)
	var tgt target
	if c := sc.Cluster; c != nil {
		tgt = NewVirtualCluster(c.Replicas, sc.Seed, sc.Workload)
	} else {
		tgt = NewVirtualTarget(sc.Seed)
	}
	stream, err := BuildWorkload(sc.Workload, sc.Seed)
	if err != nil {
		return nil, err
	}
	sensors := sensor.NewManager(nil)
	sensors.UseClock(clk)
	if err := stream.RegisterSensors(sensors); err != nil {
		return nil, err
	}
	sensorNames := sensors.Names()
	sort.Strings(sensorNames)

	rng := rand.New(rand.NewSource(sc.Seed))

	rec := &Record{Scenario: sc, Start: clk.Now()}
	var samples []loadgen.Sample
	nextSensor := rec.Start.Add(sensorEvery)

	for _, phase := range sc.Phases {
		if ctx.Err() != nil {
			break
		}
		tgt.SetFault(phase.Fault)
		mark := PhaseMark{
			Name:        phase.Name,
			Start:       clk.Now(),
			Fault:       phase.Fault,
			Adversarial: phase.Adversarial,
		}
		phaseDur := phase.Duration
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

			for i := 0; i < n; i++ {
				lat, err := tgt.Sample(rps)
				samples = append(samples, loadgen.Sample{
					// Spread arrivals across the tick so SLO windows
					// see a smooth series.
					Start:   tickStart.Add(time.Duration(i) * tick / time.Duration(n)),
					Latency: lat,
					Err:     err,
				})
			}

			// Sensor cadence: emit the next stream batch, then poll the
			// sensors synchronously so readings carry this timeline's
			// timestamps.
			tickEnd := tickStart.Add(tick)
			for !nextSensor.After(tickEnd) {
				progress := float64(elapsed+tick) / float64(phaseDur)
				if err := stream.Emit(phase.Adversarial, progress); err != nil {
					return nil, err
				}
				for _, name := range sensorNames {
					r, err := sensors.CollectOnce(ctx, name)
					if err != nil {
						rec.SensorErrors++
						continue
					}
					rec.Readings = append(rec.Readings, r)
				}
				nextSensor = nextSensor.Add(sensorEvery)
			}

			clk.Advance(tick)
		}
		mark.End = clk.Now()
		rec.Marks = append(rec.Marks, mark)
	}
	tgt.SetFault(nil)
	rec.End = clk.Now()
	rec.Results = &loadgen.Results{Samples: samples, Wall: rec.End.Sub(rec.Start)}
	rec.Chaos = tgt.Stats()
	return rec, ctx.Err()
}

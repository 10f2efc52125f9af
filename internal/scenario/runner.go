package scenario

import (
	"context"
	"time"

	"repro/internal/clock"
	"repro/internal/sensor"
	"repro/internal/telemetry"
)

// Epoch is the fixed virtual start time of deterministic runs. Pinning it
// makes whole Records — not just scorecards — reproduce across machines.
var Epoch = time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)

// RunVirtual executes the scenario end to end against the deterministic
// world: fake clock at Epoch, virtual target, workload stream, stream
// sensors, and a fresh telemetry registry — everything seeded from
// sc.Seed. Two calls with the same scenario produce identical records,
// which is what the smoke tests pin down to byte-identical scorecards.
func RunVirtual(ctx context.Context, sc Scenario) (*Record, error) {
	fake := clock.NewFake(Epoch)
	var virtual VirtualSampler
	if c := sc.Cluster; c != nil {
		virtual = NewVirtualCluster(c.Replicas, sc.Seed, sc.Workload)
	} else {
		virtual = NewVirtualTarget(sc.Seed)
	}

	stream, err := BuildWorkload(sc.Workload, sc.Seed)
	if err != nil {
		return nil, err
	}
	mgr := sensor.NewManager(nil)
	mgr.UseClock(fake)
	if err := stream.RegisterSensors(mgr, Duration(sc.sensorEvery())); err != nil {
		return nil, err
	}

	return Run(ctx, sc, Env{
		Clock:     fake,
		Virtual:   virtual,
		Stream:    stream,
		Sensors:   mgr,
		Telemetry: telemetry.NewRegistry(),
	})
}

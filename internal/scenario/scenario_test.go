package scenario

import (
	"math"
	"testing"
	"time"
)

func TestShapeRPS(t *testing.T) {
	phase := 10 * time.Second

	steady := Shape{Kind: ShapeSteady, BaseRPS: 40}
	if got := steady.RPS(3*time.Second, phase, 0.5); got != 40 {
		t.Fatalf("steady: got %v", got)
	}

	ramp := Shape{Kind: ShapeRamp, BaseRPS: 10, PeakRPS: 110}
	if got := ramp.RPS(0, phase, 0.5); got != 10 {
		t.Fatalf("ramp start: got %v", got)
	}
	if got := ramp.RPS(5*time.Second, phase, 0.5); math.Abs(got-60) > 1e-9 {
		t.Fatalf("ramp mid: got %v", got)
	}

	di := Shape{Kind: ShapeDiurnal, BaseRPS: 20, PeakRPS: 80}
	if got := di.RPS(0, phase, 0.5); math.Abs(got-20) > 1e-9 {
		t.Fatalf("diurnal trough: got %v", got)
	}
	if got := di.RPS(5*time.Second, phase, 0.5); math.Abs(got-80) > 1e-9 {
		t.Fatalf("diurnal crest: got %v", got)
	}

	fc := Shape{Kind: ShapeFlashCrowd, BaseRPS: 40, PeakRPS: 300, PeakAt: 0.5, PeakWidth: 0.2}
	if got := fc.RPS(time.Second, phase, 0.5); got != 40 {
		t.Fatalf("flash-crowd before spike: got %v", got)
	}
	if got := fc.RPS(5*time.Second, phase, 0.5); got <= 40 {
		t.Fatalf("flash-crowd at spike: got %v", got)
	}

	ht := Shape{Kind: ShapeHeavyTail, BaseRPS: 50, PeakRPS: 500}
	// burstU near 1 -> multiplier near 1 -> base rate.
	if got := ht.RPS(0, phase, 0.999999); math.Abs(got-50) > 1 {
		t.Fatalf("heavy-tail calm: got %v", got)
	}
	// burstU near 0 -> Pareto blow-up, capped at the peak.
	if got := ht.RPS(0, phase, 1e-12); got != 500 {
		t.Fatalf("heavy-tail burst cap: got %v", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	ok := Scenario{
		Name:     "t",
		Workload: WorkloadSynthetic,
		SLO:      SLO{LatencyP95: 100 * time.Millisecond},
		Phases: []Phase{
			{Name: "a", Duration: time.Second, Shape: Shape{Kind: ShapeSteady, BaseRPS: 10}},
		},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	phase := func(shape Shape, f *Fault) []Phase {
		return []Phase{{Name: "a", Duration: time.Second, Shape: shape, Fault: f}}
	}
	steady := Shape{Kind: ShapeSteady, BaseRPS: 1}

	bad := map[string]Scenario{
		"no name":          {},
		"no phases":        {Name: "x", Workload: ok.Workload, SLO: ok.SLO},
		"no SLO latency":   {Name: "x", Workload: ok.Workload, Phases: ok.Phases},
		"unknown workload": {Name: "x", Workload: "nope", SLO: ok.SLO, Phases: ok.Phases},
		"empty workload":   {Name: "x", SLO: ok.SLO, Phases: ok.Phases},
		"duplicate phase names": {Name: "x", Workload: ok.Workload, SLO: ok.SLO, Phases: []Phase{
			{Name: "a", Duration: time.Second, Shape: steady},
			{Name: "a", Duration: time.Second, Shape: steady},
		}},
		"flash-crowd without peakAt": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(Shape{Kind: ShapeFlashCrowd, BaseRPS: 1, PeakRPS: 9, PeakWidth: 0.2}, nil)},
		"flash-crowd without peakWidth": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(Shape{Kind: ShapeFlashCrowd, BaseRPS: 1, PeakRPS: 9, PeakAt: 0.4}, nil)},
		"heavy-tail without peakRps": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(Shape{Kind: ShapeHeavyTail, BaseRPS: 1}, nil)},
		"latency fault without rate": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(steady, &Fault{Kind: FaultLatency, Latency: time.Millisecond})},
		"error-burst fault without rate": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(steady, &Fault{Kind: FaultErrorBurst})},
		"bad fault kind": {Name: "x", Workload: ok.Workload, SLO: ok.SLO,
			Phases: phase(steady, &Fault{Kind: "meteor", Rate: 1})},
		"bad adversarial kind": {Name: "x", Workload: ok.Workload, SLO: ok.SLO, Phases: []Phase{
			{Name: "a", Duration: time.Second, Shape: steady, Adversarial: &Adversarial{Kind: "meteor"}},
		}},
	}
	for name, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

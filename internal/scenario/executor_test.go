package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// fixtureScenario is a short campaign exercising every moving part:
// traffic shape change, a fault phase, and an adversarial phase.
func fixtureScenario() Scenario {
	return Scenario{
		Name:     "executor-fixture",
		Workload: WorkloadSynthetic,
		Seed:     21,
		SLO:      SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.05},
		Phases: []Phase{
			{Name: "baseline", Duration: 2 * time.Second,
				Shape: Shape{Kind: ShapeSteady, BaseRPS: 30}},
			{Name: "burst", Duration: 2 * time.Second,
				Shape: Shape{Kind: ShapeRamp, BaseRPS: 30, PeakRPS: 120},
				Fault: &Fault{Kind: FaultErrorBurst, Rate: 0.4}},
			{Name: "shift", Duration: 2 * time.Second,
				Shape:       Shape{Kind: ShapeSteady, BaseRPS: 30},
				Adversarial: &Adversarial{Kind: AdvCovariateShift, Magnitude: 3}},
		},
	}
}

func TestRunVirtualProducesFullRecord(t *testing.T) {
	rec, err := Run(context.Background(), fixtureScenario())
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.End.Sub(rec.Start); got != 6*time.Second {
		t.Fatalf("virtual duration: %v", got)
	}
	if len(rec.Marks) != 3 {
		t.Fatalf("marks: %+v", rec.Marks)
	}
	if len(rec.Results.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	if len(rec.Readings) == 0 {
		t.Fatal("no sensor readings recorded")
	}
	if rec.Chaos.Errored == 0 {
		t.Fatal("error-burst fault injected nothing")
	}

	card := Score(rec)
	if card.Requests != len(rec.Results.Samples) {
		t.Fatalf("scorecard requests: %d vs %d samples", card.Requests, len(rec.Results.Samples))
	}
	if !card.Detected {
		t.Fatal("covariate shift not detected")
	}
	if card.FirstAlertSensor != SensorDrift {
		t.Fatalf("first alert sensor: %q", card.FirstAlertSensor)
	}
}

// TestRunVirtualByteIdenticalScorecards is the determinism contract of
// the whole engine: same scenario, same seed, fake clock -> the JSON
// scorecard reproduces bit for bit.
func TestRunVirtualByteIdenticalScorecards(t *testing.T) {
	render := func() []byte {
		rec, err := Run(context.Background(), fixtureScenario())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Score(rec).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("scorecards diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestRunEnvValidation: Run refuses an invalid scenario before it builds
// the world to run it in.
func TestRunEnvValidation(t *testing.T) {
	if _, err := Run(context.Background(), Scenario{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, fixtureScenario())
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestBuiltinSmokeSubsetRuns executes every built-in end to end in the
// virtual world — the set `spatial-scenario -smoke` runs, as CI does —
// and sanity-checks the headline scorecard numbers.
func TestBuiltinSmokeSubsetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin smoke runs train one model per workload; skipped in -short")
	}
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rec, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			card := Score(rec)
			if card.Requests == 0 {
				t.Fatal("no traffic")
			}
			if card.Verdict == "" {
				t.Fatal("no verdict")
			}
			switch sc.Name {
			case "uc1-fall-poison", "uc2-net-fgsm", "flash-crowd-poison", "heavy-tail-drift":
				if !card.Detected {
					t.Error("adversarial campaign not detected")
				}
				if card.Verdict == "fail" {
					t.Errorf("verdict fail: %v", card.Reasons)
				}
			case "capacity-ramp":
				if card.Shed == 0 {
					t.Error("capacity ramp shed nothing")
				}
				if card.Verdict != "pass" {
					t.Errorf("verdict: %s (%v)", card.Verdict, card.Reasons)
				}
			}
		})
	}
}

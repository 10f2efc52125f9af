package scenario

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/sensor"
)

// buildRecord fabricates a run record with a precisely known layout:
// 9 seconds, three 3s phases (clean / error-burst fault / clean), one
// sample every 100ms at 10ms latency, errors during the fault phase,
// one alert reading 1s into the fault.
func buildRecord() *Record {
	start := Epoch
	sc := Scenario{
		Name: "fixture",
		Seed: 1,
		SLO:  SLO{LatencyP95: Duration(100 * time.Millisecond), MaxErrorRate: 0.1},
		Phases: []Phase{
			{Name: "warm", Duration: Duration(3 * time.Second), Shape: Shape{Kind: ShapeSteady, BaseRPS: 10}},
			{Name: "burst", Duration: Duration(3 * time.Second), Shape: Shape{Kind: ShapeSteady, BaseRPS: 10},
				Fault: &Fault{Kind: FaultErrorBurst, Rate: 0.5}},
			{Name: "cool", Duration: Duration(3 * time.Second), Shape: Shape{Kind: ShapeSteady, BaseRPS: 10}},
		},
	}
	rec := &Record{
		Scenario: sc,
		Start:    start,
		End:      start.Add(9 * time.Second),
		Marks: []PhaseMark{
			{Name: "warm", Start: start, End: start.Add(3 * time.Second)},
			{Name: "burst", Start: start.Add(3 * time.Second), End: start.Add(6 * time.Second),
				Fault: sc.Phases[1].Fault},
			{Name: "cool", Start: start.Add(6 * time.Second), End: start.Add(9 * time.Second)},
		},
	}
	var samples []loadgen.Sample
	for ts := time.Duration(0); ts < 9*time.Second; ts += 100 * time.Millisecond {
		s := loadgen.Sample{Start: start.Add(ts), Latency: 10 * time.Millisecond}
		// Fault phase: every second sample errors (50% error rate, over
		// the 10% SLO) plus one shed that must NOT count as an error.
		if ts >= 3*time.Second && ts < 6*time.Second {
			if int(ts/(100*time.Millisecond))%2 == 0 {
				s.Err = &loadgen.StatusError{Code: http.StatusInternalServerError}
			}
		}
		samples = append(samples, s)
	}
	samples = append(samples, loadgen.Sample{
		Start:   start.Add(3*time.Second + 50*time.Millisecond),
		Latency: 5 * time.Millisecond,
		Err:     &loadgen.StatusError{Code: http.StatusTooManyRequests},
	})
	rec.Results = &loadgen.Results{Samples: samples, Wall: 9 * time.Second}
	rec.Readings = []sensor.Reading{
		{Sensor: SensorDrift, Value: 0.9, Time: start.Add(2 * time.Second)}, // pre-fault, healthy
		{Sensor: SensorAgreement, Value: 0.3, Alert: true, Time: start.Add(4 * time.Second)},
		{Sensor: SensorAgreement, Value: 0.2, Alert: true, Time: start.Add(5 * time.Second)},
	}
	return rec
}

func TestScoreFixture(t *testing.T) {
	card := Score(buildRecord())

	if card.Requests != 91 || card.Shed != 1 {
		t.Fatalf("totals: requests=%d shed=%d", card.Requests, card.Shed)
	}
	if card.Errors != 15 {
		t.Fatalf("errors (shed excluded): %d", card.Errors)
	}
	// Windows 3,4,5 have 50% error rate > 10% -> 3 violated seconds.
	if card.SLOViolationSeconds != 3 {
		t.Fatalf("slo violation seconds: %v", card.SLOViolationSeconds)
	}
	// Budget: 0.01 (default) * 9s = 0.09s allowed; 3s burned.
	if burn := card.ErrorBudgetBurn; burn < 33 || burn > 34 {
		t.Fatalf("error budget burn: %v", burn)
	}
	if !card.Detected || card.FirstAlertSensor != SensorAgreement {
		t.Fatalf("detection: %+v", card)
	}
	// Fault starts at +3s, first alert at +4s.
	if card.DetectionDelayNs != int64(time.Second) {
		t.Fatalf("detection delay: %d", card.DetectionDelayNs)
	}
	// Fault clears at +6s; window [6,7) is healthy; recovery = 1s.
	if card.RecoveryNs != int64(time.Second) {
		t.Fatalf("recovery: %d", card.RecoveryNs)
	}
	if card.Verdict != "fail" {
		t.Fatalf("verdict: %s (reasons %v)", card.Verdict, card.Reasons)
	}
	if len(card.Phases) != 3 || card.Phases[1].Errors != 15 || card.Phases[1].Shed != 1 {
		t.Fatalf("phase scores: %+v", card.Phases)
	}
	if card.Phases[0].SLOViolationSeconds != 0 || card.Phases[1].SLOViolationSeconds != 3 {
		t.Fatalf("phase violations: %+v", card.Phases)
	}
}

func TestScoreCleanRunPasses(t *testing.T) {
	rec := buildRecord()
	// Strip the fault, the errors, and keep the alerts out: a clean run.
	rec.Marks[1].Fault = nil
	for i := range rec.Results.Samples {
		rec.Results.Samples[i].Err = nil
	}
	rec.Readings = nil
	card := Score(rec)
	if card.Verdict != "pass" {
		t.Fatalf("clean run verdict: %s (%v)", card.Verdict, card.Reasons)
	}
	if card.Detected || card.DetectionDelayNs != -1 || card.RecoveryNs != -1 {
		t.Fatalf("clean run detection/recovery: %+v", card)
	}
}

func TestScoreUndetectedAdversarialFails(t *testing.T) {
	rec := buildRecord()
	rec.Marks[1].Fault = nil
	rec.Marks[1].Adversarial = &Adversarial{Kind: AdvPoisonWave, Rate: 0.3}
	rec.Readings = nil // nobody alerted
	for i := range rec.Results.Samples {
		rec.Results.Samples[i].Err = nil // SLO is clean; detection alone decides
	}
	card := Score(rec)
	if card.Verdict != "fail" {
		t.Fatalf("undetected adversarial verdict: %s (%v)", card.Verdict, card.Reasons)
	}
}

func TestScorecardJSONStable(t *testing.T) {
	card := Score(buildRecord())
	a, err := card.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := card.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("scorecard JSON is not stable")
	}
}

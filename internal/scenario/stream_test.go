package scenario

import (
	"context"
	"testing"
)

func TestBuildWorkloadKinds(t *testing.T) {
	for _, wl := range []string{WorkloadSynthetic, WorkloadFall, WorkloadNetTraffic} {
		s, err := buildWorkload(wl, 3)
		if err != nil {
			t.Fatalf("%q: %v", wl, err)
		}
		dLine, aLine := s.driftAlert, s.agreeAlert
		if dLine <= 0 || dLine >= 1 || aLine <= 0 || aLine >= 1 {
			t.Fatalf("%q: calibrated alert lines out of range: drift=%v agree=%v", wl, dLine, aLine)
		}
	}
	for _, wl := range []string{"martian", ""} {
		if _, err := buildWorkload(wl, 3); err == nil {
			t.Fatalf("workload %q accepted", wl)
		}
	}
}

func TestStreamAdversarialActionsMoveSensors(t *testing.T) {
	s, err := buildWorkload(WorkloadSynthetic, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	driftLine, agreeLine := s.driftAlert, s.agreeAlert

	// Clean batches stay above both alert lines.
	for i := 0; i < 5; i++ {
		if err := s.Emit(nil, 0); err != nil {
			t.Fatal(err)
		}
		dv, _, err := s.DriftCollector().Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		av, _, err := s.AgreementCollector().Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dv < driftLine {
			t.Fatalf("clean batch %d under drift alert line: %v < %v", i, dv, driftLine)
		}
		if av < agreeLine {
			t.Fatalf("clean batch %d under agreement alert line: %v < %v", i, av, agreeLine)
		}
	}

	// A 40% poison wave collapses agreement but not feature drift.
	if err := s.Emit(&Adversarial{Kind: AdvPoisonWave, Rate: 0.4, Target: -1}, 0.5); err != nil {
		t.Fatal(err)
	}
	av, _, err := s.AgreementCollector().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if av >= agreeLine {
		t.Fatalf("poisoned agreement above alert line: %v >= %v", av, agreeLine)
	}

	// A full-magnitude covariate shift collapses the drift score.
	if err := s.Emit(&Adversarial{Kind: AdvCovariateShift, Magnitude: 3}, 1); err != nil {
		t.Fatal(err)
	}
	dv, _, err := s.DriftCollector().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dv >= driftLine {
		t.Fatalf("shifted drift score above alert line: %v >= %v", dv, driftLine)
	}

	// An FGSM burst at a hostile budget breaks prediction agreement.
	if err := s.Emit(&Adversarial{Kind: AdvFGSMBurst, Eps: 1.5}, 0); err != nil {
		t.Fatal(err)
	}
	av, _, err = s.AgreementCollector().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if av >= agreeLine {
		t.Fatalf("fgsm agreement above alert line: %v >= %v", av, agreeLine)
	}

	// Unknown action kinds are rejected.
	if err := s.Emit(&Adversarial{Kind: "meteor"}, 0); err == nil {
		t.Fatal("unknown adversarial kind accepted")
	}
}

func TestStreamEmitDeterministic(t *testing.T) {
	emit := func() [][]float64 {
		s, err := buildWorkload(WorkloadSynthetic, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Emit(&Adversarial{Kind: AdvPoisonWave, Rate: 0.3, Target: -1}, 0); err != nil {
			t.Fatal(err)
		}
		return s.lastBatch().X
	}
	a, b := emit(), emit()
	if len(a) != len(b) {
		t.Fatalf("batch sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("row %d feature %d diverged", i, j)
			}
		}
	}
}

package drift

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func gaussTable(seed int64, n int, mean, std float64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("g", []string{"f0", "f1"}, []string{"x"})
	for i := 0; i < n; i++ {
		_ = tb.Append([]float64{mean + rng.NormFloat64()*std, rng.NormFloat64()}, 0)
	}
	return tb
}

func TestNoDriftOnSameDistribution(t *testing.T) {
	ref := gaussTable(1, 500, 0, 1)
	det, err := Fit(ref, 0.01, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := gaussTable(2, 300, 0, 1)
	rep, err := det.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted {
		t.Fatalf("false drift alarm: %+v", rep.Features)
	}
	if Score(rep) != 1 {
		t.Fatalf("score %v", Score(rep))
	}
}

func TestDetectsMeanShift(t *testing.T) {
	ref := gaussTable(3, 500, 0, 1)
	det, err := Fit(ref, 0.01, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := gaussTable(4, 300, 2.5, 1) // shifted first feature
	rep, err := det.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Features[0].Drifted {
		t.Fatalf("mean shift undetected: %+v", rep.Features[0])
	}
	if rep.Features[1].Drifted {
		t.Fatalf("untouched feature flagged: %+v", rep.Features[1])
	}
	if rep.DriftedFraction != 0.5 || !rep.Drifted {
		t.Fatalf("aggregate wrong: %+v", rep)
	}
	if Score(rep) != 0.5 {
		t.Fatalf("score %v", Score(rep))
	}
}

func TestDetectsVarianceShift(t *testing.T) {
	ref := gaussTable(5, 600, 0, 1)
	det, err := Fit(ref, 0.01, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := gaussTable(6, 400, 0, 3)
	rep, err := det.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Features[0].Drifted {
		t.Fatal("variance inflation undetected")
	}
}

func TestKSStatisticKnownValues(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if d := ksStatistic(a, a); d != 0 {
		t.Fatalf("identical samples KS %v", d)
	}
	b := []float64{10, 11, 12, 13}
	if d := ksStatistic(a, b); d != 1 {
		t.Fatalf("disjoint samples KS %v, want 1", d)
	}
}

func TestPSIZeroForIdenticalHistograms(t *testing.T) {
	ref := []float64{0.25, 0.25, 0.25, 0.25}
	if psi := psiValue(ref, ref); psi != 0 {
		t.Fatalf("psi %v", psi)
	}
	shifted := []float64{0.4, 0.3, 0.2, 0.1}
	if psi := psiValue(ref, shifted); psi <= 0 {
		t.Fatalf("shifted psi %v should be positive", psi)
	}
}

func TestPSIFiniteForEmptyBins(t *testing.T) {
	// A batch entirely inside one reference bin must not produce Inf.
	sorted := []float64{5, 5, 5, 5}
	frac := histogramFrac(sorted, []float64{1, 2, 3})
	for _, f := range frac {
		if f <= 0 {
			t.Fatalf("zero mass bin: %v", frac)
		}
	}
	ref := histogramFrac([]float64{0.5, 1.5, 2.5, 3.5}, []float64{1, 2, 3})
	if psi := psiValue(ref, frac); math.IsInf(psi, 0) || math.IsNaN(psi) {
		t.Fatalf("psi not finite: %v", psi)
	}
}

func TestFitValidation(t *testing.T) {
	small := gaussTable(7, 5, 0, 1)
	if _, err := Fit(small, 0.01, 0.2, 10); err == nil {
		t.Fatal("expected too-few-samples error")
	}
}

func TestDetectValidation(t *testing.T) {
	ref := gaussTable(8, 100, 0, 1)
	det, err := Fit(ref, 0.01, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.New("o", []string{"only"}, []string{"x"})
	_ = other.Append([]float64{1}, 0)
	_ = other.Append([]float64{2}, 0)
	if _, err := det.Detect(other); err == nil {
		t.Fatal("expected feature-count error")
	}
	one := dataset.New("one", ref.FeatureNames, ref.ClassNames)
	_ = one.Append([]float64{1, 2}, 0)
	if _, err := det.Detect(one); err == nil {
		t.Fatal("expected too-few-batch-samples error")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ref := gaussTable(9, 100, 0, 1)
	det, err := Fit(ref, -1, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if det.alpha != 0.01 || det.psiThreshold != 0.2 || det.bins != 10 {
		t.Fatalf("defaults %+v", det)
	}
}

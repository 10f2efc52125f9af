package defense

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/ml"
)

func blobs(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("blobs", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		_ = tb.Append([]float64{float64(y)*5 + rng.NormFloat64()*0.6, rng.NormFloat64() * 0.6}, y)
	}
	return tb
}

func TestSanitizeLabelsRecoversFlippedLabels(t *testing.T) {
	clean := blobs(1, 300)
	poisoned, err := attack.LabelFlip(clean, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	sanitized, rep, err := SanitizeLabels(poisoned, 7, Relabel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Relabeled == 0 {
		t.Fatal("no labels repaired")
	}
	// Count labels that now match the clean ground truth.
	recovered := 0
	for i := range sanitized.Y {
		if sanitized.Y[i] == clean.Y[i] {
			recovered++
		}
	}
	frac := float64(recovered) / float64(sanitized.Len())
	if frac < 0.97 {
		t.Fatalf("only %.1f%% labels correct after sanitization", frac*100)
	}
}

func TestSanitizeLabelsDropMode(t *testing.T) {
	clean := blobs(2, 200)
	poisoned, err := attack.LabelFlip(clean, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sanitized, rep, err := SanitizeLabels(poisoned, 7, Drop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if sanitized.Len() != poisoned.Len()-rep.Dropped {
		t.Fatalf("size %d after dropping %d of %d", sanitized.Len(), rep.Dropped, poisoned.Len())
	}
}

func TestSanitizeLabelsKeepsCleanData(t *testing.T) {
	clean := blobs(3, 200)
	sanitized, rep, err := SanitizeLabels(clean, 5, Relabel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Relabeled > 4 || rep.Dropped != 0 {
		t.Fatalf("clean data disturbed: %+v", rep)
	}
	if sanitized.Len() != clean.Len() {
		t.Fatal("clean data shrank")
	}
}

func TestSanitizeLabelsImprovesPoisonedModel(t *testing.T) {
	// Overlapping blobs: heavy label flipping genuinely shifts the
	// learned boundary here, so sanitization has something to repair.
	rng := rand.New(rand.NewSource(4))
	clean := dataset.New("overlap", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < 400; i++ {
		y := i % 2
		_ = clean.Append([]float64{float64(y)*3 + rng.NormFloat64(), rng.NormFloat64()}, y)
	}
	train, test, err := clean.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := attack.TargetedFlip(train, 0.15, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(tr *dataset.Table) float64 {
		m := ml.NewLogReg(ml.DefaultLogRegConfig())
		if err := m.Fit(tr); err != nil {
			t.Fatal(err)
		}
		mm, err := ml.Evaluate(m, test)
		if err != nil {
			t.Fatal(err)
		}
		return mm.Accuracy
	}
	dirty := accOf(poisoned)
	sanitized, _, err := SanitizeLabels(poisoned, 9, Relabel)
	if err != nil {
		t.Fatal(err)
	}
	repaired := accOf(sanitized)
	if repaired <= dirty {
		t.Fatalf("sanitization did not help: %.3f -> %.3f", dirty, repaired)
	}
}

func TestSanitizeValidation(t *testing.T) {
	tb := blobs(5, 20)
	if _, _, err := SanitizeLabels(tb, 0, Relabel); err == nil {
		t.Fatal("expected k error")
	}
	if _, _, err := SanitizeLabels(tb, 5, SanitizeMode(9)); err == nil {
		t.Fatal("expected mode error")
	}
	if _, _, err := SanitizeLabels(tb, 25, Relabel); err == nil {
		t.Fatal("expected too-few-samples error")
	}
}

package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoClassTable(t *testing.T, n int) *Table {
	t.Helper()
	tb := New("toy", []string{"f0", "f1"}, []string{"a", "b"})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		y := i % 2
		if err := tb.Append([]float64{rng.NormFloat64() + float64(y)*3, rng.NormFloat64()}, y); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestAppendValidation(t *testing.T) {
	tb := New("t", []string{"a"}, []string{"x"})
	if err := tb.Append([]float64{1, 2}, 0); err == nil {
		t.Fatal("expected row-length error")
	}
	if err := tb.Append([]float64{1}, 1); err == nil {
		t.Fatal("expected label-range error")
	}
	if err := tb.Append([]float64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestAppendCopiesRow(t *testing.T) {
	tb := New("t", []string{"a"}, []string{"x"})
	row := []float64{1}
	if err := tb.Append(row, 0); err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if tb.X[0][0] != 1 {
		t.Fatal("Append must copy the row")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tb := twoClassTable(t, 10)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tb.Clone()
	bad.X[3][0] = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("expected NaN to fail validation")
	}
	bad2 := tb.Clone()
	bad2.Y[0] = 5
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected out-of-range label to fail validation")
	}
	bad3 := tb.Clone()
	bad3.Y = bad3.Y[:5]
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected length mismatch to fail validation")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := twoClassTable(t, 4)
	c := tb.Clone()
	c.X[0][0] = 123
	c.Y[1] = 0
	if tb.X[0][0] == 123 {
		t.Fatal("Clone shares feature storage")
	}
}

func TestClassCounts(t *testing.T) {
	tb := twoClassTable(t, 10)
	counts := tb.ClassCounts()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("ClassCounts = %v", counts)
	}
}

func TestSubset(t *testing.T) {
	tb := twoClassTable(t, 10)
	s := tb.Subset([]int{0, 2, 4})
	if s.Len() != 3 {
		t.Fatalf("Subset len = %d", s.Len())
	}
	if s.Y[0] != tb.Y[0] || s.Y[2] != tb.Y[4] {
		t.Fatal("Subset labels wrong")
	}
	s.X[0][0] = -1
	if tb.X[0][0] == -1 {
		t.Fatal("Subset must copy rows")
	}
}

func TestStratifiedSplitPreservesProportions(t *testing.T) {
	tb := New("imb", []string{"f"}, []string{"maj", "min"})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 90; i++ {
		_ = tb.Append([]float64{rng.NormFloat64()}, 0)
	}
	for i := 0; i < 10; i++ {
		_ = tb.Append([]float64{rng.NormFloat64()}, 1)
	}
	train, test, err := tb.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 100 {
		t.Fatalf("split sizes %d+%d", train.Len(), test.Len())
	}
	tc := train.ClassCounts()
	sc := test.ClassCounts()
	if tc[1] != 8 || sc[1] != 2 {
		t.Fatalf("minority split %d/%d, want 8/2", tc[1], sc[1])
	}
}

func TestStratifiedSplitMinorityAlwaysRepresented(t *testing.T) {
	tb := New("tiny", []string{"f"}, []string{"a", "b"})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		_ = tb.Append([]float64{float64(i)}, 0)
	}
	_ = tb.Append([]float64{100}, 1)
	_ = tb.Append([]float64{101}, 1)
	train, test, err := tb.StratifiedSplit(rng, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if train.ClassCounts()[1] == 0 || test.ClassCounts()[1] == 0 {
		t.Fatal("class with 2 samples must appear on both sides")
	}
}

func TestStratifiedSplitRejectsBadFrac(t *testing.T) {
	tb := twoClassTable(t, 4)
	rng := rand.New(rand.NewSource(3))
	if _, _, err := tb.StratifiedSplit(rng, 0); err == nil {
		t.Fatal("expected error for frac 0")
	}
	if _, _, err := tb.StratifiedSplit(rng, 1); err == nil {
		t.Fatal("expected error for frac 1")
	}
}

func TestSplitOrdered(t *testing.T) {
	tb := twoClassTable(t, 10)
	train, test, err := tb.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("Split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	tb := twoClassTable(t, 30)
	sumBefore := 0.0
	for _, r := range tb.X {
		sumBefore += r[0]
	}
	tb.Shuffle(rand.New(rand.NewSource(4)))
	sumAfter := 0.0
	for _, r := range tb.X {
		sumAfter += r[0]
	}
	if math.Abs(sumBefore-sumAfter) > 1e-9 {
		t.Fatal("Shuffle changed contents")
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScalerStandardizes(t *testing.T) {
	tb := twoClassTable(t, 200)
	s, err := FitScaler(tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transform(tb); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tb.NumFeatures(); j++ {
		var mean float64
		for _, r := range tb.X {
			mean += r[j]
		}
		mean /= float64(tb.Len())
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("feature %d mean %v after standardization", j, mean)
		}
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	tb := twoClassTable(t, 50)
	s, err := FitScaler(tb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		row := []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		orig := append([]float64(nil), row...)
		s.TransformRow(row)
		s.InverseRow(row)
		for i := range row {
			if math.Abs(row[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScalerConstantFeature(t *testing.T) {
	tb := New("const", []string{"c"}, []string{"x"})
	for i := 0; i < 5; i++ {
		_ = tb.Append([]float64{7}, 0)
	}
	s, err := FitScaler(tb)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{7}
	s.TransformRow(row)
	if row[0] != 0 {
		t.Fatalf("constant feature should map to 0, got %v", row[0])
	}
}

func TestScalerEmptyTable(t *testing.T) {
	tb := New("e", []string{"a"}, []string{"x"})
	if _, err := FitScaler(tb); err == nil {
		t.Fatal("expected error fitting scaler on empty table")
	}
}

func TestScalerDimensionMismatch(t *testing.T) {
	tb := twoClassTable(t, 5)
	s, err := FitScaler(tb)
	if err != nil {
		t.Fatal(err)
	}
	other := New("o", []string{"only"}, []string{"x"})
	_ = other.Append([]float64{1}, 0)
	if err := s.Transform(other); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

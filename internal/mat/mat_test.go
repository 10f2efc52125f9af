package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimensions")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseDataPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("element mismatch: %v %v", m.At(1, 0), m.At(2, 1))
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetAndRowView(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42)
	row := m.Row(1)
	if row[2] != 42 {
		t.Fatalf("Row view did not observe Set: %v", row)
	}
	row[0] = 7 // view writes through
	if m.At(1, 0) != 7 {
		t.Fatalf("write through Row view lost: %v", m.At(1, 0))
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1}, nil)
	want := []float64{3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestAddDiag(t *testing.T) {
	m := NewDense(2, 2)
	m.AddDiag(3)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 || m.At(0, 1) != 0 {
		t.Fatalf("unexpected matrix %+v", m)
	}
}

func TestNormsAndStats(t *testing.T) {
	x := []float64{3, 4}
	if Dist2([]float64{0, 0}, x) != 5 {
		t.Fatalf("Dist2 = %v", Dist2([]float64{0, 0}, x))
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-slice mean should be 0")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax should return first maximal index")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 1 + rng.Intn(10)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
		}
		p := Softmax(logits, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			return false
		}
		// Softmax is shift-invariant.
		shifted := make([]float64, n)
		for i := range logits {
			shifted[i] = logits[i] + 123.456
		}
		q := Softmax(shifted, nil)
		for i := range p {
			if !almostEqual(p[i], q[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	p := Softmax([]float64{1000, 0, -1000}, nil)
	if math.IsNaN(p[0]) || !almostEqual(p[0], 1, 1e-9) {
		t.Fatalf("softmax overflow not handled: %v", p)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 => x = 4/5, y = 7/5
	if !almostEqual(x[0], 0.8, 1e-12) || !almostEqual(x[1], 1.4, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 1 + rng.Intn(8)
		a := NewDense(n, n)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		a.AddDiag(float64(n)) // diagonally dominant => well-conditioned
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want, nil)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRidgeWLSRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d := 200, 4
	x := NewDense(n, d)
	beta := []float64{1.5, -2, 0.5, 3}
	y := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		w[i] = 0.5 + rng.Float64()
	}
	x.MulVec(beta, y)
	got, err := RidgeWLS(x, y, w, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range beta {
		if !almostEqual(got[i], beta[i], 1e-6) {
			t.Fatalf("RidgeWLS = %v, want %v", got, beta)
		}
	}
}

func TestRidgeWLSShrinksWithLambda(t *testing.T) {
	x := FromRows([][]float64{{1}, {1}, {1}})
	y := []float64{2, 2, 2}
	w := []float64{1, 1, 1}
	small, err := RidgeWLS(x, y, w, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RidgeWLS(x, y, w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(big[0]) >= math.Abs(small[0]) {
		t.Fatalf("lambda should shrink coefficients: %v vs %v", big, small)
	}
}

func TestRidgeWLSHandlesCollinearColumns(t *testing.T) {
	// Two identical columns is singular without regularization; RidgeWLS
	// must still return a finite solution.
	x := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	y := []float64{1, 2, 3}
	w := []float64{1, 1, 1}
	got, err := RidgeWLS(x, y, w, 0)
	if err != nil {
		t.Fatalf("collinear RidgeWLS: %v", err)
	}
	for _, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite coefficient: %v", got)
		}
	}
}

func TestRidgeWLSInputValidation(t *testing.T) {
	x := NewDense(2, 2)
	if _, err := RidgeWLS(x, []float64{1}, []float64{1, 1}, 0); err == nil {
		t.Fatal("expected error for short y")
	}
	if _, err := RidgeWLS(x, []float64{1, 1}, []float64{1}, 0); err == nil {
		t.Fatal("expected error for short w")
	}
	if _, err := RidgeWLS(x, []float64{1, 1}, []float64{1, 1}, -1); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: matrix is singular")

// Solve solves the square system a·x = b using Gaussian elimination with
// partial pivoting. a and b are not modified.
func Solve(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: Solve requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: Solve rhs length %d != %d", len(b), n)
	}
	// Augmented working copies.
	m := a.Clone()
	x := CloneVec(b)
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |value| in this column.
		pivot, pv := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if av := math.Abs(m.At(r, col)); av > pv {
				pivot, pv = r, av
			}
		}
		if pv < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.data[col*n+j], m.data[pivot*n+j] = m.data[pivot*n+j], m.data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.data[r*n+j] -= f * m.data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// RidgeWLS solves a weighted least-squares problem with L2 regularization:
//
//	argmin_beta  sum_i w_i (y_i - x_i·beta)^2 + lambda ||beta||^2
//
// X is n×d, y and w have length n. The intercept, if wanted, must be an
// explicit all-ones column of X (it is regularized like any coefficient,
// which is the convention both LIME and KernelSHAP use here with tiny
// lambda). The returned slice has length d. Normal equations that are not
// finite — an infinity or NaN in a row of nonzero weight, or an overflow —
// are an error: no beta solves them.
func RidgeWLS(x *Dense, y, w []float64, lambda float64) ([]float64, error) {
	n, d := x.rows, x.cols
	if len(y) != n {
		return nil, fmt.Errorf("mat: RidgeWLS y length %d != %d", len(y), n)
	}
	if len(w) != n {
		return nil, fmt.Errorf("mat: RidgeWLS w length %d != %d", len(w), n)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("mat: RidgeWLS negative lambda %v", lambda)
	}
	// Normal equations: (X^T W X + lambda I) beta = X^T W y. X^T W X is
	// built from the rows of nonzero weight four at a time (addRows4);
	// the one to three left at the end go one at a time.
	xtwx := NewDense(d, d)
	xtwy := make([]float64, d)
	var (
		rows [4][]float64
		ws   [4]float64
		k    int
	)
	for i := 0; i < n; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := x.Row(i)
		// X^T W y keeps the zero skip: a zero w_i·x_i[a] must add
		// nothing even when y_i is infinite or NaN.
		for a, xa := range row {
			if v := wi * xa; v != 0 {
				xtwy[a] += v * y[i]
			}
		}
		rows[k], ws[k] = row, wi
		if k++; k == 4 {
			addRows4(xtwx.data, &rows, &ws)
			k = 0
		}
	}
	for j := 0; j < k; j++ {
		addRow(xtwx.data, rows[j], ws[j])
	}
	if !finite(xtwx.data) || !finite(xtwy) {
		return nil, fmt.Errorf("mat: RidgeWLS normal equations are not finite")
	}
	xtwx.AddDiag(lambda)
	beta, err := Solve(xtwx, xtwy)
	if err != nil {
		// A touch more regularization rescues the rank-deficient case
		// that arises when perturbation sampling produces collinear
		// coalition columns.
		xtwx.AddDiag(1e-6 + lambda)
		beta, err = Solve(xtwx, xtwy)
		if err != nil {
			return nil, fmt.Errorf("ridge WLS: %w", err)
		}
	}
	return beta, nil
}

// addRows4 adds four rows, of weights w, to the Gram matrix g (d×d,
// row-major) in the order a one-row loop adds them: each element sums the
// four products left to right. Unlike the loop ridge_test.go keeps as the
// oracle (ridgeWLSLoop), it skips no product whose weighted factor
// w_i·x_i[a] is zero. With a finite other factor that product is ±0, and
// ±0 added to an accumulator that starts at +0 changes no bit
// (round-to-nearest gives −0 only from a sum of −0s). With an infinite or
// NaN one, x_i[b]·w_i is not finite either, so the oracle's Gram is not
// finite at (b, b) and RidgeWLS refuses it.
func addRows4(g []float64, rows *[4][]float64, w *[4]float64) {
	d := len(rows[0])
	r0, r1, r2, r3 := rows[0], rows[1][:d], rows[2][:d], rows[3][:d]
	for a := range r0 {
		v0, v1, v2, v3 := w[0]*r0[a], w[1]*r1[a], w[2]*r2[a], w[3]*r3[a]
		acc := g[a*d:][:d]
		for b := range acc {
			acc[b] = acc[b] + v0*r0[b] + v1*r1[b] + v2*r2[b] + v3*r3[b]
		}
	}
}

// addRow is addRows4 for one row.
func addRow(g, row []float64, w float64) {
	d := len(row)
	for a, xa := range row {
		v := w * xa
		acc := g[a*d:][:d]
		for b := range acc {
			acc[b] += v * row[b]
		}
	}
}

// finite reports whether every element of v is neither infinite nor NaN.
func finite(v []float64) bool {
	for _, f := range v {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	return true
}

// Package mat provides the small dense linear-algebra kernel that the rest
// of the repository builds on: dense matrices, vector helpers, and the
// linear solvers needed by weighted least squares (LIME, KernelSHAP) and
// regularized regression.
//
// The package is deliberately minimal: it implements exactly the operations
// the SPATIAL reproduction needs, with bounds-checked constructors and
// allocation-free hot paths where it matters.
package mat

import (
	"fmt"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (not copied) as a rows×cols matrix.
// len(data) must equal rows*cols.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows copies a slice of equal-length rows into a new matrix.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		panic("mat: FromRows with no rows")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// RowSpan returns a view of the k rows from row i on, stored back to back:
// k·Cols values.
func (m *Dense) RowSpan(i, k int) []float64 { return m.data[i*m.cols : (i+k)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	data := make([]float64, len(m.data))
	copy(data, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: data}
}

// MulVec computes m · x and stores the result in dst, which must have
// length m.Rows(). It returns dst for chaining. If dst is nil a new slice
// is allocated.
func (m *Dense) MulVec(x, dst []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: %d != %d", len(x), m.cols))
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	} else if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVec dst length %d != %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// AddDiag adds v to every diagonal element of a square matrix in place.
func (m *Dense) AddDiag(v float64) {
	if m.rows != m.cols {
		panic("mat: AddDiag on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
}

package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a pivot too
// small to divide by, i.e. the system of equations is rank-deficient and
// the affected parameters cannot be recovered exactly, and when
// FactorLeastSquares meets a NaN or ±Inf off its QR path.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a live view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

// SelectColumns returns the sub-matrix formed by the given column
// indices, preserving order. It is the building block of MILR's selective
// recovery: once 2-D CRC has localized the erroneous weights, only their
// columns of the coefficient matrix enter the reduced system (§IV-B-b).
func (m *Matrix) SelectColumns(cols []int) (*Matrix, error) {
	out := NewMatrix(m.Rows, len(cols))
	for j, c := range cols {
		if c < 0 || c >= m.Cols {
			return nil, fmt.Errorf("linalg: column %d out of range [0,%d)", c, m.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			out.Data[i*len(cols)+j] = m.Data[i*m.Cols+c]
		}
	}
	return out, nil
}

// MaxAbs returns the largest absolute entry (the ∞-norm of the flattened
// matrix), used for scale-aware singularity thresholds.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

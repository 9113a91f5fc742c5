package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row-major slice, which is used
// directly (not copied). It panics if len(data) != rows*cols.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: NewMatrixFrom: %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector sharing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns m·b as a new matrix, computed by the blocked MulInto.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: Mul %dx%d by %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	if err := MulInto(out, m, b); err != nil {
		return nil, err
	}
	return out, nil
}

// Add accumulates m += b elementwise.
func (m *Matrix) Add(b *Matrix) error {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return fmt.Errorf("%w: Add %dx%d and %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return nil
}

// Zero clears every element in place (reusable accumulator matrices).
func (m *Matrix) Zero() {
	clear(m.Data)
}

// Scale multiplies every element of m by a in place.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m+mᵀ)/2, repairing asymmetry introduced by
// floating-point accumulation order. It panics if m is not square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 { return Vector(m.Data).Norm() }

// Equal reports whether m and b agree elementwise within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	return Vector(m.Data).Equal(Vector(b.Data), tol)
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d [", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 6; i++ {
		s += "\n "
		for j := 0; j < m.Cols && j < 8; j++ {
			s += fmt.Sprintf("% .4g ", m.At(i, j))
		}
	}
	return s + "\n]"
}

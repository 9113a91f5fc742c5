package linalg

import (
	"fmt"
	"math"
)

// Helpers only this package's tests use.

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	v := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		v[i] = m.Data[i*m.Cols+j]
	}
	return v
}

// MulVec returns m·v as a new vector.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: MulVec %dx%d by %d", ErrDimension, m.Rows, m.Cols, len(v))
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out, nil
}

// MulVecInto computes dst = m·v without allocating. dst must have length
// m.Rows and must not alias v.
func (m *Matrix) MulVecInto(v, dst Vector) {
	if m.Cols != len(v) || m.Rows != len(dst) {
		panic("linalg: MulVecInto dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
}

// AddOuter accumulates m += v·vᵀ (symmetric rank-1 update).
// It panics if m is not len(v)×len(v).
func (m *Matrix) AddOuter(v Vector) {
	n := len(v)
	if m.Rows != n || m.Cols != n {
		panic("linalg: AddOuter dimension mismatch")
	}
	for i := 0; i < n; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += vi * v[j]
		}
	}
}

// Trace returns the sum of diagonal elements. It panics if m is not square.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace on non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// MaxAbsOffDiag returns the largest |m[i][j]|, i≠j. Zero for n<2.
func (m *Matrix) MaxAbsOffDiag() float64 {
	var mx float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			if a := math.Abs(m.At(i, j)); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Sub stores v-w into dst and returns dst. dst may alias v or w.
func (v Vector) Sub(w, dst Vector) Vector {
	if len(v) != len(w) || len(v) != len(dst) {
		panic("linalg: Sub length mismatch")
	}
	for i := range v {
		dst[i] = v[i] - w[i]
	}
	return dst
}

// AXPY accumulates dst += a*v and returns dst.
func (v Vector) AXPY(a float64, dst Vector) Vector {
	if len(v) != len(dst) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range v {
		dst[i] += a * v[i]
	}
	return dst
}

// Normalize scales v in place to unit norm and returns the original norm.
// A zero vector is left unchanged and 0 is returned.
func (v Vector) Normalize() float64 {
	n := v.Norm()
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// ParallelFor splits [0, n) into contiguous chunks of the given size and
// runs fn(lo, hi) for each on up to workers goroutines. Like
// ParallelShards, the chunk grid is a function of n and size only.
func ParallelFor(n, size, workers int, fn func(lo, hi int)) {
	ParallelShards(ShardCount(n, size), workers, func(s int) {
		lo, hi := ShardRange(n, size, s)
		fn(lo, hi)
	})
}

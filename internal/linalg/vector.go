// Package linalg provides the dense linear algebra kernels used by the
// spectral-screening PCT algorithm: vectors, matrices, and symmetric
// eigendecomposition. Everything is float64 and allocation-conscious; the
// hot paths (dot products, outer-product accumulation) are written so the
// compiler can keep them in registers.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// ErrDimension is returned when operand dimensions do not conform.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	// Scaled summation avoids overflow for large magnitudes.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		a := math.Abs(x)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Add stores v+w into dst and returns dst. dst may alias v or w.
func (v Vector) Add(w, dst Vector) Vector {
	if len(v) != len(w) || len(v) != len(dst) {
		panic("linalg: Add length mismatch")
	}
	for i := range v {
		dst[i] = v[i] + w[i]
	}
	return dst
}

// Scale stores a*v into dst and returns dst. dst may alias v.
func (v Vector) Scale(a float64, dst Vector) Vector {
	if len(v) != len(dst) {
		panic("linalg: Scale length mismatch")
	}
	for i := range v {
		dst[i] = a * v[i]
	}
	return dst
}

// Equal reports whether v and w agree elementwise within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Angle returns the angle in radians between v and w:
// arccos(v·w / (|v||w|)), clamped into [0, π] against rounding.
// The angle with a zero vector is defined as π/2 (maximally dissimilar),
// which keeps spectral screening total.
func Angle(v, w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return math.Pi / 2
	}
	c := v.Dot(w) / (nv * nw)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

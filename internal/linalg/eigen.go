package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: A = V·diag(λ)·Vᵀ.
// Values are sorted in descending order; Vectors.Col(k) is the unit
// eigenvector for Values[k]. Descending order is what the PCT needs: the
// high-variance principal components come first.
type Eigen struct {
	Values  Vector
	Vectors *Matrix // n×n, eigenvectors in columns
}

// ErrNotSymmetric is returned when an eigensolver is given a matrix that is
// not symmetric within the solver's tolerance.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// ErrNoConvergence is returned when an iterative eigensolver fails to
// converge within its iteration budget.
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

// EigenSym computes the eigendecomposition of symmetric matrix a with
// Householder tridiagonalization followed by the implicit-shift QL
// iteration, O(n³) with a small constant. a is not modified.
func EigenSym(a *Matrix) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	symTol := 1e-8 * (1 + a.FrobeniusNorm())
	if !a.IsSymmetric(symTol) {
		return nil, ErrNotSymmetric
	}
	e, err := tridiagQLEigen(a.Clone())
	if err != nil {
		return nil, err
	}
	e.sortDescending()
	e.canonicalizeSigns()
	return e, nil
}

// sortDescending reorders eigenpairs so Values is non-increasing.
func (e *Eigen) sortDescending() {
	n := len(e.Values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return e.Values[idx[a]] > e.Values[idx[b]] })

	vals := make(Vector, n)
	vecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		vals[newCol] = e.Values[oldCol]
		for r := 0; r < n; r++ {
			vecs.Set(r, newCol, e.Vectors.At(r, oldCol))
		}
	}
	e.Values, e.Vectors = vals, vecs
}

// canonicalizeSigns flips each eigenvector so its largest-magnitude entry is
// positive. Eigenvectors are only defined up to sign; fixing a convention
// makes distributed and sequential runs produce identical transforms.
func (e *Eigen) canonicalizeSigns() {
	n := len(e.Values)
	for c := 0; c < n; c++ {
		best, bestAbs := 0.0, -1.0
		for r := 0; r < n; r++ {
			if a := math.Abs(e.Vectors.At(r, c)); a > bestAbs {
				bestAbs, best = a, e.Vectors.At(r, c)
			}
		}
		if best < 0 {
			for r := 0; r < n; r++ {
				e.Vectors.Set(r, c, -e.Vectors.At(r, c))
			}
		}
	}
}

// TransformMatrix returns the k×n PCT transformation matrix: the first k
// eigenvectors as rows, so y = T·(x-mean) projects a pixel vector onto the
// leading k principal components.
func (e *Eigen) TransformMatrix(k int) (*Matrix, error) {
	n := len(e.Values)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: TransformMatrix k=%d of n=%d", ErrDimension, k, n)
	}
	t := NewMatrix(k, n)
	for r := 0; r < k; r++ {
		for c := 0; c < n; c++ {
			t.Set(r, c, e.Vectors.At(c, r)) // row r = eigenvector r
		}
	}
	return t, nil
}

// tridiagQLEigen reduces a to tridiagonal form with Householder reflections
// and diagonalizes with implicit-shift QL. a is destroyed; on return it
// holds the accumulated orthogonal transform (eigenvectors in columns).
func tridiagQLEigen(a *Matrix) (*Eigen, error) {
	n := a.Rows
	d := make(Vector, n) // diagonal
	e := make(Vector, n) // sub-diagonal (e[0] unused)
	householderTridiag(a, d, e)
	if err := tqlImplicit(d, e, a); err != nil {
		return nil, err
	}
	return &Eigen{Values: d, Vectors: a}, nil
}

// householderTridiag reduces symmetric a to tridiagonal form, storing the
// diagonal in d and sub-diagonal in e[1:]; a is overwritten with the
// accumulated orthogonal matrix Q such that Qᵀ·A·Q = tridiag(d, e).
func householderTridiag(a *Matrix, d, e Vector) {
	n := a.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a.At(i, k))
			}
			if scale == 0 {
				e[i] = a.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					a.Set(i, k, a.At(i, k)/scale)
					h += a.At(i, k) * a.At(i, k)
				}
				f := a.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					a.Set(j, i, a.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += a.At(j, k) * a.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += a.At(k, j) * a.At(i, k)
					}
					e[j] = g / h
					f += e[j] * a.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a.Set(j, k, a.At(j, k)-f*e[k]-g*a.At(i, k))
					}
				}
			}
		} else {
			e[i] = a.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate transformation matrix.
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += a.At(i, k) * a.At(k, j)
				}
				for k := 0; k <= l; k++ {
					a.Set(k, j, a.At(k, j)-g*a.At(k, i))
				}
			}
		}
		d[i] = a.At(i, i)
		a.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			a.Set(j, i, 0)
			a.Set(i, j, 0)
		}
	}
}

// tqlImplicit diagonalizes a symmetric tridiagonal matrix (diagonal d,
// sub-diagonal e[1:]) with the implicit-shift QL algorithm, accumulating
// rotations into z (the eigenvector matrix).
func tqlImplicit(d, e Vector, z *Matrix) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const maxIter = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64*dd || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return fmt.Errorf("%w: QL at eigenvalue %d after %d iterations", ErrNoConvergence, l, maxIter)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < z.Rows; k++ {
					f := z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkEigen verifies the fundamental eigendecomposition invariants:
// residual, orthonormality, descending order, trace preservation.
func checkEigen(t *testing.T, a *Matrix, e *Eigen) {
	t.Helper()
	n := a.Rows
	scale := 1 + a.FrobeniusNorm()

	// A·v_k = λ_k·v_k
	for k := 0; k < n; k++ {
		v := e.Vectors.Col(k)
		av, err := a.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		lv := v.Scale(e.Values[k], v.Clone())
		if !av.Equal(lv, 1e-8*scale) {
			t.Fatalf("eigenpair %d: |A·v - λ·v| too large (λ=%g)", k, e.Values[k])
		}
	}
	// Vᵀ·V = I
	vt := e.Vectors.Transpose()
	prod, err := vt.Mul(e.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(Identity(n), 1e-8) {
		t.Fatal("eigenvectors not orthonormal")
	}
	// Sorted descending.
	for k := 1; k < n; k++ {
		if e.Values[k] > e.Values[k-1]+1e-10*scale {
			t.Fatalf("eigenvalues not descending: %v", e.Values)
		}
	}
	// Trace preserved.
	var sum float64
	for _, l := range e.Values {
		sum += l
	}
	if math.Abs(sum-a.Trace()) > 1e-8*scale {
		t.Fatalf("trace %g != eigenvalue sum %g", a.Trace(), sum)
	}
}

// solvers runs a test against the production EigenSym and against the
// cyclic Jacobi reference: slower than tridiagonal QL but exceptionally
// robust, so agreement between the two cross-checks QL.
var solvers = []struct {
	name  string
	eigen func(*Matrix) (*Eigen, error)
}{
	{"tridiag-ql", EigenSym},
	{"jacobi", jacobiSym},
}

// jacobiSym is EigenSym with the Jacobi reference in place of QL.
func jacobiSym(a *Matrix) (*Eigen, error) {
	e, err := jacobiEigen(a.Clone())
	if err != nil {
		return nil, err
	}
	e.sortDescending()
	e.canonicalizeSigns()
	return e, nil
}

// jacobiEigen runs cyclic Jacobi sweeps on a (which it destroys).
func jacobiEigen(a *Matrix) (*Eigen, error) {
	n := a.Rows
	v := Identity(n)
	if n == 1 {
		return &Eigen{Values: Vector{a.At(0, 0)}, Vectors: v}, nil
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := a.MaxAbsOffDiag()
		if off == 0 {
			break
		}
		// Convergence threshold scaled to the matrix magnitude.
		thresh := 1e-14 * a.FrobeniusNorm()
		if off <= thresh {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= thresh/float64(n*n) {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e150 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)

				a.Set(p, p, app-t*apq)
				a.Set(q, q, aqq+t*apq)
				a.Set(p, q, 0)
				a.Set(q, p, 0)
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip, aiq := a.At(i, p), a.At(i, q)
						a.Set(i, p, aip-s*(aiq+tau*aip))
						a.Set(p, i, a.At(i, p))
						a.Set(i, q, aiq+s*(aip-tau*aiq))
						a.Set(q, i, a.At(i, q))
					}
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, vip-s*(viq+tau*vip))
					v.Set(i, q, viq+s*(vip-tau*viq))
				}
			}
		}
		if sweep == maxSweeps-1 {
			return nil, fmt.Errorf("%w: jacobi after %d sweeps (off-diag %g)", ErrNoConvergence, maxSweeps, a.MaxAbsOffDiag())
		}
	}
	vals := make(Vector, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	return &Eigen{Values: vals, Vectors: v}, nil
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	for _, solver := range solvers {
		e, err := solver.eigen(a)
		if err != nil {
			t.Fatalf("%s: %v", solver.name, err)
		}
		if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
			t.Fatalf("%s: eigenvalues = %v, want [3 1]", solver.name, e.Values)
		}
		checkEigen(t, a, e)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{-1, 0, 0, 0, 5, 0, 0, 0, 2})
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{5, 2, -1}
	if !e.Values.Equal(want, 1e-12) {
		t.Fatalf("eigenvalues = %v, want %v", e.Values, want)
	}
	checkEigen(t, a, e)
}

func TestEigenSym1x1(t *testing.T) {
	a := NewMatrixFrom(1, 1, []float64{-7})
	for _, solver := range solvers {
		e, err := solver.eigen(a)
		if err != nil {
			t.Fatalf("%s: %v", solver.name, err)
		}
		if e.Values[0] != -7 {
			t.Fatalf("%s: values = %v", solver.name, e.Values)
		}
		if math.Abs(math.Abs(e.Vectors.At(0, 0))-1) > 1e-15 {
			t.Fatalf("%s: vector = %v", solver.name, e.Vectors)
		}
	}
}

func TestEigenSymZeroMatrix(t *testing.T) {
	a := NewMatrix(4, 4)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range e.Values {
		if l != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", e.Values)
		}
	}
	checkEigen(t, a, e)
}

func TestEigenSymRepeatedEigenvalues(t *testing.T) {
	// 2·I has eigenvalue 2 with multiplicity 3.
	a := Identity(3)
	a.Scale(2)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range e.Values {
		if math.Abs(l-2) > 1e-12 {
			t.Fatalf("eigenvalues = %v", e.Values)
		}
	}
	checkEigen(t, a, e)
}

func TestEigenSymRandomBothSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSymmetric(rng, n)
		for _, solver := range solvers {
			e, err := solver.eigen(a)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, solver.name, err)
			}
			checkEigen(t, a, e)
		}
	}
}

func TestEigenSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		e1, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := jacobiSym(a)
		if err != nil {
			t.Fatal(err)
		}
		if !e1.Values.Equal(e2.Values, 1e-7*(1+a.FrobeniusNorm())) {
			t.Fatalf("solver eigenvalues disagree:\n%v\n%v", e1.Values, e2.Values)
		}
	}
}

func TestEigenSymPSD(t *testing.T) {
	// Covariance-like matrices (B·Bᵀ) must have non-negative eigenvalues.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		b := randomMatrix(rng, n, n+3)
		bt := b.Transpose()
		a, err := b.Mul(bt)
		if err != nil {
			t.Fatal(err)
		}
		a.Symmetrize()
		e, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range e.Values {
			if l < -1e-8*(1+a.FrobeniusNorm()) {
				t.Fatalf("PSD matrix has negative eigenvalue %g", l)
			}
		}
		checkEigen(t, a, e)
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	if _, err := EigenSym(a); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestEigenSymRejectsNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := EigenSym(a); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestEigenDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randomSymmetric(rng, 6)
	before := a.Clone()
	if _, err := EigenSym(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(before, 0) {
		t.Fatal("EigenSym modified its input")
	}
}

func TestSignCanonicalization(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomSymmetric(rng, 7)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 7; c++ {
		bestAbs, best := -1.0, 0.0
		for r := 0; r < 7; r++ {
			if ab := math.Abs(e.Vectors.At(r, c)); ab > bestAbs {
				bestAbs, best = ab, e.Vectors.At(r, c)
			}
		}
		if best < 0 {
			t.Fatalf("column %d: largest-magnitude entry is negative", c)
		}
	}
}

func TestTransformMatrix(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := e.TransformMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Rows != 1 || tm.Cols != 2 {
		t.Fatalf("TransformMatrix dims %dx%d", tm.Rows, tm.Cols)
	}
	// Leading eigenvector of [[2,1],[1,2]] is (1,1)/√2.
	want := 1 / math.Sqrt2
	if math.Abs(tm.At(0, 0)-want) > 1e-12 || math.Abs(tm.At(0, 1)-want) > 1e-12 {
		t.Fatalf("TransformMatrix = %v", tm)
	}
	if _, err := e.TransformMatrix(0); !errors.Is(err, ErrDimension) {
		t.Fatalf("k=0 error = %v", err)
	}
	if _, err := e.TransformMatrix(3); !errors.Is(err, ErrDimension) {
		t.Fatalf("k=3 error = %v", err)
	}
}

func TestEigenLargerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(47))
	a := randomSymmetric(rng, 64)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	checkEigen(t, a, e)
}

package pct

import (
	"errors"
	"math/rand"
	"testing"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
)

func TestMeanOf(t *testing.T) {
	vs := []linalg.Vector{{1, 10}, {3, 30}}
	m, err := MeanOf(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(linalg.Vector{2, 20}, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if _, err := MeanOf(nil); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := MeanOf([]linalg.Vector{{1}, {1, 2}}); !errors.Is(err, linalg.ErrDimension) {
		t.Fatalf("ragged err = %v", err)
	}
}

func TestCovarianceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]linalg.Vector, 50)
	for i := range vs {
		vs[i] = linalg.Vector{rng.NormFloat64(), 2 * rng.NormFloat64(), rng.NormFloat64() * 0.5}
	}
	cov, mean, err := CovarianceOf(vs)
	if err != nil {
		t.Fatal(err)
	}
	// Naive direct computation.
	n := 3
	want := linalg.NewMatrix(n, n)
	for _, v := range vs {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+(v[i]-mean[i])*(v[j]-mean[j]))
			}
		}
	}
	want.Scale(1 / float64(len(vs)))
	if !cov.Equal(want, 1e-10) {
		t.Fatal("covariance differs from definition")
	}
	if !cov.IsSymmetric(0) {
		t.Fatal("covariance not exactly symmetric after Symmetrize")
	}
}

func TestCovariancePartialsEqualWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := make([]linalg.Vector, 60)
	for i := range vs {
		vs[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	mean, err := MeanOf(vs)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := CovarianceSum(vs, mean)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := CovarianceSum(vs[:20], mean)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CovarianceSum(vs[20:], mean)
	if err != nil {
		t.Fatal(err)
	}
	covWhole, err := Covariance([]*linalg.Matrix{whole}, 60)
	if err != nil {
		t.Fatal(err)
	}
	covParts, err := Covariance([]*linalg.Matrix{p1, p2}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !covWhole.Equal(covParts, 1e-12) {
		t.Fatal("partitioned covariance differs — distributed step 4/5 would be wrong")
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance(nil, 5); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("nil partials err = %v", err)
	}
	m := linalg.NewMatrix(2, 2)
	if _, err := Covariance([]*linalg.Matrix{m}, 0); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("count 0 err = %v", err)
	}
	if _, err := Covariance([]*linalg.Matrix{m, linalg.NewMatrix(3, 3)}, 5); !errors.Is(err, linalg.ErrDimension) {
		t.Fatalf("mismatched partials err = %v", err)
	}
	if _, err := CovarianceSum([]linalg.Vector{{1, 2, 3}}, linalg.Vector{1}); !errors.Is(err, linalg.ErrDimension) {
		t.Fatalf("bad mean err = %v", err)
	}
}

func TestTransformCubeMatchesManual(t *testing.T) {
	cube := hsi.MustNewCube(2, 1, 2)
	cube.SetPixel(0, 0, linalg.Vector{3, 4})
	cube.SetPixel(1, 0, linalg.Vector{5, 6})
	mean := linalg.Vector{1, 2}
	tr := linalg.NewMatrixFrom(2, 2, []float64{1, 0, 0, 2}) // diag(1,2)
	out, err := TransformCubePar(cube, tr, mean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pixel(0, 0).Equal(linalg.Vector{2, 4}, 1e-6) {
		t.Fatalf("pixel0 = %v", out.Pixel(0, 0))
	}
	if !out.Pixel(1, 0).Equal(linalg.Vector{4, 8}, 1e-6) {
		t.Fatalf("pixel1 = %v", out.Pixel(1, 0))
	}
	if _, err := TransformCubePar(cube, linalg.NewMatrix(2, 3), mean, 0); !errors.Is(err, linalg.ErrDimension) {
		t.Fatalf("bad transform err = %v", err)
	}
}

// CovarianceOf is the single-shot covariance of a vector set about its own
// mean — the sequential composition of steps 3–5.
func CovarianceOf(vectors []linalg.Vector) (*linalg.Matrix, linalg.Vector, error) {
	mean, err := MeanOf(vectors)
	if err != nil {
		return nil, nil, err
	}
	sum, err := CovarianceSum(vectors, mean)
	if err != nil {
		return nil, nil, err
	}
	cov, err := Covariance([]*linalg.Matrix{sum}, len(vectors))
	if err != nil {
		return nil, nil, err
	}
	return cov, mean, nil
}

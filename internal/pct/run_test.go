package pct_test

import (
	"errors"
	"math"
	"testing"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
)

// The whole-image spectral-screening PCT is core.Sequential at one
// worker and one sub-cube; these tests check its properties with the
// component planes recomputed by pct.TransformCubePar from the run's
// Mean and Transform.

func sceneCube(t *testing.T) *hsi.Cube {
	t.Helper()
	s, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 32, Height: 32, Bands: 24, Seed: 5,
		NoiseSigma: 3, Illumination: 0.1,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cube
}

// run is the whole-image pipeline with the given component count and
// kernel parallelism (0 selects the defaults).
func run(cube *hsi.Cube, components, parallelism int) (*core.Result, error) {
	return core.Sequential(cube, core.Options{
		Workers: 1, Granularity: 1, Components: components, Parallelism: parallelism,
	})
}

// components projects cube onto res's principal components.
func components(t *testing.T, cube *hsi.Cube, res *core.Result) *hsi.Cube {
	t.Helper()
	comps, err := pct.TransformCubePar(cube, res.Transform, res.Mean, 0)
	if err != nil {
		t.Fatal(err)
	}
	return comps
}

func TestRunProducesOrderedComponents(t *testing.T) {
	cube := sceneCube(t)
	res, err := run(cube, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	comps := components(t, cube, res)
	if comps.Bands != 3 {
		t.Fatalf("components bands = %d", comps.Bands)
	}
	if comps.Width != cube.Width || comps.Height != cube.Height {
		t.Fatal("component geometry mismatch")
	}
	if res.UniqueSetSize == 0 || res.UniqueSetSize > cube.Pixels() {
		t.Fatalf("unique set size %d", res.UniqueSetSize)
	}
	// Eigenvalues descending and non-negative (covariance is PSD).
	tol := 1e-6 * (1 + math.Abs(res.Eigenvalues[0]))
	for i, ev := range res.Eigenvalues {
		if ev < -tol {
			t.Fatalf("negative eigenvalue %g", ev)
		}
		if i > 0 && ev > res.Eigenvalues[i-1]+1e-9 {
			t.Fatal("eigenvalues not sorted")
		}
	}
	// Empirical variance of PC planes must be decreasing: PCT packs
	// information into the front components.
	var1 := planeVariance(comps, 0)
	var3 := planeVariance(comps, 2)
	if var1 <= var3 {
		t.Fatalf("PC1 variance %g <= PC3 variance %g", var1, var3)
	}
}

func planeVariance(c *hsi.Cube, band int) float64 {
	plane, _ := c.Band(band)
	var mean float64
	for _, v := range plane {
		mean += v
	}
	mean /= float64(len(plane))
	var ss float64
	for _, v := range plane {
		ss += (v - mean) * (v - mean)
	}
	return ss / float64(len(plane))
}

func TestRunDecorrelatesComponents(t *testing.T) {
	cube := sceneCube(t)
	res, err := run(cube, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Correlation between PC planes over the *unique set statistics*
	// should be near zero; empirically over all pixels it is small.
	comps := components(t, cube, res)
	p0, _ := comps.Band(0)
	p1, _ := comps.Band(1)
	r := correlation(p0, p1)
	if math.Abs(r) > 0.35 {
		t.Fatalf("PC1/PC2 correlation %.3f too high", r)
	}
}

func correlation(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

func TestRunValidation(t *testing.T) {
	cube := sceneCube(t)
	if _, err := run(cube, 999, 0); !errors.Is(err, linalg.ErrDimension) {
		t.Fatalf("too many components err = %v", err)
	}
	bad := &hsi.Cube{Width: 2, Height: 2, Bands: 2, Data: []float32{1}}
	if _, err := run(bad, 0, 0); !errors.Is(err, hsi.ErrShape) {
		t.Fatalf("invalid cube err = %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	cube := sceneCube(t)
	a, err := run(cube, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cube, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !components(t, cube, a).Equal(components(t, cube, b), 0) {
		t.Fatal("the sequential pipeline is not deterministic")
	}
}

// Runs with different Parallelism settings must be bit-identical end to
// end — the Options knob is wall-clock only.
func TestRunParallelismInvariant(t *testing.T) {
	cube := sceneCube(t)
	serial, err := run(cube, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := run(cube, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !components(t, cube, serial).Equal(components(t, cube, wide), 0) {
		t.Fatal("components differ across Parallelism settings")
	}
	if !serial.Mean.Equal(wide.Mean, 0) || !serial.Transform.Equal(wide.Transform, 0) {
		t.Fatal("statistics differ across Parallelism settings")
	}
}

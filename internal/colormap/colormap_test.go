package colormap

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
)

func TestStretchApply(t *testing.T) {
	s := Stretch{Center: 10, Scale: 2}
	if got := s.Apply(10); got != 128 {
		t.Fatalf("center maps to %g", got)
	}
	if got := s.Apply(1e9); got != 255 {
		t.Fatalf("clamp high = %g", got)
	}
	if got := s.Apply(-1e9); got != 0 {
		t.Fatalf("clamp low = %g", got)
	}
	if got := s.Apply(20); got != 148 {
		t.Fatalf("Apply(20) = %g", got)
	}
}

func TestVarianceStretch(t *testing.T) {
	st := VarianceStretch(linalg.Vector{16, 4, 0}, 2)
	// sigma=4, k=2 -> scale = 128/8 = 16.
	if math.Abs(st[0].Scale-16) > 1e-12 {
		t.Fatalf("scale[0] = %g", st[0].Scale)
	}
	if st[2].Scale != 0 {
		t.Fatalf("zero-variance scale = %g", st[2].Scale)
	}
	// k<=0 defaults to 3.
	st = VarianceStretch(linalg.Vector{9}, 0)
	if math.Abs(st[0].Scale-128.0/9) > 1e-12 {
		t.Fatalf("default-k scale = %g", st[0].Scale)
	}
	// Negative eigenvalue (numerical noise) treated as zero variance.
	st = VarianceStretch(linalg.Vector{-1}, 3)
	if st[0].Scale != 0 {
		t.Fatalf("negative eigenvalue scale = %g", st[0].Scale)
	}
}

func TestPercentileStretch(t *testing.T) {
	plane := make([]float64, 101)
	for i := range plane {
		plane[i] = float64(i) // 0..100
	}
	s := PercentileStretch(plane, 0, 1)
	if got := s.Apply(0); got > 1 {
		t.Fatalf("low end = %g", got)
	}
	if got := s.Apply(100); got < 254 {
		t.Fatalf("high end = %g", got)
	}
	if got := s.Apply(50); math.Abs(got-127.5) > 1 {
		t.Fatalf("mid = %g", got)
	}
	// Degenerate inputs.
	if s := PercentileStretch(nil, 0.02, 0.98); s.Scale != 0 {
		t.Fatal("empty plane should give zero scale")
	}
	if s := PercentileStretch(plane, 0.9, 0.1); s.Scale != 0 {
		t.Fatal("inverted percentiles should give zero scale")
	}
	flat := []float64{5, 5, 5}
	if s := PercentileStretch(flat, 0.02, 0.98); s.Scale != 0 {
		t.Fatal("flat plane should give zero scale")
	}
}

func TestMapPixelNeutral(t *testing.T) {
	// A neutral (128,128,128) component triple maps to mid gray.
	r, g, b := MapPixel([3]float64{128, 128, 128})
	if r != 128 || g != 128 || b != 128 {
		t.Fatalf("neutral -> %d,%d,%d", r, g, b)
	}
	// Raising PC1 (achromatic) raises R and G (positive column-1 weights).
	r2, g2, _ := MapPixel([3]float64{228, 128, 128})
	if r2 <= r || g2 <= g {
		t.Fatalf("achromatic increase did not brighten: %d,%d", r2, g2)
	}
}

func TestMapPixelOpponency(t *testing.T) {
	// PC2 drives red-green opponency: increasing it should move R and G
	// in *different* directions relative to their weights' signs.
	_, _, bHi := MapPixel([3]float64{128, 128, 228})
	_, _, bLo := MapPixel([3]float64{128, 128, 28})
	if bHi == bLo {
		t.Fatal("PC3 had no effect on blue channel")
	}
}

func TestComposeValidation(t *testing.T) {
	two := hsi.MustNewCube(2, 2, 2)
	if _, err := Compose(two, make([]Stretch, 3)); !errors.Is(err, ErrNeedThreeComponents) {
		t.Fatalf("2-band err = %v", err)
	}
	three := hsi.MustNewCube(2, 2, 3)
	if _, err := Compose(three, make([]Stretch, 2)); err == nil {
		t.Fatal("2 stretches accepted")
	}
}

func TestRenderBand(t *testing.T) {
	scene, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 24, Height: 24, Bands: 16, Seed: 7, NoiseSigma: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := RenderBand(scene.Cube, 0)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 24 || img.Bounds().Dy() != 24 {
		t.Fatalf("bounds = %v", img.Bounds())
	}
	if _, err := RenderBand(scene.Cube, 99); err == nil {
		t.Fatal("band 99 accepted")
	}
	img2, band, err := RenderBandNearest(scene.Cube, 1998)
	if err != nil || img2 == nil {
		t.Fatalf("RenderBandNearest: %v", err)
	}
	if band <= 0 || band >= 16 {
		t.Fatalf("nearest band = %d", band)
	}
	noWl := scene.Cube.Clone()
	noWl.Wavelengths = nil
	if _, _, err := RenderBandNearest(noWl, 1998); err == nil {
		t.Fatal("missing wavelengths accepted")
	}
}

func TestRenderTruthAndWritePNG(t *testing.T) {
	scene, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 16, Height: 16, Bands: 8, Seed: 8,
		OpenVehicles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := RenderTruth(scene.Truth, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truth.png")
	if err := WritePNG(path, img); err != nil {
		t.Fatal(err)
	}
	if _, err := RenderTruth(scene.Truth, 5, 5); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if err := WritePNG("/nonexistent-dir/x.png", img); err == nil {
		t.Fatal("bad path accepted")
	}
}

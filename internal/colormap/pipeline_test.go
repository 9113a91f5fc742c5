package colormap_test

import (
	"image"
	"math"
	"testing"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/pct"
)

func TestComposeOnRealPipeline(t *testing.T) {
	scene, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 40, Height: 40, Bands: 32, Seed: 6,
		NoiseSigma: 3, Illumination: 0.1,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The whole-image PCT: the sequential pipeline at one worker and one
	// sub-cube, its components projected by the pct kernel.
	res, err := core.Sequential(scene.Cube, core.Options{Workers: 1, Granularity: 1})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := pct.TransformCubePar(scene.Cube, res.Transform, res.Mean, 0)
	if err != nil {
		t.Fatal(err)
	}
	img, err := colormap.Compose(comps, colormap.VarianceStretch(res.Eigenvalues[:3], 3))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds() != image.Rect(0, 0, 40, 40) {
		t.Fatalf("bounds = %v", img.Bounds())
	}
	// The composite must not be flat: contrast is the point of fusion.
	if imageStdDev(img) < 5 {
		t.Fatalf("composite nearly flat, stddev=%g", imageStdDev(img))
	}
}

func imageStdDev(img *image.RGBA) float64 {
	var sum, ss, n float64
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := img.RGBAAt(x, y)
			v := float64(c.R) + float64(c.G) + float64(c.B)
			sum += v
			ss += v * v
			n++
		}
	}
	mean := sum / n
	return math.Sqrt(ss/n - mean*mean)
}

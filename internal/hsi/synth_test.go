package hsi

import (
	"errors"
	"math"
	"testing"

	"resilientfusion/internal/linalg"
)

func smallSpec() SceneSpec {
	return SceneSpec{
		Width: 64, Height: 64, Bands: 32, Seed: 3,
		NoiseSigma: 4, Illumination: 0.1,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	}
}

func TestGenerateSceneDeterministic(t *testing.T) {
	a, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cube.Equal(b.Cube, 0) {
		t.Fatal("same seed produced different cubes")
	}
	for i := range a.Truth {
		if a.Truth[i] != b.Truth[i] {
			t.Fatal("same seed produced different truth")
		}
	}
	spec2 := smallSpec()
	spec2.Seed = 4
	c, err := GenerateScene(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cube.Equal(c.Cube, 0) {
		t.Fatal("different seeds produced identical cubes")
	}
}

func TestGenerateSceneShape(t *testing.T) {
	s, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cube.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Truth) != 64*64 {
		t.Fatalf("truth len %d", len(s.Truth))
	}
	if s.Cube.Wavelengths[0] != 400 || s.Cube.Wavelengths[31] != 2500 {
		t.Fatalf("wavelength range %g..%g", s.Cube.Wavelengths[0], s.Cube.Wavelengths[31])
	}
	if _, err := GenerateScene(SceneSpec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("empty spec err = %v", err)
	}
}

func TestSceneContainsExpectedMaterials(t *testing.T) {
	s, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	frac := s.SceneMaterialFractions()
	if frac[MaterialForest] < 0.2 {
		t.Fatalf("forest fraction %.3f too small", frac[MaterialForest])
	}
	if frac[MaterialVehicle] == 0 {
		t.Fatal("no vehicle pixels")
	}
	if frac[MaterialCamouflage] == 0 {
		t.Fatal("no camouflage pixels")
	}
	// Vehicles must be rare — that's the premise of spectral screening.
	if frac[MaterialVehicle] > 0.05 {
		t.Fatalf("vehicle fraction %.3f not rare", frac[MaterialVehicle])
	}
}

func TestSceneSamplesInSensorRange(t *testing.T) {
	s, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Cube.Data {
		if v < 0 || float64(v) > sensorFullScale*1.5 || math.IsNaN(float64(v)) {
			t.Fatalf("sample %d out of range: %g", i, v)
		}
	}
}

func TestVehicleSignatureDistinctFromVegetation(t *testing.T) {
	wl := DefaultWavelengths(64)
	veh := SignatureFor(MaterialVehicle, wl)
	forest := SignatureFor(MaterialForest, wl)
	field := SignatureFor(MaterialField, wl)
	camo := SignatureFor(MaterialCamouflage, wl)

	if a := linalg.Angle(veh, forest); a < 0.15 {
		t.Fatalf("vehicle-forest angle %.3f too small for screening to work", a)
	}
	// Camouflage mimics vegetation: closer to forest than bare vehicle is.
	if linalg.Angle(camo, forest) >= linalg.Angle(veh, forest) {
		t.Fatal("camouflage should be spectrally closer to forest than vehicle is")
	}
	// Vegetation red edge: NIR (~860nm) much brighter than red (~670nm).
	redIdx, nirIdx := nearestIdx(wl, 670), nearestIdx(wl, 860)
	if forest[nirIdx] < 2*forest[redIdx] {
		t.Fatalf("forest lacks red edge: red=%.1f nir=%.1f", forest[redIdx], forest[nirIdx])
	}
	// Vehicle paint has no red edge.
	if veh[nirIdx] > 2*veh[redIdx] {
		t.Fatalf("vehicle shows red edge: red=%.1f nir=%.1f", veh[redIdx], veh[nirIdx])
	}
	_ = field
}

func nearestIdx(wl []float64, nm float64) int {
	best, bd := 0, math.Inf(1)
	for i, w := range wl {
		if d := math.Abs(w - nm); d < bd {
			best, bd = i, d
		}
	}
	return best
}

func TestTruthAt(t *testing.T) {
	s, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for y := 0; y < 64 && !found; y++ {
		for x := 0; x < 64 && !found; x++ {
			if s.TruthAt(x, y) == MaterialVehicle {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("TruthAt never reported a vehicle")
	}
}

func TestMaterialString(t *testing.T) {
	for _, m := range Materials() {
		if m.String() == "unknown" {
			t.Fatalf("material %d has no name", m)
		}
	}
	if Material(200).String() != "unknown" {
		t.Fatal("out-of-range material should be unknown")
	}
}

func TestSignatureReflectanceBounds(t *testing.T) {
	wl := DefaultWavelengths(210)
	for _, m := range Materials() {
		sig := SignatureFor(m, wl)
		for i, v := range sig {
			if v < 0 || v > sensorFullScale {
				t.Fatalf("%v band %d out of range: %g", m, i, v)
			}
		}
		if sig.Norm() == 0 {
			t.Fatalf("%v signature is zero", m)
		}
	}
}

func TestValueNoiseSmoothAndBounded(t *testing.T) {
	s, err := GenerateScene(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Indirect smoothness check: neighbouring pixels of the same material
	// should have highly similar spectra (angle below the screening
	// threshold scale).
	c := s.Cube
	pairs, close := 0, 0
	for y := 0; y < c.Height-1; y++ {
		for x := 0; x < c.Width-1; x++ {
			if s.TruthAt(x, y) != s.TruthAt(x+1, y) {
				continue
			}
			a := linalg.Angle(c.Pixel(x, y), c.Pixel(x+1, y))
			pairs++
			if a < 0.1 {
				close++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no same-material neighbour pairs")
	}
	if float64(close)/float64(pairs) < 0.95 {
		t.Fatalf("only %d/%d same-material neighbours spectrally close", close, pairs)
	}
}

// TruthAt returns the ground-truth material at (x, y).
func (s *Scene) TruthAt(x, y int) Material { return s.Truth[y*s.Cube.Width+x] }

// SceneMaterialFractions reports the fraction of pixels per material —
// useful for validating that targets are genuinely rare (the condition
// spectral screening is designed for).
func (s *Scene) SceneMaterialFractions() map[Material]float64 {
	counts := make(map[Material]int, numMaterials)
	for _, m := range s.Truth {
		counts[m]++
	}
	n := float64(len(s.Truth))
	out := make(map[Material]float64, len(counts))
	for m, c := range counts {
		// Keyed writes of exact integer counts: order-independent, so
		// the map range stays inside the detsource contract.
		out[m] = float64(c) / n
	}
	return out
}

package hsi

import (
	"fmt"
	"math/rand"
)

// SceneSpec configures the synthetic HYDICE-like scene generator.
type SceneSpec struct {
	Width, Height int
	Bands         int
	Seed          int64

	// NoiseSigma is the additive Gaussian sensor noise in counts
	// (full scale 4095). HYDICE-era SNR suggests a few counts.
	NoiseSigma float64
	// Illumination is the amplitude of the smooth multiplicative
	// illumination field (0 disables it).
	Illumination float64
	// OpenVehicles is the number of mechanized vehicles placed in the
	// open field; CamouflagedVehicles are placed under netting in the
	// lower-left forest, as in the paper's Figure 3 description.
	OpenVehicles        int
	CamouflagedVehicles int
	// SpectralVariability is the amplitude of smooth per-pixel spectral
	// *direction* changes: a moisture field that modulates water-band
	// absorption depth and a wavelength tilt field. Real HYDICE scenes
	// have substantial within-class variability — it is what gives the
	// screening phase a non-trivial unique set. 0 disables.
	SpectralVariability float64
}

// DefaultSceneSpec mirrors the paper's experimental cube: 320×320 pixels.
// Bands defaults to 210 (the full HYDICE channel count); the performance
// experiments in §4 used the 105-band half cube, which callers get by
// setting Bands: 105.
func DefaultSceneSpec() SceneSpec {
	return SceneSpec{
		Width:               320,
		Height:              320,
		Bands:               210,
		Seed:                1,
		NoiseSigma:          6,
		Illumination:        0.12,
		OpenVehicles:        2,
		CamouflagedVehicles: 1,
		SpectralVariability: 0.12,
	}
}

// Scene bundles a generated cube with its ground truth.
type Scene struct {
	Cube  *Cube
	Truth []Material // len Width*Height, row-major
	Spec  SceneSpec
}

// GenerateScene builds a deterministic synthetic foliated scene:
// forest background, an open field with a dirt road, mechanized vehicles
// in the open, and a camouflaged vehicle in the lower-left quadrant.
// Identical specs produce identical cubes.
func GenerateScene(spec SceneSpec) (*Scene, error) {
	if spec.Width <= 0 || spec.Height <= 0 || spec.Bands <= 0 {
		return nil, fmt.Errorf("%w: scene %dx%dx%d", ErrShape, spec.Width, spec.Height, spec.Bands)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	w, h := spec.Width, spec.Height

	truth := layoutScene(spec, rng)

	cube := MustNewCube(w, h, spec.Bands)
	cube.Wavelengths = DefaultWavelengths(spec.Bands)

	// Pre-sample dry and wet signature variants per material: the wet
	// variant has full-depth leaf-water absorption, the dry variant half
	// depth. Pixels interpolate by a smooth moisture field, which moves
	// the spectral *direction*, not just the brightness — exactly the
	// within-class variability that gives screening a non-trivial
	// unique set on real HYDICE scenes.
	drySigs := make([][]float64, numMaterials)
	wetSigs := make([][]float64, numMaterials)
	for _, m := range Materials() {
		drySigs[m] = signatureMoisture(m, cube.Wavelengths, 0.5)
		wetSigs[m] = signatureMoisture(m, cube.Wavelengths, 1.0)
	}
	// tiltShape is a normalized wavelength ramp in [-0.5, 0.5].
	tiltShape := make([]float64, spec.Bands)
	if spec.Bands > 1 {
		for b, wl := range cube.Wavelengths {
			tiltShape[b] = (wl-cube.Wavelengths[0])/(cube.Wavelengths[spec.Bands-1]-cube.Wavelengths[0]) - 0.5
		}
	}

	// Variability fields. Illumination is landscape-scale; moisture,
	// tilt and mixing are deliberately fine-grained (a few pixels) so
	// that any sub-cube slab samples the full within-class variability —
	// per-part unique sets then saturate and total screening work is
	// independent of the decomposition granularity, matching the paper's
	// fixed-work scaling methodology.
	illum := newValueNoise(rng, w, h, 24)
	texture := newValueNoise(rng, w, h, 6)
	moisture := newValueNoise(rng, w, h, 6)
	tilt := newValueNoise(rng, w, h, 5)

	sv := spec.SpectralVariability
	mixing := newValueNoise(rng, w, h, 6)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m := truth[y*w+x]
			dry, wet := drySigs[m], wetSigs[m]
			bright := 1.0
			if spec.Illumination > 0 {
				bright += spec.Illumination * illum.at(x, y)
			}
			// Within-class brightness texture: smooth ±6%.
			bright *= 1 + 0.06*texture.at(x, y)
			wetFrac, a, mixFrac := 1.0, 0.0, 0.0
			var mixDry, mixWet []float64
			if sv > 0 {
				// Discrete variant classes rather than a continuum:
				// real scenes have a bounded set of within-class
				// variants (species, leaf age, soil type), so each
				// material contributes a bounded number of unique-set
				// members — any reasonably sized sub-cube rediscovers
				// the same variants, making total screening work nearly
				// independent of the decomposition granularity.
				wetFrac = 0.7 + 0.6*quantize(moisture.at(x, y), 3) // [0.1, 1.3] in 4 steps
				a = 2 * sv * quantize(tilt.at(x, y), 3)
				// Sub-pixel mixing near material boundaries: blend with
				// the material a few pixels away (GSD-scale mixing).
				ox, oy := minInt(x+3, w-1), minInt(y+3, h-1)
				if other := truth[oy*w+ox]; other != m {
					mixFrac = 0.35 * absF(quantize(mixing.at(x, y), 3))
					mixDry, mixWet = drySigs[other], wetSigs[other]
				}
			}
			px := cube.Spectrum(x, y)
			for b := range px {
				base := dry[b] + (wet[b]-dry[b])*wetFrac
				if mixFrac > 0 {
					mixed := mixDry[b] + (mixWet[b]-mixDry[b])*wetFrac
					base = base*(1-mixFrac) + mixed*mixFrac
				}
				v := base*bright*(1+a*tiltShape[b]) + rng.NormFloat64()*spec.NoiseSigma
				if v < 0 {
					v = 0
				}
				px[b] = float32(v)
			}
		}
	}
	return &Scene{Cube: cube, Truth: truth, Spec: spec}, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quantize snaps v ∈ [-1, 1] to one of levels+1 evenly spaced values.
func quantize(v float64, levels int) float64 {
	if levels <= 0 {
		return v
	}
	q := (v + 1) / 2 * float64(levels)
	i := int(q + 0.5)
	if i > levels {
		i = levels
	}
	return float64(i)/float64(levels)*2 - 1
}

// layoutScene paints the ground-truth material map.
func layoutScene(spec SceneSpec, rng *rand.Rand) []Material {
	w, h := spec.Width, spec.Height
	truth := make([]Material, w*h)

	// Forest background with clearings from thresholded smooth noise.
	canopy := newValueNoise(rng, w, h, 40)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if canopy.at(x, y) > 0.55 {
				truth[y*w+x] = MaterialField
			} else {
				truth[y*w+x] = MaterialForest
			}
		}
	}

	// Open field occupying the upper-right quadrant-ish region.
	fx0, fy0 := int(0.55*float64(w)), int(0.1*float64(h))
	fx1, fy1 := int(0.95*float64(w)), int(0.5*float64(h))
	fillRect(truth, w, fx0, fy0, fx1, fy1, MaterialField)

	// Dirt road crossing the scene diagonally.
	for y := 0; y < h; y++ {
		cx := int(float64(w)*0.2 + 0.4*float64(y))
		for dx := -3; dx <= 3; dx++ {
			x := cx + dx
			if x >= 0 && x < w {
				truth[y*w+x] = MaterialRoad
			}
		}
	}

	// Shadowed forest edge south of the field.
	fillRect(truth, w, fx0, fy1, fx1, minInt(fy1+6, h), MaterialShadow)

	// Vehicles in the open field (paper: "mechanized vehicles sitting in
	// open fields"). ~8×5 pixel footprint at 1–2 m GSD.
	for i := 0; i < spec.OpenVehicles; i++ {
		vx := fx0 + 8 + rng.Intn(maxInt(1, fx1-fx0-24))
		vy := fy0 + 8 + rng.Intn(maxInt(1, fy1-fy0-16))
		fillRect(truth, w, vx, vy, vx+8, vy+5, MaterialVehicle)
	}

	// Camouflaged vehicle in the lower-left corner (paper Figure 3: "the
	// camouflaged vehicle in the lower left corner"). The net extends past
	// the vehicle footprint.
	for i := 0; i < spec.CamouflagedVehicles; i++ {
		cx := int(0.08*float64(w)) + i*20
		cy := int(0.82 * float64(h))
		fillRect(truth, w, cx-4, cy-4, cx+12, cy+9, MaterialCamouflage)
		fillRect(truth, w, cx, cy, cx+8, cy+5, MaterialVehicle)
		// The vehicle peeks out only partially: re-cover most of it.
		fillRect(truth, w, cx+1, cy+1, cx+7, cy+4, MaterialCamouflage)
	}
	return truth
}

func fillRect(truth []Material, w int, x0, y0, x1, y1 int, m Material) {
	h := len(truth) / w
	for y := maxInt(0, y0); y < minInt(y1, h); y++ {
		for x := maxInt(0, x0); x < minInt(x1, w); x++ {
			truth[y*w+x] = m
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// valueNoise is smooth 2-D value noise in [-1, 1]: a coarse lattice of
// random values, bilinearly interpolated with smoothstep easing.
type valueNoise struct {
	gw, gh int
	cell   float64
	grid   []float64
}

func newValueNoise(rng *rand.Rand, w, h, cellSize int) *valueNoise {
	if cellSize < 1 {
		cellSize = 1
	}
	gw := w/cellSize + 2
	gh := h/cellSize + 2
	g := make([]float64, gw*gh)
	for i := range g {
		g[i] = rng.Float64()*2 - 1
	}
	return &valueNoise{gw: gw, gh: gh, cell: float64(cellSize), grid: g}
}

func (n *valueNoise) at(x, y int) float64 {
	fx := float64(x) / n.cell
	fy := float64(y) / n.cell
	ix, iy := int(fx), int(fy)
	tx, ty := smoothstep(fx-float64(ix)), smoothstep(fy-float64(iy))
	v00 := n.grid[iy*n.gw+ix]
	v10 := n.grid[iy*n.gw+ix+1]
	v01 := n.grid[(iy+1)*n.gw+ix]
	v11 := n.grid[(iy+1)*n.gw+ix+1]
	return lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty)
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

package hsi

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"resilientfusion/internal/linalg"
)

func testCube(t *testing.T, w, h, b int, seed int64) *Cube {
	t.Helper()
	c := MustNewCube(w, h, b)
	rng := rand.New(rand.NewSource(seed))
	for i := range c.Data {
		c.Data[i] = float32(rng.Float64() * 4095)
	}
	c.Wavelengths = DefaultWavelengths(b)
	return c
}

func TestNewCubeRejectsBadShape(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := NewCube(dims[0], dims[1], dims[2]); !errors.Is(err, ErrShape) {
			t.Errorf("NewCube(%v) err = %v, want ErrShape", dims, err)
		}
	}
}

func TestMustNewCubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCube(0,0,0) did not panic")
		}
	}()
	MustNewCube(0, 0, 0)
}

func TestValidate(t *testing.T) {
	c := MustNewCube(2, 3, 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Data = c.Data[:5]
	if err := c.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("truncated data: %v", err)
	}
	c = MustNewCube(2, 3, 4)
	c.Wavelengths = []float64{1, 2}
	if err := c.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("bad wavelength count: %v", err)
	}
}

func TestPixelRoundTrip(t *testing.T) {
	c := MustNewCube(4, 3, 5)
	v := linalg.Vector{1, 2, 3, 4, 5}
	c.SetPixel(2, 1, v)
	got := c.Pixel(2, 1)
	if !got.Equal(v, 0) {
		t.Fatalf("Pixel = %v, want %v", got, v)
	}
	// Neighbours untouched.
	if !c.Pixel(1, 1).Equal(make(linalg.Vector, 5), 0) {
		t.Fatal("SetPixel bled into neighbour")
	}
	// PixelAt agrees with Pixel via row-major index.
	at := c.PixelAt(1*4+2, make(linalg.Vector, 5))
	if !at.Equal(v, 0) {
		t.Fatalf("PixelAt = %v", at)
	}
}

func TestSpectrumSharesStorage(t *testing.T) {
	c := MustNewCube(2, 2, 3)
	s := c.Spectrum(1, 1)
	s[0] = 42
	if c.Pixel(1, 1)[0] != 42 {
		t.Fatal("Spectrum does not alias cube storage")
	}
}

func TestBandExtraction(t *testing.T) {
	c := MustNewCube(2, 2, 3)
	c.SetPixel(0, 0, linalg.Vector{1, 10, 100})
	c.SetPixel(1, 0, linalg.Vector{2, 20, 200})
	c.SetPixel(0, 1, linalg.Vector{3, 30, 300})
	c.SetPixel(1, 1, linalg.Vector{4, 40, 400})
	plane, err := c.Band(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if plane[i] != want[i] {
			t.Fatalf("Band(1) = %v", plane)
		}
	}
	if _, err := c.Band(3); !errors.Is(err, ErrShape) {
		t.Fatalf("Band(3) err = %v", err)
	}
	if _, err := c.Band(-1); !errors.Is(err, ErrShape) {
		t.Fatalf("Band(-1) err = %v", err)
	}
}

func TestNearestBand(t *testing.T) {
	c := MustNewCube(1, 1, 211)
	c.Wavelengths = DefaultWavelengths(211) // exactly 10nm spacing
	b, err := c.NearestBand(400)
	if err != nil || b != 0 {
		t.Fatalf("NearestBand(400) = %d, %v", b, err)
	}
	b, _ = c.NearestBand(2500)
	if b != 210 {
		t.Fatalf("NearestBand(2500) = %d", b)
	}
	b, _ = c.NearestBand(1998)
	if got := c.Wavelengths[b]; math.Abs(got-1998) > 5.001 {
		t.Fatalf("NearestBand(1998) -> %g nm", got)
	}
	c.Wavelengths = nil
	if _, err := c.NearestBand(400); err == nil {
		t.Fatal("NearestBand without table should error")
	}
}

func TestCloneAndEqual(t *testing.T) {
	c := testCube(t, 3, 4, 5, 7)
	d := c.Clone()
	if !c.Equal(d, 0) {
		t.Fatal("clone not equal")
	}
	d.Data[0] += 10
	if c.Equal(d, 0) {
		t.Fatal("Equal missed a difference")
	}
	if !c.Equal(d, 11) {
		t.Fatal("Equal tolerance not applied")
	}
	if c.Equal(MustNewCube(1, 1, 1), 1e9) {
		t.Fatal("Equal ignored shape")
	}
}

func TestMeanVector(t *testing.T) {
	c := MustNewCube(2, 1, 2)
	c.SetPixel(0, 0, linalg.Vector{1, 10})
	c.SetPixel(1, 0, linalg.Vector{3, 30})
	m := c.MeanVector()
	if !m.Equal(linalg.Vector{2, 20}, 1e-12) {
		t.Fatalf("MeanVector = %v", m)
	}
}

func TestDefaultWavelengths(t *testing.T) {
	w := DefaultWavelengths(210)
	if len(w) != 210 || w[0] != 400 || w[209] != 2500 {
		t.Fatalf("DefaultWavelengths(210): first %g last %g len %d", w[0], w[len(w)-1], len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Fatal("wavelengths not increasing")
		}
	}
	if got := DefaultWavelengths(1); len(got) != 1 || got[0] != 400 {
		t.Fatalf("DefaultWavelengths(1) = %v", got)
	}
	if DefaultWavelengths(0) != nil {
		t.Fatal("DefaultWavelengths(0) should be nil")
	}
}

// MeanVector computes the per-band mean over all pixels — step 3 of the
// paper's algorithm when run without spectral screening.
func (c *Cube) MeanVector() linalg.Vector {
	mean := make(linalg.Vector, c.Bands)
	for i := 0; i < c.Pixels(); i++ {
		off := i * c.Bands
		for b := 0; b < c.Bands; b++ {
			mean[b] += float64(c.Data[off+b])
		}
	}
	n := float64(c.Pixels())
	for b := range mean {
		mean[b] /= n
	}
	return mean
}

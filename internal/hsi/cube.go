// Package hsi provides the hyper-spectral image substrate: the band-
// interleaved-by-pixel Cube type, row-range partitioning used by the
// manager/worker decomposition, a binary serialization format, and a
// deterministic synthetic generator that stands in for the HYDICE
// airborne imaging spectrometer scenes used in the paper.
package hsi

import (
	"errors"
	"fmt"

	"resilientfusion/internal/linalg"
)

// Cube is a hyper-spectral image cube stored band-interleaved-by-pixel
// (BIP): the spectrum of each pixel is contiguous in memory, which is the
// access pattern of every step of the spectral-screening PCT (pixel-vector
// dot products, covariance outer products, per-pixel transformation).
//
// Samples are stored as float32 — HYDICE delivers 12-bit radiometric data,
// so float32 loses nothing while halving the footprint of paper-scale
// cubes (320×320×210 ≈ 86 MiB).
type Cube struct {
	Width, Height, Bands int
	// Wavelengths holds the band-center wavelengths in nanometres;
	// len(Wavelengths) == Bands. Optional but populated by the generator.
	Wavelengths []float64
	// Data is the sample array, len = Width*Height*Bands, indexed
	// [(y*Width+x)*Bands + b].
	Data []float32
}

// ErrShape is returned for malformed cube geometry.
var ErrShape = errors.New("hsi: invalid cube shape")

// NewCube allocates a zeroed cube.
func NewCube(width, height, bands int) (*Cube, error) {
	if width <= 0 || height <= 0 || bands <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", ErrShape, width, height, bands)
	}
	return &Cube{
		Width:  width,
		Height: height,
		Bands:  bands,
		Data:   make([]float32, width*height*bands),
	}, nil
}

// MustNewCube is NewCube panicking on error, for tests and generators
// with compile-time-known shapes.
func MustNewCube(width, height, bands int) *Cube {
	c, err := NewCube(width, height, bands)
	if err != nil {
		panic(err)
	}
	return c
}

// Pixels returns the number of pixel vectors in the cube.
func (c *Cube) Pixels() int { return c.Width * c.Height }

// Validate checks internal consistency of the cube's geometry and storage.
func (c *Cube) Validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Bands <= 0 {
		return fmt.Errorf("%w: %dx%dx%d", ErrShape, c.Width, c.Height, c.Bands)
	}
	if len(c.Data) != c.Width*c.Height*c.Bands {
		return fmt.Errorf("%w: data length %d for %dx%dx%d", ErrShape, len(c.Data), c.Width, c.Height, c.Bands)
	}
	if c.Wavelengths != nil && len(c.Wavelengths) != c.Bands {
		return fmt.Errorf("%w: %d wavelengths for %d bands", ErrShape, len(c.Wavelengths), c.Bands)
	}
	return nil
}

// pixelOffset returns the Data offset of pixel (x, y).
func (c *Cube) pixelOffset(x, y int) int { return (y*c.Width + x) * c.Bands }

// Spectrum returns the pixel vector at (x, y) sharing the cube's storage.
func (c *Cube) Spectrum(x, y int) []float32 {
	off := c.pixelOffset(x, y)
	return c.Data[off : off+c.Bands]
}

// PixelInto copies the spectrum at (x, y) into dst (converted to float64)
// and returns dst. It panics if len(dst) != Bands.
func (c *Cube) PixelInto(x, y int, dst linalg.Vector) linalg.Vector {
	if len(dst) != c.Bands {
		panic("hsi: PixelInto destination length mismatch")
	}
	s := c.Spectrum(x, y)
	for i, v := range s {
		dst[i] = float64(v)
	}
	return dst
}

// Pixel returns a freshly allocated float64 pixel vector at (x, y).
func (c *Cube) Pixel(x, y int) linalg.Vector {
	return c.PixelInto(x, y, make(linalg.Vector, c.Bands))
}

// SetPixel writes a float64 pixel vector into (x, y).
// It panics if len(v) != Bands.
func (c *Cube) SetPixel(x, y int, v linalg.Vector) {
	if len(v) != c.Bands {
		panic("hsi: SetPixel length mismatch")
	}
	s := c.Spectrum(x, y)
	for i, f := range v {
		s[i] = float32(f)
	}
}

// PixelAt returns pixel i (row-major order) as a float64 vector, filling dst.
func (c *Cube) PixelAt(i int, dst linalg.Vector) linalg.Vector {
	if len(dst) != c.Bands {
		panic("hsi: PixelAt destination length mismatch")
	}
	off := i * c.Bands
	s := c.Data[off : off+c.Bands]
	for j, v := range s {
		dst[j] = float64(v)
	}
	return dst
}

// Band extracts band b as a Width×Height row-major float64 plane; useful
// for rendering individual frames (paper Figure 2).
func (c *Cube) Band(b int) ([]float64, error) {
	if b < 0 || b >= c.Bands {
		return nil, fmt.Errorf("%w: band %d of %d", ErrShape, b, c.Bands)
	}
	plane := make([]float64, c.Width*c.Height)
	for i := range plane {
		plane[i] = float64(c.Data[i*c.Bands+b])
	}
	return plane, nil
}

// NearestBand returns the band index whose wavelength is closest to nm.
// It returns an error if the cube has no wavelength table.
func (c *Cube) NearestBand(nm float64) (int, error) {
	if len(c.Wavelengths) == 0 {
		return 0, errors.New("hsi: cube has no wavelength table")
	}
	best, bestDist := 0, -1.0
	for i, w := range c.Wavelengths {
		d := w - nm
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, nil
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	d := &Cube{Width: c.Width, Height: c.Height, Bands: c.Bands}
	d.Data = make([]float32, len(c.Data))
	copy(d.Data, c.Data)
	if c.Wavelengths != nil {
		d.Wavelengths = make([]float64, len(c.Wavelengths))
		copy(d.Wavelengths, c.Wavelengths)
	}
	return d
}

// Equal reports whether two cubes have identical geometry and samples
// within tol.
func (c *Cube) Equal(o *Cube, tol float32) bool {
	if c.Width != o.Width || c.Height != o.Height || c.Bands != o.Bands {
		return false
	}
	for i, v := range c.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

func (c *Cube) String() string {
	return fmt.Sprintf("Cube(%dx%dx%d)", c.Width, c.Height, c.Bands)
}

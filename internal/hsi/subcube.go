package hsi

import (
	"fmt"

	"resilientfusion/internal/linalg"
)

// RowRange identifies a horizontal slab of a cube: rows [Y0, Y1).
// The manager/worker decomposition in the paper divides the image cube
// into sub-cubes; contiguous row slabs keep each sub-problem's pixels
// contiguous in BIP storage so extraction is a single copy.
type RowRange struct {
	Index  int // sub-cube sequence number, 0-based
	Y0, Y1 int // half-open row interval
}

// Rows returns the number of rows in the range.
func (r RowRange) Rows() int { return r.Y1 - r.Y0 }

func (r RowRange) String() string {
	return fmt.Sprintf("subcube#%d[rows %d:%d)", r.Index, r.Y0, r.Y1)
}

// Partition splits height rows into parts contiguous, balanced RowRanges.
// The first (height mod parts) ranges get one extra row. If parts exceeds
// height, the trailing ranges are empty — callers should size granularity
// sensibly, but empty ranges are handled throughout (they produce empty
// sub-problems).
func Partition(height, parts int) []RowRange {
	if parts <= 0 || height < 0 {
		return nil
	}
	out := make([]RowRange, parts)
	base := height / parts
	extra := height % parts
	y := 0
	for i := 0; i < parts; i++ {
		rows := base
		if i < extra {
			rows++
		}
		out[i] = RowRange{Index: i, Y0: y, Y1: y + rows}
		y += rows
	}
	return out
}

// SubCube is an extracted slab of a parent cube, carrying its own copy of
// the samples so it can be serialized and shipped to a worker.
type SubCube struct {
	Range RowRange
	Cube  *Cube // Height = Range.Rows()
}

// Extract copies the rows of rr out of c into a standalone SubCube.
func Extract(c *Cube, rr RowRange) (*SubCube, error) {
	if rr.Y0 < 0 || rr.Y1 > c.Height || rr.Y0 > rr.Y1 {
		return nil, fmt.Errorf("%w: extract rows [%d,%d) of height %d", ErrShape, rr.Y0, rr.Y1, c.Height)
	}
	rows := rr.Rows()
	sub := &Cube{
		Width:  c.Width,
		Height: rows,
		Bands:  c.Bands,
		Data:   make([]float32, c.Width*rows*c.Bands),
	}
	if c.Wavelengths != nil {
		sub.Wavelengths = append([]float64(nil), c.Wavelengths...)
	}
	start := rr.Y0 * c.Width * c.Bands
	copy(sub.Data, c.Data[start:start+len(sub.Data)])
	return &SubCube{Range: rr, Cube: sub}, nil
}

// PixelVectors returns all pixel vectors of the sub-cube as float64
// vectors, in row-major order. Used by screening and covariance steps.
// The vectors are views over one staging buffer (see Cube.PixelRows), so
// building them costs two allocations, not one per pixel.
func (s *SubCube) PixelVectors() []linalg.Vector {
	return s.Cube.PixelRows()
}

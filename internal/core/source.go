package core

import (
	"fmt"

	"resilientfusion/internal/hsi"
)

// CubeSource supplies scene geometry and row-slab tiles to the fusion
// manager. The in-memory path wraps a *hsi.Cube; the streaming scene
// path (internal/scene's Tiler) decodes each tile off disk on demand, so
// the manager never holds more than the tiles currently being encoded.
// The manager may request the same tile more than once (transform-phase
// cache misses and reissues), so Tile must be repeatable; calls are made
// sequentially from the single manager thread.
type CubeSource interface {
	// Shape returns (width, height, bands).
	Shape() (width, height, bands int)
	// Tile returns rows [rr.Y0, rr.Y1) as a standalone BIP cube of
	// height rr.Rows(). The manager owns the returned cube until it has
	// encoded it for the wire.
	Tile(rr hsi.RowRange) (*hsi.Cube, error)
}

// TileObserver is optionally implemented by a CubeSource to observe
// per-tile pipeline progress — the service layer uses it to report
// whole-scene fusion progress. Callbacks run on the manager thread.
type TileObserver interface {
	// TileScreened reports that done of total tiles have completed the
	// screening phase.
	TileScreened(done, total int)
	// TileTransformed reports that done of total tiles have completed
	// the transform phase.
	TileTransformed(done, total int)
}

// memSource adapts an in-memory cube to CubeSource: tiles are extracted
// row-slab copies, exactly what the historical cube-fed manager shipped.
type memSource struct {
	c *hsi.Cube
}

// MemSource wraps a validated in-memory cube as a CubeSource.
func MemSource(c *hsi.Cube) CubeSource { return memSource{c: c} }

func (s memSource) Shape() (int, int, int) { return s.c.Width, s.c.Height, s.c.Bands }

func (s memSource) Tile(rr hsi.RowRange) (*hsi.Cube, error) {
	sub, err := hsi.Extract(s.c, rr)
	if err != nil {
		return nil, err
	}
	return sub.Cube, nil
}

// validateSource checks a source's geometry the way Fuse validates a
// cube.
func validateSource(src CubeSource) error {
	w, h, b := src.Shape()
	if w <= 0 || h <= 0 || b <= 0 {
		return fmt.Errorf("%w: %dx%dx%d", hsi.ErrShape, w, h, b)
	}
	return nil
}

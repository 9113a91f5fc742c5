package scene

import (
	"crypto/sha256"
	"encoding/hex"

	"resilientfusion/internal/hsi"
)

// Tiler decomposes a scene into the row-tile sub-problems the fusion
// manager ships to workers. It satisfies core.CubeSource, so a manager
// fed by a Tiler streams tiles straight off disk instead of extracting
// them from an in-memory cube — with identical tile contents, because
// Tiles reuses hsi.Partition and ReadRows decodes exactly the rows
// hsi.Extract would copy. A Tiler (and its Reader) is single-goroutine;
// concurrent fusion jobs each open their own.
type Tiler struct {
	r *Reader
}

// NewTiler wraps a Reader.
func NewTiler(r *Reader) *Tiler { return &Tiler{r: r} }

// Shape returns the scene geometry (core.CubeSource).
func (t *Tiler) Shape() (int, int, int) { return t.r.Shape() }

// Tile reads the row range as a standalone BIP cube (core.CubeSource).
func (t *Tiler) Tile(rr hsi.RowRange) (*hsi.Cube, error) {
	return t.r.ReadRows(rr.Y0, rr.Y1)
}

// Digest returns the SHA-256 of the scene's canonical HSIC (BIP float32)
// encoding, streamed through bounded row windows — it never materializes
// the cube, yet equals hsi.Cube.Digest of the fully-loaded scene. The
// service layer keys its content-addressed result cache on this, so a
// streamed scene fuse and an in-memory upload of the same cube share
// cache entries.
func (r *Reader) Digest() (string, error) {
	hash := sha256.New()
	W, L, B := r.h.Shape()
	sw, err := hsi.NewStreamWriter(hash, W, L, B, r.h.Wavelengths)
	if err != nil {
		return "", err
	}
	step := r.windowRows()
	var buf []float32
	for y := 0; y < L; y += step {
		end := min(y+step, L)
		n := (end - y) * W * B
		if cap(buf) < n {
			buf = make([]float32, n)
		}
		win := buf[:n]
		if err := r.readRowsInto(y, end, win); err != nil {
			return "", err
		}
		if err := sw.WriteSamples(win); err != nil {
			return "", err
		}
	}
	if err := sw.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(hash.Sum(nil)), nil
}

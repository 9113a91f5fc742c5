package scene

import "resilientfusion/internal/hsi"

// Helpers only this package's tests use.

// Tiles partitions the scene's rows into parts balanced contiguous
// ranges — the same decomposition the manager derives from an in-memory
// cube's height.
func (t *Tiler) Tiles(parts int) []hsi.RowRange {
	_, lines, _ := t.r.Shape()
	return hsi.Partition(lines, parts)
}

// Package fuse is the fusion-algorithm registry: the single place the
// engine resolves core.Options.Algorithm ("pct", "pyramid", "dwt") to an
// implementation. Two execution shapes coexist behind one entry type,
// and the core manager runs both through its one distribute/collect
// loop:
//
//   - Protocol algorithms (pct) register without a tile kernel. The
//     manager runs three collect phases — screen, covariance, transform
//     — with its own merge, mean and eigen steps between them.
//   - Tile-kernel algorithms (pyramid, dwt) are pure per-tile functions:
//     one request ships a sub-cube, one reply returns its fused RGB
//     slab. The manager runs them as a single fuse phase with the same
//     placement, prefetch, reissue and streaming behavior as screening,
//     and each worker resolves the kernel once per job.
//
// Every registered kernel obeys the repo's determinism contract: output
// is bit-identical at every core.Options.Parallelism because all
// parallel fan-out goes through linalg's fixed shard grids and every
// cross-band reduction runs in fixed band order (fusionlint's detsource
// analyzer polices this package tree like the pct kernels).
package fuse

import (
	"sort"
	"strings"

	"resilientfusion/internal/fuse/dwt"
	"resilientfusion/internal/fuse/pyramid"
	"resilientfusion/internal/hsi"
)

// ID is an algorithm's stable wire identifier, carried in the worker
// args so a worker — local or in a remote process — instantiates the
// same kernel the manager dispatches for. IDs are
// append-only: reusing or renumbering one would let two deployments
// disagree about what a job computes.
type ID uint32

const (
	IDPCT     ID = 0
	IDPyramid ID = 1
	IDDWT     ID = 2
)

// FuseTileFunc fuses one extracted tile into packed RGB bytes (3 bytes
// per pixel, row-major, len >= tile.Pixels()*3). Implementations must be
// pure functions of the tile contents and bit-identical at every
// parallelism setting.
type FuseTileFunc func(tile *hsi.Cube, parallelism int, rgb []byte) error

// Algorithm is one registered fusion implementation.
type Algorithm struct {
	// Name is the canonical lower-case name Options.Algorithm resolves to.
	Name string
	// ID is the stable wire identifier (see ID).
	ID ID
	// FuseTile is the per-tile kernel, or nil for protocol algorithms
	// (pct) whose computation is the multi-phase manager/worker exchange.
	FuseTile FuseTileFunc
}

var (
	byName = make(map[string]Algorithm)
	byID   = make(map[ID]Algorithm)
	// names holds registration order; Names sorts a copy rather than
	// ranging over byName so no map iteration order ever leaks out.
	names []string
)

// Register adds an algorithm to the registry. It panics on a duplicate
// name or ID — registration happens in init functions, so a collision is
// a programming error, not a runtime condition.
func Register(a Algorithm) {
	if a.Name == "" || a.Name != strings.ToLower(a.Name) {
		panic("fuse: algorithm name must be non-empty lower-case: " + a.Name)
	}
	if _, dup := byName[a.Name]; dup {
		panic("fuse: duplicate algorithm name " + a.Name)
	}
	if _, dup := byID[a.ID]; dup {
		panic("fuse: duplicate algorithm id for " + a.Name)
	}
	byName[a.Name] = a
	byID[a.ID] = a
	names = append(names, a.Name)
}

// Canonical normalizes an algorithm spelling to its registry form:
// surrounding space stripped, lower-cased, and the empty string mapped
// to "pct" (the paper's pipeline is the default). It does not check
// registration — unknown names canonicalize too, so ResultKey stays a
// pure function of Options and validation can happen once at admission.
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "pct"
	}
	return name
}

// Lookup resolves a (possibly uncanonical) name to its registered
// algorithm.
func Lookup(name string) (Algorithm, bool) {
	a, ok := byName[Canonical(name)]
	return a, ok
}

// ByID resolves a wire identifier to its registered algorithm.
func ByID(id ID) (Algorithm, bool) {
	a, ok := byID[id]
	return a, ok
}

// Names returns the registered algorithm names in sorted order (sorted,
// not map order, so callers composing error messages and docs stay
// deterministic).
func Names() []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func init() {
	// pct is the protocol path: the manager drives the paper's 8-step
	// screen/statistics/eigen/transform exchange, so it has no tile kernel.
	Register(Algorithm{Name: "pct", ID: IDPCT})
	Register(Algorithm{Name: "pyramid", ID: IDPyramid, FuseTile: pyramid.Fuse})
	Register(Algorithm{Name: "dwt", ID: IDDWT, FuseTile: dwt.Fuse})
}

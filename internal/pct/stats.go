// Package pct holds the statistics and transform kernels of the
// spectral-screening Principal Component Transform — steps 3–5 (mean and
// covariance of the unique set) and step 7 (projecting pixels onto the
// principal components). internal/core runs them inside its workers and
// in core.Sequential, the one-thread reference pipeline every distributed
// configuration is checked against.
//
// The statistics and transform kernels are blocked and optionally
// multicore, with one shared determinism contract: inputs are cut into a
// fixed shard grid (a function of the input size only, never of the
// worker count), per-shard partials are computed with per-element
// ascending accumulation order, and shards are combined in ascending
// shard index order. Any Parallelism setting therefore produces
// bit-identical results — the property the distributed/sequential
// equality tests and the parity tests in parity_test.go pin down.
package pct

import (
	"errors"
	"fmt"

	"resilientfusion/internal/linalg"
)

// ErrEmptySet is returned when statistics are requested over no vectors.
var ErrEmptySet = errors.New("pct: empty vector set")

const (
	// statShardPixels is the fixed reduction shard of MeanOf and
	// CovarianceSum: per-shard partials are combined in ascending shard
	// order. Fixed by size, not by worker count (see the package comment).
	statShardPixels = 4096
	// covPanelPixels is the SYRK staging panel within a covariance shard:
	// deviations are packed covPanelPixels rows at a time so the rank-k
	// update streams contiguous memory.
	covPanelPixels = 256
)

// MeanOf computes the per-band mean of a set of pixel vectors —
// algorithm step 3 — using all cores. See MeanOfPar.
func MeanOf(vectors []linalg.Vector) (linalg.Vector, error) {
	return MeanOfPar(vectors, 0)
}

// MeanOfPar is MeanOf with an explicit parallelism degree (0 selects
// GOMAXPROCS). Per-band sums are accumulated per fixed-size shard in
// vector order and the shard partials are combined in ascending shard
// order, so every parallelism degree yields identical bits.
func MeanOfPar(vectors []linalg.Vector, parallelism int) (linalg.Vector, error) {
	if len(vectors) == 0 {
		return nil, ErrEmptySet
	}
	n := len(vectors[0])
	for _, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("%w: ragged vector set", linalg.ErrDimension)
		}
	}
	shards := linalg.ShardCount(len(vectors), statShardPixels)
	partials := make([]linalg.Vector, shards)
	linalg.ParallelShards(shards, parallelism, func(s int) {
		lo, hi := linalg.ShardRange(len(vectors), statShardPixels, s)
		sum := make(linalg.Vector, n)
		for _, v := range vectors[lo:hi] {
			for j, x := range v {
				sum[j] += x
			}
		}
		partials[s] = sum
	})
	mean := make(linalg.Vector, n)
	for _, p := range partials {
		mean.Add(p, mean)
	}
	mean.Scale(1/float64(len(vectors)), mean)
	return mean, nil
}

// CovarianceSum accumulates Σ (v−mean)(v−mean)ᵀ over the given vectors —
// the per-worker kernel of algorithm step 4 — using all cores. The caller
// owns normalization (step 5 divides by the global count). See
// CovarianceSumPar.
func CovarianceSum(vectors []linalg.Vector, mean linalg.Vector) (*linalg.Matrix, error) {
	return CovarianceSumPar(vectors, mean, 0)
}

// CovarianceSumPar is CovarianceSum with an explicit parallelism degree
// (0 selects GOMAXPROCS). Each fixed-size shard packs its deviations into
// contiguous panels and applies a symmetric rank-k update over the upper
// triangle only (linalg.SyrkUpperInto — half the flops of the historical
// full-square rank-1 loop); shard partials are combined in ascending
// shard order and mirrored once. Per-element accumulation stays in
// ascending pixel order throughout, so the result is bit-identical for
// every parallelism degree — and, within one shard, to the historical
// scalar kernel.
func CovarianceSumPar(vectors []linalg.Vector, mean linalg.Vector, parallelism int) (*linalg.Matrix, error) {
	sum := linalg.NewMatrix(len(mean), len(mean))
	if err := CovarianceSumInto(sum, vectors, mean, parallelism); err != nil {
		return nil, err
	}
	return sum, nil
}

// CovarianceSumInto is CovarianceSumPar accumulating into a caller-owned
// n×n matrix, which it zeroes first. The screened-covariance micro-shape
// (K≈7 unique vectors over 100+ bands) is allocation-floor-bound: the
// n×n sum dominates the kernel's footprint, so long-lived workers reuse
// one matrix across jobs instead of allocating ~100 KiB per request.
// Same determinism contract as CovarianceSumPar; the bits are identical.
func CovarianceSumInto(sum *linalg.Matrix, vectors []linalg.Vector, mean linalg.Vector, parallelism int) error {
	n := len(mean)
	if sum.Rows != n || sum.Cols != n {
		return fmt.Errorf("%w: %dx%d destination for %d bands", linalg.ErrDimension, sum.Rows, sum.Cols, n)
	}
	for _, v := range vectors {
		if len(v) != n {
			return fmt.Errorf("%w: vector length %d vs mean %d", linalg.ErrDimension, len(v), n)
		}
	}
	sum.Zero()
	shards := linalg.ShardCount(len(vectors), statShardPixels)
	if shards == 0 {
		return nil // empty part: zero partial sum, matching history
	}
	if shards == 1 {
		// The common case (screened unique sets are far below one shard):
		// accumulate straight into the result, no partials to combine.
		covShardInto(sum, vectors, mean, nil)
		sum.MirrorUpper()
		return nil
	}
	partials := make([]*linalg.Matrix, shards)
	// Panels are per-worker scratch, reused across that worker's shards;
	// the per-shard partials stay separate so they combine in shard order.
	panels := make([][]float64, linalg.EffectiveWorkers(shards, parallelism))
	linalg.ParallelShardsIndexed(shards, parallelism, func(w, s int) {
		if panels[w] == nil {
			panels[w] = make([]float64, covPanelPixels*n)
		}
		lo, hi := linalg.ShardRange(len(vectors), statShardPixels, s)
		partial := linalg.NewMatrix(n, n)
		covShardInto(partial, vectors[lo:hi], mean, panels[w])
		partials[s] = partial
	})
	for _, p := range partials {
		if err := sum.Add(p); err != nil {
			return err
		}
	}
	sum.MirrorUpper()
	return nil
}

// covShardInto accumulates the upper triangle of Σ (v−mean)(v−mean)ᵀ
// over one shard into dst, packing deviations into contiguous panels and
// applying the rank-k update panel by panel. panel is optional scratch of
// covPanelPixels*len(mean) floats; per-element accumulation runs in
// ascending vector order regardless of panel boundaries.
func covShardInto(dst *linalg.Matrix, vectors []linalg.Vector, mean linalg.Vector, panel []float64) {
	n := len(mean)
	maxRows := covPanelPixels
	if len(vectors) < maxRows {
		maxRows = len(vectors)
	}
	if panel == nil {
		panel = make([]float64, maxRows*n)
	}
	for p0 := 0; p0 < len(vectors); p0 += maxRows {
		rows := len(vectors) - p0
		if rows > maxRows {
			rows = maxRows
		}
		for r := 0; r < rows; r++ {
			v := vectors[p0+r]
			dev := panel[r*n : (r+1)*n]
			for j, m := range mean {
				dev[j] = v[j] - m
			}
		}
		view := &linalg.Matrix{Rows: rows, Cols: n, Data: panel[:rows*n]}
		// Shapes are consistent by construction; the call cannot fail.
		_ = linalg.SyrkUpperInto(dst, view)
	}
}

// Covariance combines partial covariance sums into the covariance matrix —
// algorithm step 5, executed sequentially by the manager. count is the
// total number of vectors contributing to the partial sums.
func Covariance(partials []*linalg.Matrix, count int) (*linalg.Matrix, error) {
	if len(partials) == 0 || count <= 0 {
		return nil, ErrEmptySet
	}
	n := partials[0].Rows
	cov := linalg.NewMatrix(n, n)
	for _, p := range partials {
		if p == nil {
			continue
		}
		if err := cov.Add(p); err != nil {
			return nil, err
		}
	}
	cov.Scale(1 / float64(count))
	// Outer-product accumulation is symmetric in exact arithmetic; repair
	// the few ulps of float drift so the eigensolver's symmetry check and
	// the distributed/sequential equality tests are exact.
	cov.Symmetrize()
	return cov, nil
}

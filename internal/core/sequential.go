package core

import (
	"fmt"
	"image"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/spectral"
)

// Sequential executes the identical algorithm — same partitioning, same
// per-part kernels, same deterministic merge and summation order — on one
// thread with no messaging. Its output is bit-identical to the
// distributed pipeline's for the same Options, which is the correctness
// oracle the distributed tests check against. (Only Workers, Granularity,
// Threshold, Components and Algorithm influence the result.) At Workers 1
// × Granularity 1 it is the plain whole-image spectral-screening PCT.
func Sequential(cube *hsi.Cube, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := cube.Validate(); err != nil {
		return nil, err
	}
	alg, ok := fuse.Lookup(opts.Algorithm)
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q (have %v)",
			ErrBadOptions, opts.Algorithm, fuse.Names())
	}
	ranges := opts.TileRanges(cube.Height)
	if alg.FuseTile != nil {
		return sequentialFuse(cube, opts, alg.FuseTile, ranges)
	}
	res := &Result{SubCubes: len(ranges)}

	// Steps 1–2. The batched engine is bit-identical to the sequential
	// spectral.Screen reference, so the oracle's contract is unchanged.
	parts := make([]*spectral.UniqueSet, len(ranges))
	subs := make([]*hsi.SubCube, len(ranges))
	for i, rr := range ranges {
		sub, err := hsi.Extract(cube, rr)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
		u, st, err := spectral.ScreenBatched(sub.PixelVectors(), opts.Threshold, opts.Parallelism)
		if err != nil {
			return nil, err
		}
		parts[i] = u
		res.ScreenStats.Add(st)
	}
	merged, mst, err := spectral.Merge(parts, opts.Threshold)
	if err != nil {
		return nil, err
	}
	res.ScreenStats.Add(mst)
	res.UniqueSetSize = merged.Len()

	// Step 3.
	mean, err := pct.MeanOfPar(merged.Members, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	res.Mean = mean

	// Steps 4–5 with the distributed pipeline's part structure.
	vparts := splitVectors(merged.Members, opts.Workers)
	partials := make([]*linalg.Matrix, len(vparts))
	for p, vs := range vparts {
		sum, err := pct.CovarianceSumPar(vs, mean, opts.Parallelism)
		if err != nil {
			return nil, err
		}
		partials[p] = sum
	}
	cov, err := pct.Covariance(partials, merged.Len())
	if err != nil {
		return nil, err
	}

	// Step 6.
	eig, err := linalg.EigenSym(cov)
	if err != nil {
		return nil, err
	}
	transform, err := eig.TransformMatrix(opts.Components)
	if err != nil {
		return nil, err
	}
	stretches := colormap.VarianceStretch(eig.Values[:opts.Components], 3)
	res.Eigenvalues = eig.Values
	res.Transform = transform

	// Steps 7–8 per sub-cube, assembled exactly like the manager does.
	img := image.NewRGBA(image.Rect(0, 0, cube.Width, cube.Height))
	for _, sub := range subs {
		req := &TransformReq{
			Range:     sub.Range,
			Mean:      mean,
			Transform: transform,
			Stretches: stretches,
		}
		rgb := make([]byte, sub.Cube.Pixels()*3)
		if _, err := transformSlab(sub, req, opts.Parallelism, opts.Cost, rgb); err != nil {
			return nil, err
		}
		blitRGB(img, &TransformResp{Range: sub.Range, Width: cube.Width, RGB: rgb})
	}
	res.Image = img
	res.completed = true
	return res, nil
}

// sequentialFuse is the one-thread oracle for tile-kernel algorithms:
// the manager's row decomposition, each tile fused by the registered
// kernel, slabs assembled exactly like the manager's fuse phase does.
func sequentialFuse(cube *hsi.Cube, opts Options, fuseTile fuse.FuseTileFunc, ranges []hsi.RowRange) (*Result, error) {
	img := image.NewRGBA(image.Rect(0, 0, cube.Width, cube.Height))
	for _, rr := range ranges {
		sub, err := hsi.Extract(cube, rr)
		if err != nil {
			return nil, err
		}
		rgb := make([]byte, sub.Cube.Pixels()*3)
		if err := fuseTile(sub.Cube, opts.Parallelism, rgb); err != nil {
			return nil, err
		}
		blitRGB(img, &FuseResp{Range: rr, Width: cube.Width, RGB: rgb})
	}
	return &Result{Image: img, SubCubes: len(ranges), completed: true}, nil
}

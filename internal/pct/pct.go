package pct

import (
	"fmt"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
)

// transformBlockPixels is the fixed pixel block of the transform kernels:
// each block is staged to float64 once and pushed through one blocked
// GEMM. Blocks are independent (no reduction), so any parallelism over
// them is trivially deterministic.
const transformBlockPixels = 512

// TransformCubePar applies Cs = A·(Is − mean) to every pixel — algorithm
// step 7, the kernel each worker runs over its sub-cube — with the given
// parallelism degree (0 selects GOMAXPROCS). The mean is folded into a
// per-component bias (A·(v−mean) = A·v − A·mean), pixel blocks are
// staged to float64 and projected with one blocked GEMM each — so the
// whole step is three passes over each block (stage, GEMM, bias+narrow)
// instead of five passes per pixel, and allocations scale with the block
// count, never the pixel count.
func TransformCubePar(cube *hsi.Cube, transform *linalg.Matrix, mean linalg.Vector, parallelism int) (*hsi.Cube, error) {
	if transform.Cols != cube.Bands || len(mean) != cube.Bands {
		return nil, fmt.Errorf("%w: transform %dx%d, mean %d, bands %d",
			linalg.ErrDimension, transform.Rows, transform.Cols, len(mean), cube.Bands)
	}
	out, err := hsi.NewCube(cube.Width, cube.Height, transform.Rows)
	if err != nil {
		return nil, err
	}
	transformBlocks(cube, transform, mean, parallelism, func(lo int, pc *linalg.Matrix) {
		off := lo * pc.Cols
		for _, v := range pc.Data {
			out.Data[off] = float32(v)
			off++
		}
	})
	return out, nil
}

// TransformBlocks runs the blocked projection over the cube and hands
// each finished block to sink: lo is the block's first pixel and pc
// holds the final component values (A·v − A·mean, one pixel per row).
// Blocks arrive concurrently when parallelism permits; sinks must only
// touch their own output range, and must not retain pc (it is per-worker
// scratch, overwritten by the next block). Exported for internal/core's
// worker, which fuses color mapping into the sink instead of
// materializing a component cube.
func TransformBlocks(cube *hsi.Cube, transform *linalg.Matrix, mean linalg.Vector, parallelism int,
	sink func(lo int, pc *linalg.Matrix)) error {
	if transform.Cols != cube.Bands || len(mean) != cube.Bands {
		return fmt.Errorf("%w: transform %dx%d, mean %d, bands %d",
			linalg.ErrDimension, transform.Rows, transform.Cols, len(mean), cube.Bands)
	}
	transformBlocks(cube, transform, mean, parallelism, sink)
	return nil
}

func transformBlocks(cube *hsi.Cube, transform *linalg.Matrix, mean linalg.Vector, parallelism int,
	sink func(lo int, pc *linalg.Matrix)) {
	bands, comps := cube.Bands, transform.Rows
	// Fold the mean into a per-component bias: A·(v−mean) = A·v − A·mean,
	// computed once instead of one subtraction pass per pixel.
	bias := make(linalg.Vector, comps)
	for c := 0; c < comps; c++ {
		bias[c] = transform.Row(c).Dot(mean)
	}
	n := cube.Pixels()
	blocks := linalg.ShardCount(n, transformBlockPixels)
	// Per-worker scratch, reused across that worker's blocks: allocations
	// scale with the worker count, not the pixel or block count.
	type scratch struct{ stage, pc *linalg.Matrix }
	scratches := make([]scratch, linalg.EffectiveWorkers(blocks, parallelism))
	fused := comps == 3 && bands > 0
	var f0, f1, f2 linalg.Vector
	if fused {
		f0 = transform.Data[0:bands:bands]
		f1 = transform.Data[bands : 2*bands : 2*bands]
		f2 = transform.Data[2*bands : 3*bands : 3*bands]
	}
	linalg.ParallelShardsIndexed(blocks, parallelism, func(w, b int) {
		sc := &scratches[w]
		if sc.pc == nil {
			sc.pc = linalg.NewMatrix(transformBlockPixels, comps)
		}
		lo, hi := linalg.ShardRange(n, transformBlockPixels, b)
		count := hi - lo
		pc := &linalg.Matrix{Rows: count, Cols: comps, Data: sc.pc.Data[:count*comps]}
		if fused {
			// The dominant 3-component shape: read float32 samples
			// directly — no staging round-trip at all. Each component
			// accumulates two fixed-stride partial sums (even and odd
			// bands) combined as even+odd at the end: six independent
			// dependency chains instead of three latency-bound ones.
			// This IS the canonical reduction order of the 3-component
			// transform (the parity reference implements the same
			// striding), fixed for every block size and parallelism.
			src := cube.Data[lo*bands : hi*bands]
			for p := 0; p < count; p++ {
				// Equal-length reslices let the compiler drop the filter
				// bounds checks inside the accumulation loop.
				row := src[p*bands : (p+1)*bands]
				c0, c1, c2 := f0[:len(row)], f1[:len(row)], f2[:len(row)]
				var e0, e1, e2, o0, o1, o2 float64
				k := 0
				for ; k+1 < len(row); k += 2 {
					fe := float64(row[k])
					fo := float64(row[k+1])
					e0 += fe * c0[k]
					o0 += fo * c0[k+1]
					e1 += fe * c1[k]
					o1 += fo * c1[k+1]
					e2 += fe * c2[k]
					o2 += fo * c2[k+1]
				}
				if k < len(row) {
					f := float64(row[k])
					e0 += f * c0[k]
					e1 += f * c1[k]
					e2 += f * c2[k]
				}
				o := pc.Data[p*3 : p*3+3]
				o[0], o[1], o[2] = e0+o0-bias[0], e1+o1-bias[1], e2+o2-bias[2]
			}
			sink(lo, pc)
			return
		}
		if sc.stage == nil {
			sc.stage = linalg.NewMatrix(transformBlockPixels, bands)
		}
		stage := &linalg.Matrix{Rows: count, Cols: bands, Data: sc.stage.Data[:count*bands]}
		cube.PixelMatrixInto(lo, count, stage.Data)
		// The transform's rows are the component filters — exactly the
		// transposed-B layout, so this is one contiguous pass per block.
		// Shapes are consistent by construction; the call cannot fail.
		_ = linalg.MulTransBInto(pc, stage, transform)
		for r := 0; r < count; r++ {
			prow := pc.Data[r*comps : (r+1)*comps]
			for c := range prow {
				prow[c] -= bias[c]
			}
		}
		sink(lo, pc)
	})
}

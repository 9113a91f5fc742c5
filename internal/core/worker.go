package core

import (
	"fmt"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/spectral"
)

// workerState holds a fusion worker's state for the one job the worker
// serves: sub-cubes cached from the screening phase (preserving the
// paper's locality — step 7 reuses step 1's data placement), memoized
// screen responses so reissued requests are answered without
// re-screening, and the covariance accumulator reused across the job's
// requests.
type workerState struct {
	algorithm   string            // canonical registry name ("" behaves as "pct")
	tile        fuse.FuseTileFunc // the algorithm's tile kernel; nil for pct
	threshold   float64
	parallelism int // kernel parallelism (0 = GOMAXPROCS)
	cost        perfmodel.Model
	cache       map[int]*hsi.SubCube
	screened    map[int][]byte // encoded ScreenResp payload by sub-cube
	// cov is the n×n covariance sum, reallocated only when the band count
	// changes: the screened-covariance micro-shape (K≈7 unique vectors
	// over 100+ bands) is allocation-floor-bound on it. Replies are fully
	// encoded before Handle returns, so nothing aliases it between
	// messages.
	cov *linalg.Matrix
}

// newWorkerState returns empty worker state for the named fusion
// algorithm (registry name; "" behaves as "pct"). parallelism is the
// kernel parallelism of the screening, statistics, transform and
// tile-fusion steps (0 selects GOMAXPROCS); it never changes the
// computed bits, only the wall clock.
func newWorkerState(algorithm string, threshold float64, parallelism int, cost perfmodel.Model) *workerState {
	alg, _ := fuse.Lookup(algorithm)
	return &workerState{
		algorithm:   fuse.Canonical(algorithm),
		tile:        alg.FuseTile,
		threshold:   threshold,
		parallelism: parallelism,
		cost:        cost,
		cache:       make(map[int]*hsi.SubCube),
		screened:    make(map[int][]byte),
	}
}

// covFor returns the reusable n×n covariance accumulator.
func (ws *workerState) covFor(n int) *linalg.Matrix {
	if ws.cov == nil || ws.cov.Rows != n {
		ws.cov = linalg.NewMatrix(n, n)
	}
	return ws.cov
}

// Handle processes one application message and returns the reply to send
// to the manager, plus the modeled flops the caller must charge (via
// Compute) before sending. The reply is a frame (resilient.NewFrame with
// the encoded response behind its headroom), built once and ready for
// SendFrame; the payload it was handed is only read, and the decoded
// sub-cube it caches shares nothing with it. replyKind 0 means no reply
// (unknown or stale kind). Handle is a deterministic function of the
// message stream, which is what keeps replicated workers in lockstep (the
// resilient layer's requirement). KindStop is the caller's business: the
// worker thread returns.
func (ws *workerState) Handle(kind uint16, payload []byte) (replyKind uint16, reply []byte, flops float64, err error) {
	switch kind {
	case KindScreenReq:
		req, err := DecodeScreenReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		// Reissued requests (manager timeout races) are answered from
		// the result cache instead of re-screening.
		if enc, ok := ws.screened[req.Range.Index]; ok {
			// A fresh frame: the first reply's buffer belongs to its
			// receivers now.
			return KindScreenResp, resilient.FrameOf(enc), 0, nil
		}
		sub := &hsi.SubCube{Range: req.Range, Cube: req.Cube}
		ws.cache[req.Range.Index] = sub
		// Step 1: form the sub-cube's unique spectral set. The batched
		// engine parallelizes the scan under the job's kernel parallelism
		// with output bit-identical to the sequential reference, and the
		// modeled cost is charged from the sequential-equivalent count, so
		// neither the result nor the virtual time depends on the knob.
		u, st, err := spectral.ScreenBatched(sub.PixelVectors(), ws.threshold, ws.parallelism)
		if err != nil {
			return 0, nil, 0, err
		}
		reply := AppendScreenResp(resilient.NewFrame(0), &ScreenResp{Index: req.Range.Index, Stats: st, Vectors: u.Members})
		ws.screened[req.Range.Index] = reply[resilient.Headroom:]
		return KindScreenResp, reply, ws.cost.ScreenFlops(st, req.Cube.Bands), nil

	case KindCovReq:
		req, err := DecodeCovReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		// Step 4: covariance partial sum over this part, accumulated into
		// the reused matrix (the encode below copies it out before Handle
		// returns).
		sum := ws.covFor(len(req.Mean))
		if err := pct.CovarianceSumInto(sum, req.Vectors, req.Mean, ws.parallelism); err != nil {
			return 0, nil, 0, err
		}
		return KindCovResp, AppendCovResp(resilient.NewFrame(0), &CovResp{Part: req.Part, Sum: sum}),
			ws.cost.CovPartialFlops(len(req.Vectors), len(req.Mean)), nil

	case KindTransformReq:
		req, err := DecodeTransformReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		sub := ws.cache[req.Range.Index]
		if req.Cube != nil {
			sub = &hsi.SubCube{Range: req.Range, Cube: req.Cube}
			ws.cache[req.Range.Index] = sub
		}
		if sub == nil {
			// Regenerated replica without the cached sub-cube: ask the
			// manager to resend with data.
			return KindCacheMiss, AppendCacheMiss(resilient.NewFrame(4), req.Range.Index), 0, nil
		}
		reply, rgb := newSlabFrame(sub.Range, sub.Cube.Width, sub.Cube.Pixels())
		flops, err := transformSlab(sub, req, ws.parallelism, ws.cost, rgb)
		if err != nil {
			return 0, nil, 0, err
		}
		return KindTransformResp, reply, flops, nil

	case KindFuseReq:
		req, err := DecodeFuseReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		if ws.tile == nil {
			return 0, nil, 0, fmt.Errorf("core: no tile kernel registered for algorithm %q", ws.algorithm)
		}
		// The whole per-tile fusion in one step: decompose, select, merge
		// and color-map inside the registered kernel, deterministic at
		// every parallelism. Reissued requests recompute — the kernel is
		// pure, so the reply is byte-identical and the manager dedupes.
		pixels := req.Cube.Pixels()
		reply, rgb := newSlabFrame(req.Range, req.Cube.Width, pixels)
		if err := ws.tile(req.Cube, ws.parallelism, rgb); err != nil {
			return 0, nil, 0, err
		}
		// Charge the transform-shaped model cost: one pass over the tile's
		// samples producing 3 output planes, plus the color mapping.
		flops := ws.cost.TransformFlops(pixels, req.Cube.Bands, 3) + ws.cost.ColorMapFlops(pixels)
		return KindFuseResp, reply, flops, nil
	}
	return 0, nil, 0, nil
}

// workerBody executes the worker side of the fusion protocol as a
// resilient thread that lives exactly one job — the 8-step pct exchange
// or the single-phase tile-kernel exchange, per the job's algorithm —
// stopping on KindStop.
func workerBody(manager resilient.LogicalID, algorithm string, threshold float64, parallelism int, cost perfmodel.Model) resilient.RBody {
	return func(env resilient.REnv) error {
		ws := newWorkerState(algorithm, threshold, parallelism, cost)
		for {
			m, err := env.Recv()
			if err != nil {
				return err
			}
			if m.Kind == KindStop {
				return nil
			}
			replyKind, reply, flops, err := ws.Handle(m.Kind, m.Payload)
			if err != nil {
				return err
			}
			if replyKind == 0 {
				continue
			}
			if flops > 0 {
				if err := env.Compute(flops); err != nil {
					return err
				}
			}
			if err := env.SendFrame(manager, replyKind, reply); err != nil {
				return err
			}
		}
	}
}

// transformSlab runs steps 7 (PCT projection) and 8 (human-centered
// color mapping) on one cached sub-cube, writing the RGB slab into rgb
// (3 bytes per pixel — the worker passes the slab of its reply frame) and
// returning the modeled cost. The projection runs through pct's blocked
// kernel (staged pixel blocks, tiled GEMM, fixed block grid —
// bit-identical for any parallelism) with the color mapping fused into
// each block's sink, so no intermediate component cube is materialized.
func transformSlab(sub *hsi.SubCube, req *TransformReq, parallelism int, cost perfmodel.Model, rgb []byte) (float64, error) {
	cube := sub.Cube
	comps := req.Transform.Rows
	pixels := cube.Pixels()

	err := pct.TransformBlocks(cube, req.Transform, req.Mean, parallelism,
		func(lo int, pc *linalg.Matrix) {
			var c [3]float64
			for r := 0; r < pc.Rows; r++ {
				row := pc.Data[r*comps : (r+1)*comps]
				for k := 0; k < 3 && k < comps; k++ {
					c[k] = req.Stretches[k].Apply(row[k])
				}
				cr, cg, cb := colormap.MapPixel(c)
				i := (lo + r) * 3
				rgb[i], rgb[i+1], rgb[i+2] = cr, cg, cb
			}
		})
	if err != nil {
		return 0, err
	}
	return cost.TransformFlops(pixels, cube.Bands, comps) + cost.ColorMapFlops(pixels), nil
}

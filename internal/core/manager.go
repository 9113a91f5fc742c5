package core

import (
	"errors"
	"fmt"
	"image"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/spectral"
	"resilientfusion/internal/telemetry"
)

// ManagerID is the manager's logical thread ID; workers are 1..P.
const ManagerID resilient.LogicalID = 0

// PhaseTimes records when each algorithm phase completed, in runtime
// seconds (virtual on the simulated cluster).
type PhaseTimes struct {
	Screen     float64 // steps 1–2 complete (includes merge)
	Statistics float64 // steps 3–5 complete
	Eigen      float64 // step 6 complete
	Transform  float64 // steps 7–8 complete
	Total      float64
}

// Result is the outcome of a distributed fusion run.
type Result struct {
	// Image is the fused color composite (paper Figure 3).
	Image *image.RGBA
	// UniqueSetSize is K after the global merge.
	UniqueSetSize int
	// Mean and Eigenvalues summarize the statistics the transform used.
	Mean        linalg.Vector
	Eigenvalues linalg.Vector
	// Transform is the 3×n projection matrix.
	Transform *linalg.Matrix
	// Times are the phase completion stamps.
	Times PhaseTimes
	// SubCubes is the number of screening sub-problems (granularity).
	SubCubes int
	// ScreenStats aggregates the screening workload of the whole job:
	// every sub-cube's worker screen (counted once per sub-cube, however
	// many replicas or reissues answered) plus the manager's merge. The
	// per-part counts are deterministic and the aggregate is a sum, so
	// the value is independent of arrival order, parallelism, and
	// resiliency events — Sequential reports the identical value.
	ScreenStats spectral.Stats
	// Reissues counts timeout-driven retransmissions of sub-problems.
	Reissues int
	// CacheMisses counts transform requests that needed a data resend.
	CacheMisses int

	completed bool
}

// managerBody drives the 8 steps from the manager thread.
func managerBody(rt *resilient.Runtime, src CubeSource, opts Options, res *Result) resilient.RBody {
	return func(env resilient.REnv) error {
		defer rt.Shutdown()
		return RunManagerSource(env, src, opts, res)
	}
}

// RunManager drives the 8-step fusion protocol from env against workers
// with logical IDs 1..opts.Workers, filling res. It is the job-scoped run
// path shared by the resilient job (NewJob) and the service pool, which
// spawns one manager per job over long-lived pooled workers.
func RunManager(env resilient.REnv, cube *hsi.Cube, opts Options, res *Result) error {
	return RunManagerSource(env, MemSource(cube), opts, res)
}

// RunManagerSource is RunManager over an arbitrary tile source: the
// decomposition is a function of the source's shape alone, and tiles are
// pulled on demand, so a streamed scene run is bit-identical to the
// in-memory run over the same samples while the manager's working set
// stays bounded by the tiles in flight.
func RunManagerSource(env resilient.REnv, src CubeSource, opts Options, res *Result) error {
	m := &manager{env: env, src: src, opts: opts.withDefaults(), res: res}
	m.width, m.height, m.bands = src.Shape()
	if err := m.run(); err != nil {
		return fmt.Errorf("manager: %w", err)
	}
	res.completed = true
	return nil
}

type manager struct {
	env  resilient.REnv
	src  CubeSource
	opts Options
	res  *Result

	width, height, bands int

	ranges []hsi.RowRange
	// owner[i] is the worker group that screened (and caches) sub-cube i.
	owner []resilient.LogicalID

	// tr receives stage spans (nil disables; every method is nil-safe).
	// The t0 slices stamp when each sub-problem was first dispatched so
	// the span covers send→response, reissues included; -1 means unsent.
	tr                    *telemetry.TraceRecorder
	screenT0, covT0, tfT0 []float64
	fuseT0                []float64
}

// newT0 returns an n-slot dispatch-stamp slice, all unsent.
func newT0(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

func (m *manager) run() error {
	t0 := m.env.Now()
	opts := m.opts

	m.ranges = opts.TileRanges(m.height)
	m.owner = make([]resilient.LogicalID, len(m.ranges))
	m.res.SubCubes = len(m.ranges)
	m.tr = opts.Trace
	m.screenT0 = newT0(len(m.ranges))
	m.covT0 = newT0(opts.Workers)
	m.tfT0 = newT0(len(m.ranges))
	m.fuseT0 = newT0(len(m.ranges))

	// Registry dispatch: tile-kernel algorithms (pyramid, dwt) run one
	// distribute/collect phase — same dynamic scheduling, prefetch and
	// reissue machinery as screening, but each reply is a finished RGB
	// slab. The pct entry has no tile kernel and continues into the
	// 8-step protocol below.
	alg, ok := fuse.Lookup(opts.Algorithm)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q (have %v)",
			ErrBadOptions, opts.Algorithm, fuse.Names())
	}
	if alg.FuseTile != nil {
		img, err := m.fusePhase()
		if err != nil {
			return fmt.Errorf("fuse phase: %w", err)
		}
		m.res.Image = img
		m.res.Times.Transform = m.env.Now() - t0
		m.res.Times.Total = m.env.Now() - t0
		for w := 1; w <= opts.Workers; w++ {
			if err := m.env.Send(resilient.LogicalID(w), KindStop, nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Steps 1–2: distributed screening, then sequential merge.
	uniqueSets, err := m.screenPhase()
	if err != nil {
		return fmt.Errorf("screen phase: %w", err)
	}
	mergeT0 := m.tr.Now()
	merged, err := m.mergePhase(uniqueSets)
	if err != nil {
		return fmt.Errorf("merge phase: %w", err)
	}
	m.tr.Stage("merge", -1, mergeT0, m.tr.Now())
	m.res.UniqueSetSize = merged.Len()
	m.res.Times.Screen = m.env.Now() - t0

	// Step 3: mean vector over the unique set (manager; cost ∝ K·n).
	meanT0 := m.tr.Now()
	mean, err := pct.MeanOfPar(merged.Members, opts.Parallelism)
	if err != nil {
		return err
	}
	if err := m.env.Compute(opts.Cost.MeanFlops(merged.Len(), m.bands)); err != nil {
		return err
	}
	m.tr.Stage("mean", -1, meanT0, m.tr.Now())
	// Steps 4–5: distributed covariance partial sums, combined here.
	cov, err := m.covariancePhase(merged.Members, mean)
	if err != nil {
		return fmt.Errorf("covariance phase: %w", err)
	}
	m.res.Mean = mean
	m.res.Times.Statistics = m.env.Now() - t0

	// Step 6: transformation matrix (sequential at the manager: its
	// complexity depends on the band count, not the image size).
	eigenT0 := m.tr.Now()
	eig, err := linalg.EigenSymWith(cov, opts.Solver)
	if err != nil {
		return err
	}
	if err := m.env.Compute(opts.Cost.EigenFlops(m.bands)); err != nil {
		return err
	}
	transform, err := eig.TransformMatrix(opts.Components)
	if err != nil {
		return err
	}
	m.tr.Stage("eigen", -1, eigenT0, m.tr.Now())
	stretches := colormap.VarianceStretch(eig.Values[:opts.Components], 3)
	m.res.Eigenvalues = eig.Values
	m.res.Transform = transform
	m.res.Times.Eigen = m.env.Now() - t0

	// Steps 7–8: distributed transform + color mapping over cached
	// sub-cubes, assembled into the composite.
	img, err := m.transformPhase(mean, transform, stretches)
	if err != nil {
		return fmt.Errorf("transform phase: %w", err)
	}
	m.res.Image = img
	m.res.Times.Transform = m.env.Now() - t0
	m.res.Times.Total = m.env.Now() - t0

	// Graceful worker shutdown.
	for w := 1; w <= opts.Workers; w++ {
		if err := m.env.Send(resilient.LogicalID(w), KindStop, nil); err != nil {
			return err
		}
	}
	return nil
}

// sendScreen ships sub-cube idx to a worker, pulling the tile from the
// source (an in-memory extract or a streamed read).
func (m *manager) sendScreen(idx int, to resilient.LogicalID) error {
	ingestT0 := m.tr.Now()
	tile, err := m.src.Tile(m.ranges[idx])
	if err != nil {
		return err
	}
	m.tr.Stage("ingest", idx, ingestT0, m.tr.Now())
	frame, err := AppendScreenReq(resilient.NewFrame(0), &ScreenReq{Range: m.ranges[idx], Cube: tile})
	if err != nil {
		return err
	}
	m.owner[idx] = to
	if m.screenT0[idx] < 0 {
		m.screenT0[idx] = m.tr.Now()
	}
	return m.env.SendFrame(to, KindScreenReq, frame)
}

// screenPhase distributes sub-cubes dynamically: each worker starts with
// 1+Prefetch sub-problems so it always has the next one queued while
// computing the current one ("a worker overlaps the request for its next
// sub-problem with the calculation associated with the current
// sub-problem"). Returns per-sub-cube unique sets, indexed.
func (m *manager) screenPhase() ([][]linalg.Vector, error) {
	S := len(m.ranges)
	uniq := make([][]linalg.Vector, S)
	next := 0 // next unassigned sub-cube
	outstanding := newIntSet(S)
	reissues := 0

	// Initial fill, breadth-first: every worker gets one sub-problem
	// before anyone gets a prefetched second, so small decompositions
	// still use all processors. Canonical Prefetch is -1 when overlap is
	// disabled: each worker then holds exactly one sub-problem.
	prefetch := m.opts.Prefetch
	if prefetch < 0 {
		prefetch = 0
	}
	for q := 0; q <= prefetch && next < S; q++ {
		for w := 1; w <= m.opts.Workers && next < S; w++ {
			if err := m.sendScreen(next, resilient.LogicalID(w)); err != nil {
				return nil, err
			}
			outstanding.add(next)
			next++
		}
	}
	done := 0
	for done < S {
		msg, err := m.env.RecvTimeout(m.opts.RequestTimeout)
		if errors.Is(err, resilient.ErrTimeout) {
			reissues++
			m.res.Reissues++
			if reissues > m.opts.MaxReissues {
				return nil, fmt.Errorf("screening stalled after %d reissues (%d/%d done)", reissues, done, S)
			}
			for _, idx := range outstanding.keys() {
				if err := m.sendScreen(idx, m.owner[idx]); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if msg.Kind != KindScreenResp {
			continue // stale traffic from an earlier phase/reissue
		}
		resp, err := DecodeScreenResp(msg.Payload)
		if err != nil {
			return nil, err
		}
		if resp.Index < 0 || resp.Index >= S || uniq[resp.Index] != nil {
			continue // duplicate (reissue raced the original)
		}
		m.res.ScreenStats.Add(resp.Stats)
		uniq[resp.Index] = resp.Vectors
		if len(resp.Vectors) == 0 {
			uniq[resp.Index] = []linalg.Vector{} // mark done distinctly from nil
		}
		m.tr.Stage("screen", resp.Index, m.screenT0[resp.Index], m.tr.Now())
		outstanding.remove(resp.Index)
		done++
		if obs, ok := m.src.(TileObserver); ok {
			obs.TileScreened(done, S)
		}
		// Keep the responding worker busy with the next sub-problem.
		if next < S {
			if err := m.sendScreen(next, msg.From); err != nil {
				return nil, err
			}
			outstanding.add(next)
			next++
		}
	}
	return uniq, nil
}

// sendFuse ships sub-cube idx to a worker for whole-tile fusion,
// pulling the tile from the source (an in-memory extract or a streamed
// read).
func (m *manager) sendFuse(idx int, to resilient.LogicalID) error {
	ingestT0 := m.tr.Now()
	tile, err := m.src.Tile(m.ranges[idx])
	if err != nil {
		return err
	}
	m.tr.Stage("ingest", idx, ingestT0, m.tr.Now())
	frame, err := AppendFuseReq(resilient.NewFrame(0), &FuseReq{Range: m.ranges[idx], Cube: tile})
	if err != nil {
		return err
	}
	m.owner[idx] = to
	if m.fuseT0[idx] < 0 {
		m.fuseT0[idx] = m.tr.Now()
	}
	return m.env.SendFrame(to, KindFuseReq, frame)
}

// fusePhase is the whole run for tile-kernel algorithms: sub-cubes are
// distributed dynamically with the screen phase's breadth-first initial
// fill and prefetch overlap, each reply carries the tile's finished RGB
// slab, and the manager assembles the composite. Tile requests carry
// their data, so a reissue after a worker loss needs no cached state —
// any live worker can recompute any tile.
func (m *manager) fusePhase() (*image.RGBA, error) {
	S := len(m.ranges)
	img := image.NewRGBA(image.Rect(0, 0, m.width, m.height))
	doneIdx := make([]bool, S)
	next := 0 // next unassigned sub-cube
	outstanding := newIntSet(S)
	reissues := 0

	prefetch := m.opts.Prefetch
	if prefetch < 0 {
		prefetch = 0
	}
	for q := 0; q <= prefetch && next < S; q++ {
		for w := 1; w <= m.opts.Workers && next < S; w++ {
			if err := m.sendFuse(next, resilient.LogicalID(w)); err != nil {
				return nil, err
			}
			outstanding.add(next)
			next++
		}
	}
	for done := 0; done < S; {
		msg, err := m.env.RecvTimeout(m.opts.RequestTimeout)
		if errors.Is(err, resilient.ErrTimeout) {
			reissues++
			m.res.Reissues++
			if reissues > m.opts.MaxReissues {
				return nil, fmt.Errorf("fusion stalled after %d reissues (%d/%d done)", reissues, done, S)
			}
			for _, idx := range outstanding.keys() {
				if err := m.sendFuse(idx, m.owner[idx]); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if msg.Kind != KindFuseResp {
			continue // stale traffic from a reissue race
		}
		resp, err := DecodeFuseResp(msg.Payload)
		if err != nil {
			return nil, err
		}
		idx := resp.Range.Index
		if idx < 0 || idx >= S || doneIdx[idx] {
			continue // duplicate (reissue raced the original)
		}
		blitRGB(img, resp)
		m.tr.Stage("fuse", idx, m.fuseT0[idx], m.tr.Now())
		doneIdx[idx] = true
		outstanding.remove(idx)
		done++
		// A tile completes both pipeline positions at once for progress
		// observers: there is no separate screen step to report.
		if obs, ok := m.src.(TileObserver); ok {
			obs.TileScreened(done, S)
			obs.TileTransformed(done, S)
		}
		// Keep the responding worker busy with the next sub-problem.
		if next < S {
			if err := m.sendFuse(next, msg.From); err != nil {
				return nil, err
			}
			outstanding.add(next)
			next++
		}
	}
	return img, nil
}

// mergePhase is algorithm step 2: the manager combines per-sub-cube
// unique sets in deterministic index order.
func (m *manager) mergePhase(uniq [][]linalg.Vector) (*spectral.UniqueSet, error) {
	parts := make([]*spectral.UniqueSet, 0, len(uniq))
	for _, vectors := range uniq {
		// Merge only walks Members, so a bare set suffices.
		parts = append(parts, &spectral.UniqueSet{Threshold: m.opts.Threshold, Members: vectors})
	}
	merged, st, err := spectral.Merge(parts, m.opts.Threshold)
	if err != nil {
		return nil, err
	}
	m.res.ScreenStats.Add(st)
	return merged, m.env.Compute(m.opts.Cost.ScreenFlops(st, m.bands))
}

// covariancePhase is algorithm steps 4–5: the unique set is split into P
// parts, each worker forms a partial sum, and the manager averages them.
func (m *manager) covariancePhase(members []linalg.Vector, mean linalg.Vector) (*linalg.Matrix, error) {
	P := m.opts.Workers
	parts := splitVectors(members, P)
	partials := make([]*linalg.Matrix, P)
	outstanding := newIntSet(P)
	send := func(p int) error {
		req := &CovReq{Part: p, Mean: mean, Vectors: parts[p]}
		if m.covT0[p] < 0 {
			m.covT0[p] = m.tr.Now()
		}
		return m.env.SendFrame(resilient.LogicalID(p%P+1), KindCovReq, AppendCovReq(resilient.NewFrame(0), req))
	}
	for p := 0; p < P; p++ {
		if err := send(p); err != nil {
			return nil, err
		}
		outstanding.add(p)
	}
	reissues := 0
	for done := 0; done < P; {
		msg, err := m.env.RecvTimeout(m.opts.RequestTimeout)
		if errors.Is(err, resilient.ErrTimeout) {
			reissues++
			m.res.Reissues++
			if reissues > m.opts.MaxReissues {
				return nil, fmt.Errorf("covariance stalled after %d reissues", reissues)
			}
			for _, p := range outstanding.keys() {
				if err := send(p); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if msg.Kind != KindCovResp {
			continue
		}
		resp, err := DecodeCovResp(msg.Payload)
		if err != nil {
			return nil, err
		}
		if resp.Part < 0 || resp.Part >= P || partials[resp.Part] != nil {
			continue
		}
		partials[resp.Part] = resp.Sum
		m.tr.Stage("covariance", resp.Part, m.covT0[resp.Part], m.tr.Now())
		outstanding.remove(resp.Part)
		done++
	}
	cov, err := pct.Covariance(partials, len(members))
	if err != nil {
		return nil, err
	}
	return cov, m.env.Compute(m.opts.Cost.CovCombineFlops(P, m.bands))
}

// transformPhase is algorithm steps 7–8: workers transform and color-map
// their cached sub-cubes; the manager assembles the composite image.
func (m *manager) transformPhase(mean linalg.Vector, transform *linalg.Matrix, stretches []colormap.Stretch) (*image.RGBA, error) {
	S := len(m.ranges)
	img := image.NewRGBA(image.Rect(0, 0, m.width, m.height))
	doneIdx := make([]bool, S)
	outstanding := newIntSet(S)

	send := func(idx int, withData bool) error {
		req := &TransformReq{
			Range:     m.ranges[idx],
			Mean:      mean,
			Transform: transform,
			Stretches: stretches,
		}
		if withData {
			tile, err := m.src.Tile(m.ranges[idx])
			if err != nil {
				return err
			}
			req.Cube = tile
		}
		frame, err := AppendTransformReq(resilient.NewFrame(0), req)
		if err != nil {
			return err
		}
		if m.tfT0[idx] < 0 {
			m.tfT0[idx] = m.tr.Now()
		}
		return m.env.SendFrame(m.owner[idx], KindTransformReq, frame)
	}
	for idx := range m.ranges {
		if err := send(idx, false); err != nil {
			return nil, err
		}
		outstanding.add(idx)
	}
	reissues := 0
	for done := 0; done < S; {
		msg, err := m.env.RecvTimeout(m.opts.RequestTimeout)
		if errors.Is(err, resilient.ErrTimeout) {
			reissues++
			m.res.Reissues++
			if reissues > m.opts.MaxReissues {
				return nil, fmt.Errorf("transform stalled after %d reissues (%d/%d done)", reissues, done, S)
			}
			for _, idx := range outstanding.keys() {
				if err := send(idx, true); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		switch msg.Kind {
		case KindCacheMiss:
			idx, err := DecodeCacheMiss(msg.Payload)
			if err != nil {
				return nil, err
			}
			if idx >= 0 && idx < S && !doneIdx[idx] {
				m.res.CacheMisses++
				if err := send(idx, true); err != nil {
					return nil, err
				}
			}
		case KindTransformResp:
			resp, err := DecodeTransformResp(msg.Payload)
			if err != nil {
				return nil, err
			}
			idx := resp.Range.Index
			if idx < 0 || idx >= S || doneIdx[idx] {
				continue
			}
			blitRGB(img, resp)
			m.tr.Stage("transform", idx, m.tfT0[idx], m.tr.Now())
			doneIdx[idx] = true
			outstanding.remove(idx)
			done++
			if obs, ok := m.src.(TileObserver); ok {
				obs.TileTransformed(done, S)
			}
		}
	}
	return img, nil
}

// blitRGB widens a worker's RGB slab into the composite's RGBA rows.
func blitRGB(img *image.RGBA, resp *TransformResp) {
	w := resp.Width
	for row := 0; row < resp.Range.Rows(); row++ {
		src := resp.RGB[row*w*3 : (row+1)*w*3]
		dst := img.Pix[(resp.Range.Y0+row)*img.Stride:][:w*4]
		for x := 0; x < w; x++ {
			s := src[3*x : 3*x+3 : 3*x+3]
			d := dst[4*x : 4*x+4 : 4*x+4]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], 0xFF
		}
	}
}

// splitVectors divides vs into parts contiguous, balanced slices.
func splitVectors(vs []linalg.Vector, parts int) [][]linalg.Vector {
	out := make([][]linalg.Vector, parts)
	base := len(vs) / parts
	extra := len(vs) % parts
	off := 0
	for p := 0; p < parts; p++ {
		n := base
		if p < extra {
			n++
		}
		out[p] = vs[off : off+n]
		off += n
	}
	return out
}

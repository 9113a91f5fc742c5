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

// runManager drives the 8-step fusion protocol from env against workers
// with logical IDs 1..opts.Workers, filling res — the manager thread of
// every job StartJob wires. The decomposition is a function of the
// source's shape alone, and tiles are pulled on demand, so a streamed
// scene run is bit-identical to the in-memory run over the same samples
// while the manager's working set stays bounded by the tiles in flight.
func runManager(env resilient.REnv, src CubeSource, opts Options, res *Result) error {
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
	tr *telemetry.TraceRecorder
	// obs is the source's progress observer, nil when it has none.
	obs TileObserver
}

func (m *manager) run() error {
	t0 := m.env.Now()
	opts := m.opts

	m.ranges = opts.TileRanges(m.height)
	m.owner = make([]resilient.LogicalID, len(m.ranges))
	m.res.SubCubes = len(m.ranges)
	m.tr = opts.Trace
	m.obs, _ = m.src.(TileObserver)

	// Registry dispatch: tile-kernel algorithms (pyramid, dwt) run one
	// fuse phase whose replies are finished RGB slabs; the pct entry has
	// no tile kernel and runs the 8-step protocol.
	alg, ok := fuse.Lookup(opts.Algorithm)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q (have %v)",
			ErrBadOptions, opts.Algorithm, fuse.Names())
	}
	img := image.NewRGBA(image.Rect(0, 0, m.width, m.height))
	var err error
	if alg.FuseTile != nil {
		// Tile requests carry their data, so a reissue after a worker loss
		// needs no cached state: any live worker can recompute any tile.
		err = collect(m, m.slabPhase("fuse", img, phase[*FuseResp]{
			dynamic: true,
			reqKind: KindFuseReq, respKind: KindFuseResp,
			request: m.tileRequest,
			// A tile completes both pipeline positions at once for progress
			// observers: there is no separate screen step to report.
			progress: func(obs TileObserver, done, total int) {
				obs.TileScreened(done, total)
				obs.TileTransformed(done, total)
			},
		}))
	} else {
		err = m.pct(t0, img)
	}
	if err != nil {
		return err
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

// pct runs the paper's steps 1–8 into img: distributed screening,
// merge, mean, distributed covariance, eigen, distributed transform.
func (m *manager) pct(t0 float64, img *image.RGBA) error {
	opts := m.opts

	// Steps 1–2: distributed screening, then sequential merge. Each worker
	// starts with 1+Prefetch sub-cubes so it always has the next one queued
	// while computing the current one ("a worker overlaps the request for
	// its next sub-problem with the calculation associated with the
	// current sub-problem").
	uniq := make([][]linalg.Vector, len(m.ranges))
	err := collect(m, phase[*ScreenResp]{
		stage: "screen", items: len(m.ranges), owner: m.owner, dynamic: true,
		reqKind: KindScreenReq, respKind: KindScreenResp,
		request: m.tileRequest,
		decode:  DecodeScreenResp,
		index:   func(r *ScreenResp) int { return r.Index },
		store: func(i int, r *ScreenResp) {
			m.res.ScreenStats.Add(r.Stats)
			uniq[i] = r.Vectors
		},
		progress: TileObserver.TileScreened,
	})
	if err != nil {
		return err
	}
	mergeT0 := m.tr.Now()
	merged, err := m.mergePhase(uniq)
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

	// Steps 4–5: the unique set is split into P parts, worker p+1 forms
	// part p's partial sum, and the manager averages them.
	P := opts.Workers
	parts := splitVectors(merged.Members, P)
	partials := make([]*linalg.Matrix, P)
	owners := make([]resilient.LogicalID, P)
	for p := range owners {
		owners[p] = resilient.LogicalID(p + 1)
	}
	err = collect(m, phase[*CovResp]{
		stage: "covariance", items: P, owner: owners,
		reqKind: KindCovReq, respKind: KindCovResp,
		request: func(p int, _ bool) ([]byte, error) {
			return AppendCovReq(resilient.NewFrame(0), &CovReq{Part: p, Mean: mean, Vectors: parts[p]}), nil
		},
		decode: DecodeCovResp,
		index:  func(r *CovResp) int { return r.Part },
		store:  func(p int, r *CovResp) { partials[p] = r.Sum },
	})
	if err != nil {
		return err
	}
	cov, err := pct.Covariance(partials, merged.Len())
	if err != nil {
		return err
	}
	if err := m.env.Compute(opts.Cost.CovCombineFlops(P, m.bands)); err != nil {
		return err
	}
	m.res.Mean = mean
	m.res.Times.Statistics = m.env.Now() - t0

	// Step 6: transformation matrix (sequential at the manager: its
	// complexity depends on the band count, not the image size).
	eigenT0 := m.tr.Now()
	eig, err := linalg.EigenSym(cov)
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

	// Steps 7–8: each sub-cube's screener transforms and color-maps its
	// cached copy; a worker that lost the cache answers KindCacheMiss.
	return collect(m, m.slabPhase("transform", img, phase[*TransformResp]{
		reqKind: KindTransformReq, respKind: KindTransformResp,
		request: func(i int, withData bool) ([]byte, error) {
			req := &TransformReq{Range: m.ranges[i], Mean: mean, Transform: transform, Stretches: stretches}
			if withData {
				tile, err := m.src.Tile(m.ranges[i])
				if err != nil {
					return nil, err
				}
				req.Cube = tile
			}
			return AppendTransformReq(resilient.NewFrame(0), req)
		},
		progress: TileObserver.TileTransformed,
	}))
}

// tileRequest frames sub-cube i with its data, pulled from the source (an
// in-memory extract or a streamed read). Screen and fuse requests share
// this layout and always carry the tile.
func (m *manager) tileRequest(i int, _ bool) ([]byte, error) {
	ingestT0 := m.tr.Now()
	tile, err := m.src.Tile(m.ranges[i])
	if err != nil {
		return nil, err
	}
	m.tr.Stage("ingest", i, ingestT0, m.tr.Now())
	return AppendScreenReq(resilient.NewFrame(0), &ScreenReq{Range: m.ranges[i], Cube: tile})
}

// slabPhase completes p as a per-sub-cube phase whose replies are RGB
// slabs assembled into img.
func (m *manager) slabPhase(stage string, img *image.RGBA, p phase[*TransformResp]) phase[*TransformResp] {
	p.stage, p.items, p.owner = stage, len(m.ranges), m.owner
	p.decode = DecodeTransformResp
	p.index = func(r *TransformResp) int { return r.Range.Index }
	p.store = func(_ int, r *TransformResp) { blitRGB(img, r) }
	return p
}

// phase describes one distributed step of the protocol to collect.
type phase[R any] struct {
	stage string // trace stage name; also labels the phase's errors
	items int    // sub-cubes or covariance parts
	// owner[i] is the worker that holds item i. Dynamic placement fills
	// it as items go out; fixed placement reads it as given.
	owner   []resilient.LogicalID
	dynamic bool

	reqKind, respKind uint16
	// request frames item i; withData asks for the item's data even where
	// the worker should already hold it (reissues, cache misses).
	request func(i int, withData bool) ([]byte, error)
	decode  func(payload []byte) (R, error)
	index   func(R) int
	store   func(i int, r R) // called once per item
	// progress, when set, reports completed items to the source's observer.
	progress func(obs TileObserver, done, total int)
}

// collect runs one phase to completion and is the manager's only receive
// loop. Dynamic placement deals items breadth-first until every worker
// holds 1+Prefetch, then hands the next item to whichever worker replied.
// Fixed placement sends every item to its owner at once.
// Replies are deduplicated by index (replicas and reissues race), a
// KindCacheMiss resends its item with data, and each RequestTimeout
// without a reply resends every outstanding item, in ascending index
// order and with data, at most MaxReissues times.
func collect[R any](m *manager, p phase[R]) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s phase: %w", p.stage, err)
		}
	}()
	n := p.items
	// t0[i] stamps item i's first dispatch (-1: unsent), so its span
	// covers send→reply, reissues included.
	t0 := make([]float64, n)
	for i := range t0 {
		t0[i] = -1
	}
	done := make([]bool, n)
	outstanding := newIntSet(n)
	send := func(i int, to resilient.LogicalID, withData bool) error {
		frame, err := p.request(i, withData)
		if err != nil {
			return err
		}
		p.owner[i] = to
		if t0[i] < 0 {
			t0[i] = m.tr.Now()
		}
		outstanding.add(i)
		return m.env.SendFrame(to, p.reqKind, frame)
	}

	next := 0 // next unsent item
	if p.dynamic {
		// Breadth-first, so small decompositions still use every worker.
		// Canonical Prefetch is -1 when overlap is disabled.
		for q := 0; q <= max(m.opts.Prefetch, 0) && next < n; q++ {
			for w := 1; w <= m.opts.Workers && next < n; w++ {
				if err := send(next, resilient.LogicalID(w), false); err != nil {
					return err
				}
				next++
			}
		}
	} else {
		for ; next < n; next++ {
			if err := send(next, p.owner[next], false); err != nil {
				return err
			}
		}
	}

	reissues := 0
	for finished := 0; finished < n; {
		msg, err := m.env.RecvTimeout(m.opts.RequestTimeout)
		if errors.Is(err, resilient.ErrTimeout) {
			reissues++
			m.res.Reissues++
			if reissues > m.opts.MaxReissues {
				return fmt.Errorf("stalled after %d reissues (%d/%d done)", reissues, finished, n)
			}
			for _, i := range outstanding.keys() {
				if err := send(i, p.owner[i], true); err != nil {
					return err
				}
			}
			continue
		}
		if err != nil {
			return err
		}
		switch msg.Kind {
		case KindCacheMiss:
			i, err := DecodeCacheMiss(msg.Payload)
			if err != nil {
				return err
			}
			if i >= 0 && i < n && !done[i] {
				m.res.CacheMisses++
				if err := send(i, p.owner[i], true); err != nil {
					return err
				}
			}
		case p.respKind:
			r, err := p.decode(msg.Payload)
			if err != nil {
				return err
			}
			i := p.index(r)
			if i < 0 || i >= n || done[i] {
				continue // duplicate (a reissue raced the original)
			}
			p.store(i, r)
			m.tr.Stage(p.stage, i, t0[i], m.tr.Now())
			done[i] = true
			outstanding.remove(i)
			finished++
			if m.obs != nil && p.progress != nil {
				p.progress(m.obs, finished, n)
			}
			// Keep the responding worker busy with the next item.
			if p.dynamic && next < n {
				if err := send(next, msg.From, false); err != nil {
					return err
				}
				next++
			}
		}
		// Any other kind is stale traffic from an earlier phase.
	}
	return nil
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

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/core"
	"resilientfusion/internal/fuse/dwt"
	"resilientfusion/internal/fuse/pyramid"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/service"
	"resilientfusion/internal/spectral"
	"resilientfusion/internal/store"
)

// replay walks the workload's sample input through each layer's
// exported functions, stage by stage, in this process: one span and one
// allocation delta per call, no timer inside any layer. Timings are
// medians over a few repeats.
type replay struct {
	rec       *recorder
	v         values
	sample    *hsi.Cube
	hsic      []byte // the sample's HSIC encoding
	scenePath string // the sample's ENVI BIL rendering
	sceneJobs bool   // the workload fuses a registered scene, not uploaded cubes
	alg       string // the algorithm the in-process pool ops run (the workload's own)
	dir       string // scratch on the checkout's filesystem
	sums      kernelSums
}

// timeN runs fn n times, one span each, and returns the median seconds
// and median bytes allocated.
func (p *replay) timeN(name string, n int, fn func() error) (seconds, alloc float64, err error) {
	var secs, allocs []float64
	for i := 0; i < n; i++ {
		s, a, err := p.rec.call(name, -1, fn)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, s)
		allocs = append(allocs, float64(a))
	}
	return median(secs), median(allocs), nil
}

// msOf is timeN for callers that only want milliseconds into v[metric].
func (p *replay) msOf(metric, span string, n int, fn func() error) (float64, error) {
	s, _, err := p.timeN(span, n, fn)
	p.v[metric] = s * 1000
	return s, err
}

// jobOpts is how the in-process-pool daemons run the sample: two
// workers, default granularity (four tiles), one kernel thread each on a
// 2-CPU host.
var jobOpts = core.Options{Workers: poolWorkers}

func (p *replay) run() error {
	for _, layer := range []func() error{p.hsi, p.scene, p.kernels, p.fuse, p.core, p.pool, p.store} {
		if err := layer(); err != nil {
			return err
		}
	}
	return nil
}

func (p *replay) hsi() error {
	var cube *hsi.Cube
	if _, err := p.msOf("hsi.decode_ms", "hsi.ReadCube", 3, func() (err error) {
		cube, err = hsi.ReadCube(bytes.NewReader(p.hsic))
		return err
	}); err != nil {
		return err
	}
	if _, err := p.msOf("hsi.digest_ms", "hsi.Cube.Digest", 3, func() error {
		_, err := cube.Digest()
		return err
	}); err != nil {
		return err
	}
	_, err := p.msOf("hsi.stage_ms", "hsi.Cube.PixelMatrix", 3, func() error {
		cube.PixelMatrix()
		return nil
	})
	return err
}

func (p *replay) scene() error {
	r, err := scene.Open(p.scenePath)
	if err != nil {
		return err
	}
	defer r.Close()
	w, h, bands := r.Shape()
	ranges := jobOpts.TileRanges(h)
	tiler := scene.NewTiler(r)
	var readSecs, readBytes float64
	for pass := 0; pass < 2; pass++ {
		for _, rr := range ranges {
			s, _, err := p.rec.call("scene.Tiler.Tile", -1, func() error {
				_, err := tiler.Tile(rr)
				return err
			})
			if err != nil {
				return err
			}
			readSecs += s
			readBytes += float64(w * rr.Rows() * bands * 4)
		}
	}
	p.v["scene.tile_read_ms"] = median(p.rec.durations("scene.Tiler.Tile")) * 1000
	p.v["scene.read_mb_per_s"] = readBytes / 1e6 / readSecs

	// The manager asks for tiles in range order; the prefetcher reads
	// the successor while the caller holds the current one.
	for pass := 0; pass < 2; pass++ {
		pt := scene.NewPrefetchTiler(tiler, ranges)
		for _, rr := range ranges {
			if _, _, err := p.rec.call("scene.PrefetchTiler.Tile", -1, func() error {
				_, err := pt.Tile(rr)
				return err
			}); err != nil {
				return err
			}
		}
		pt.Drain()
	}
	p.v["scene.prefetch_tile_ms"] = median(p.rec.durations("scene.PrefetchTiler.Tile")) * 1000
	_, err = p.msOf("scene.digest_ms", "scene.Reader.Digest", 3, func() error {
		_, err := r.Digest()
		return err
	})
	return err
}

// kernelSums are the per-job totals of the kernel replays, which
// core.protocol_overhead_ms subtracts from a whole fusion.
type kernelSums struct{ screen, merge, mean, cov, eigen, transform, compose float64 }

// kernels replays the pct pipeline's stages — spectral, pct, linalg,
// colormap — tile by tile at the pool's kernel parallelism of 1.
func (p *replay) kernels() error {
	thr := spectral.DefaultThreshold
	ranges := jobOpts.TileRanges(p.sample.Height)
	tiles := make([]*hsi.SubCube, len(ranges))
	parts := make([]*spectral.UniqueSet, len(ranges))
	var comparisons int
	for i, rr := range ranges {
		sub, err := hsi.Extract(p.sample, rr)
		if err != nil {
			return err
		}
		tiles[i] = sub
		vecs := sub.PixelVectors()
		var st spectral.Stats
		if _, _, err := p.timeN("spectral.ScreenBatched", 3, func() (err error) {
			parts[i], st, err = spectral.ScreenBatched(vecs, thr, 1)
			return err
		}); err != nil {
			return err
		}
		comparisons += st.Comparisons
		if _, _, err := p.timeN("spectral.ScreenBatched.par2", 3, func() error {
			_, _, err := spectral.ScreenBatched(vecs, thr, 2)
			return err
		}); err != nil {
			return err
		}
	}
	screen := median(p.rec.durations("spectral.ScreenBatched"))
	p.v["spectral.screen_ms"] = screen * 1000
	p.v["spectral.screen_p2_ms"] = median(p.rec.durations("spectral.ScreenBatched.par2")) * 1000
	p.sums.screen = screen * float64(len(ranges))

	var merged *spectral.UniqueSet
	var mst spectral.Stats
	var err error
	if p.sums.merge, err = p.msOf("spectral.merge_ms", "spectral.Merge", 3, func() (err error) {
		merged, mst, err = spectral.Merge(parts, thr)
		return err
	}); err != nil {
		return err
	}
	p.v["spectral.comparisons"] = float64(comparisons + mst.Comparisons)
	p.v["spectral.unique_k"] = float64(merged.Len())

	var mean linalg.Vector
	if p.sums.mean, err = p.msOf("pct.mean_ms", "pct.MeanOfPar", 5, func() (err error) {
		mean, err = pct.MeanOfPar(merged.Members, 1)
		return err
	}); err != nil {
		return err
	}
	var covSum *linalg.Matrix
	if p.sums.cov, err = p.msOf("pct.cov_ms", "pct.CovarianceSumPar", 5, func() (err error) {
		covSum, err = pct.CovarianceSumPar(merged.Members, mean, 1)
		return err
	}); err != nil {
		return err
	}
	cov, err := pct.Covariance([]*linalg.Matrix{covSum}, merged.Len())
	if err != nil {
		return err
	}
	var eig *linalg.Eigen
	if p.sums.eigen, err = p.msOf("linalg.eigen_ms", "linalg.EigenSym", 5, func() (err error) {
		eig, err = linalg.EigenSym(cov)
		return err
	}); err != nil {
		return err
	}
	transform, err := eig.TransformMatrix(3)
	if err != nil {
		return err
	}

	tile := tiles[0].Cube
	tsec, err := p.msOf("pct.transform_ms", "pct.TransformBlocks", 3, func() error {
		return pct.TransformBlocks(tile, transform, mean, 1, func(int, *linalg.Matrix) {})
	})
	if err != nil {
		return err
	}
	p.sums.transform = tsec * float64(len(ranges))

	// Flop counts are computed from the shapes, not measured.
	a := tile.PixelMatrix()
	dst := linalg.NewMatrix(a.Rows, transform.Rows)
	gsec, _, err := p.timeN("linalg.MulTransBInto", 5, func() error { return linalg.MulTransBInto(dst, a, transform) })
	if err != nil {
		return err
	}
	p.v["linalg.gemm_gflops"] = 2 * float64(a.Rows) * float64(a.Cols) * float64(transform.Rows) / gsec / 1e9
	members := linalg.NewMatrix(merged.Len(), p.sample.Bands)
	for i, m := range merged.Members {
		copy(members.Row(i), m)
	}
	gram := linalg.NewMatrix(p.sample.Bands, p.sample.Bands)
	ssec, _, err := p.timeN("linalg.SyrkInto", 20, func() error {
		gram.Zero()
		return linalg.SyrkInto(gram, members)
	})
	if err != nil {
		return err
	}
	p.v["linalg.syrk_gflops"] = float64(members.Rows) * float64(members.Cols) * float64(members.Cols+1) / ssec / 1e9

	comps, err := pct.TransformCubePar(tile, transform, mean, 1)
	if err != nil {
		return err
	}
	stretches := colormap.VarianceStretch(eig.Values[:3], 3)
	csec, err := p.msOf("colormap.compose_ms", "colormap.Compose", 5, func() error {
		_, err := colormap.Compose(comps, stretches)
		return err
	})
	p.sums.compose = csec * float64(len(ranges))
	return err
}

func (p *replay) fuse() error {
	tile, err := hsi.Extract(p.sample, jobOpts.TileRanges(p.sample.Height)[0])
	if err != nil {
		return err
	}
	rgb := make([]byte, tile.Cube.Pixels()*3)
	for _, k := range []struct {
		name string
		fn   func(*hsi.Cube, int, []byte) error
	}{{"pyramid", pyramid.Fuse}, {"dwt", dwt.Fuse}} {
		s, alloc, err := p.timeN("fuse/"+k.name+".Fuse", 3, func() error { return k.fn(tile.Cube, 1, rgb) })
		if err != nil {
			return err
		}
		p.v["fuse."+k.name+"_tile_ms"] = s * 1000
		p.v["fuse."+k.name+"_alloc_mb_per_tile"] = alloc / 1e6
	}
	return nil
}

// core replays whole fusions: the plain single-threaded baseline, the
// manager/worker protocol on a fresh in-process runtime, and the same
// with every worker replicated.
func (p *replay) core() error {
	seq := func(par int) func() error {
		return func() error {
			o := jobOpts
			o.Parallelism = par
			_, err := core.Sequential(p.sample, o)
			return err
		}
	}
	t1, err := p.msOf("core.sequential_ms", "core.Sequential", 3, seq(-1))
	if err != nil {
		return err
	}
	t2, _, err := p.timeN("core.Sequential.par2", 3, seq(2))
	if err != nil {
		return err
	}
	p.v["core.scaling_eff_p2"] = t1 / (2 * t2)

	fuseReal := func(o core.Options) func() error {
		return func() error {
			_, err := core.FuseSource(scplib.NewRealSystem(), core.MemSource(p.sample), o)
			return err
		}
	}
	real, err := p.msOf("core.fuse_real_ms", "core.FuseSource", 3, fuseReal(jobOpts))
	if err != nil {
		return err
	}
	// What two workers sharing the tile work evenly would need, with the
	// manager's serial steps in between; the rest of fuse_real is
	// protocol: envelopes, codecs, mailboxes, scheduling.
	w := float64(min(poolWorkers, runtime.NumCPU()))
	ideal := (p.sums.screen+p.sums.cov+p.sums.transform+p.sums.compose)/w + p.sums.merge + p.sums.mean + p.sums.eigen
	p.v["core.protocol_overhead_ms"] = (real - ideal) * 1000

	// The failure detector keeps core's defaults (2 s heartbeat, 8 s
	// timeout): a sub-second timeout declares replicas dead whenever the
	// host stalls, and a job that lost both replicas of a worker would
	// otherwise sit out the manager's 300 s request timeout eight times.
	r2 := jobOpts
	r2.Replication, r2.RequestTimeout, r2.MaxReissues = 2, 10, 2
	rsec, err := p.msOf("resilient.fuse_real_r2_ms", "core.FuseSource.r2", 3, fuseReal(r2))
	p.v["resilient.overhead_ratio"] = rsec / real
	return err
}

// poolOp is one Submit (FuseScene of a registered scene file on scene
// workloads) → Wait → ImagePNG against an in-process pool: the three
// service calls the HTTP layer wraps, so op_p50_ms − service.pool_op_ms
// is what HTTP and the client add.
func (p *replay) poolOp(pool *service.Pool, sceneID, name string) error {
	root := p.rec.begin(name, -1, -1)
	defer p.rec.end(root)
	var st service.JobStatus
	_, _, err := p.rec.call("service.Pool.Submit", root, func() (err error) {
		if sceneID != "" {
			st, err = pool.FuseScene(sceneID, core.Options{Algorithm: p.alg})
		} else {
			st, err = pool.Submit(p.sample, core.Options{Algorithm: p.alg})
		}
		return err
	})
	if err != nil {
		return err
	}
	if _, _, err := p.rec.call("service.Pool.Wait", root, func() (err error) {
		st, err = pool.Wait(st.ID)
		return err
	}); err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("in-process job %s ended %s: %v", st.ID, st.State, st.Err)
	}
	_, _, err = p.rec.call(name+".ImagePNG", root, func() error {
		_, err := pool.ImagePNG(st.ID)
		return err
	})
	return err
}

// registerIn registers the sample's scene file with pool on scene
// workloads, so the in-process op streams tiles as the daemon's does.
func (p *replay) registerIn(pool *service.Pool) (string, error) {
	if !p.sceneJobs {
		return "", nil
	}
	info, err := pool.RegisterSceneFile(p.scenePath)
	return info.ID, err
}

// pool measures the service layer without HTTP, then the same pool over
// a loopback cluster of two in-process workers at replication 2, whose
// registry gives the transport's frame counts and spawn latency.
func (p *replay) pool() error {
	plain, err := service.NewPool(service.Config{Workers: poolWorkers, MaxConcurrent: 1,
		CacheEntries: -1, SpoolDir: filepath.Join(p.dir, "pool-spool")})
	if err != nil {
		return err
	}
	sceneID, err := p.registerIn(plain)
	for i := 0; i < 3 && err == nil; i++ {
		err = p.poolOp(plain, sceneID, "service.Pool.op")
	}
	if cerr := plain.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.v["service.pool_op_ms"] = median(p.rec.durations("service.Pool.op")) * 1000
	p.v["service.image_png_ms"] = median(p.rec.durations("service.Pool.op.ImagePNG")) * 1000

	cl, err := service.NewPool(service.Config{CacheEntries: -1, SpoolDir: filepath.Join(p.dir, "cluster-spool"),
		Cluster: &service.ClusterConfig{Workers: clusterWorkers, Replication: 2}})
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < clusterWorkers; i++ {
		inner := resilient.NewBodyRegistry()
		core.RegisterWorkerBodies(inner)
		reg := scplib.NewBodyRegistry()
		resilient.RegisterWrapperBody(reg, inner)
		w, err := scplib.DialCluster(cl.Stats().Cluster.Addr, 5*time.Second, reg)
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run() // ends with Shutdown below; its error is that shutdown
		}()
		defer func() {
			w.Shutdown()
			<-done
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); cl.Stats().Cluster.LiveWorkers < clusterWorkers; {
		if time.Now().After(deadline) {
			return fmt.Errorf("loopback cluster: %d of %d workers live", cl.Stats().Cluster.LiveWorkers, clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	if sceneID, err = p.registerIn(cl); err != nil {
		return err
	}
	const jobs = 3
	before, err := scrapeRegistry(cl)
	if err != nil {
		return err
	}
	for i := 0; i < jobs; i++ {
		if err := p.poolOp(cl, sceneID, "service.Pool.op.cluster"); err != nil {
			return err
		}
	}
	after, err := scrapeRegistry(cl)
	if err != nil {
		return err
	}
	// A back-to-back job can fall back to the in-process pool (README,
	// "Known daemon fault"); the median of three shrugs one off, and the
	// frames are shared among the jobs that did cross the transport.
	onCluster := float64(cl.Stats().Cluster.Jobs)
	if onCluster == 0 {
		return fmt.Errorf("loopback cluster: all %d jobs fell back to the in-process pool", jobs)
	}
	p.v["scplib.loopback_r2_ms"] = median(p.rec.durations("service.Pool.op.cluster")) * 1000
	p.v["scplib.frames_per_job"] = (after.frames() - before.frames()) / onCluster
	p.v["scplib.spawn_rpc_ms"] = 0
	if n := after["fusion_cluster_spawn_duration_seconds_count"] - before["fusion_cluster_spawn_duration_seconds_count"]; n > 0 {
		p.v["scplib.spawn_rpc_ms"] = (after["fusion_cluster_spawn_duration_seconds_sum"] - before["fusion_cluster_spawn_duration_seconds_sum"]) / n * 1000
	}
	return nil
}

// exposition is a parsed Prometheus text scrape: sample name (with its
// label set) → value.
type exposition map[string]float64

func parseExposition(text string) exposition {
	out := exposition{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// frames sums the cluster transport's frames, sent and received, over
// every frame type.
func (e exposition) frames() float64 {
	var n float64
	for name, v := range e {
		if strings.HasPrefix(name, "fusion_cluster_frames_sent_total{") ||
			strings.HasPrefix(name, "fusion_cluster_frames_received_total{") {
			n += v
		}
	}
	return n
}

func scrapeRegistry(pool *service.Pool) (exposition, error) {
	var buf bytes.Buffer
	if err := pool.Metrics().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.String()), nil
}

// store times the durable control plane's primitives on the checkout's
// filesystem: every append below is one fsync.
func (p *replay) store() error {
	dir := filepath.Join(p.dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// numbered hands fn the 1-based count of its calls, for fresh keys.
	numbered := func(fn func(i int) error) func() error {
		i := 0
		return func() error { i++; return fn(i) }
	}
	us := func(metric, span string, n int, fn func(i int) error) error {
		s, _, err := p.timeN(span, n, numbered(fn))
		p.v[metric] = s * 1e6
		return err
	}

	log, _, err := store.OpenLog(filepath.Join(dir, "records.log"), func([]byte) error { return nil })
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0xA5}, 256)
	err = us("store.log_append_us", "store.Log.Append", 200, func(int) error { return log.Append(payload) })
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	submit := func(i int) store.JobRecord {
		return store.JobRecord{Op: store.JobSubmit, Num: uint64(i), ID: fmt.Sprintf("job-%d", i),
			Kind: store.JobKindCube, Digest: strings.Repeat("0", 64), CubeFile: fmt.Sprintf("job-%d.hsic", i),
			Options: json.RawMessage(`{"workers":2,"granularity":2,"prefetch":1,"threshold":0.1,"components":3,"parallelism":1,"algorithm":"pct"}`)}
	}
	journal, _, err := store.OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		return err
	}
	err = us("store.journal_append_us", "store.Journal.Append", 50, func(i int) error { return journal.Append(submit(i)) })
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	catalog, _, err := store.OpenCatalog(filepath.Join(dir, "catalog.log"))
	if err != nil {
		return err
	}
	err = us("store.catalog_add_us", "store.Catalog.Add", 20, func(i int) error {
		return catalog.Add(store.SceneRecord{Op: store.SceneAdd, ID: fmt.Sprintf("scene-%d", i), Seq: uint64(i),
			Header: "ENVI\nsamples = 320\nlines = 320\nbands = 105\n", File: fmt.Sprintf("scene-%d.raw", i)})
	})
	if cerr := catalog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// A spilled cache entry is about one RGBA composite of the sample.
	spill, _, err := store.OpenSpill(filepath.Join(dir, "spill"), 0)
	if err != nil {
		return err
	}
	composite := bytes.Repeat([]byte{0x5A}, p.sample.Width*p.sample.Height*4)
	if _, err := p.msOf("store.spill_put_ms", "store.Spill.Put", 10, numbered(func(i int) error {
		return spill.Put(fmt.Sprintf("key-%d", i), composite)
	})); err != nil {
		return err
	}
	if _, err := p.msOf("store.spill_get_ms", "store.Spill.Get", 10, numbered(func(i int) error {
		_, ok, err := spill.Get(fmt.Sprintf("key-%d", i))
		if err == nil && !ok {
			err = fmt.Errorf("spilled entry missing")
		}
		return err
	})); err != nil {
		return err
	}

	// Boot replay of a 1000-job journal, framed by hand so building it
	// costs one write instead of a thousand fsyncs.
	var framed []byte
	for i := 1; i <= 1000; i++ {
		rec, err := json.Marshal(submit(i))
		if err != nil {
			return err
		}
		framed = store.AppendRecord(framed, rec)
	}
	replayPath := filepath.Join(dir, "replay.log")
	if err := os.WriteFile(replayPath, framed, 0o644); err != nil {
		return err
	}
	_, err = p.msOf("store.replay_ms", "store.OpenJournal", 5, func() error {
		j, rep, err := store.OpenJournal(replayPath)
		if err != nil {
			return err
		}
		if rep.Records != 1000 {
			err = fmt.Errorf("replayed %d of 1000 records", rep.Records)
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return err
}

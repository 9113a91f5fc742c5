// Package service turns the one-shot fusion pipeline into a multi-job
// fusion service: one long-lived scplib.RealSystem hosts every job, and
// each job runs through core.StartJob — its own manager and workers, in
// a thread-ID range of its own, at replication 1 (the paper's "no
// resiliency" series). Cluster mode runs the same function over a
// fusionworkerd fleet with replication on, and re-runs a job in process
// when the fleet cannot serve it. Around that one execution path the
// pool admission-controls incoming jobs (bounded queue, bounded
// concurrency) and answers repeated scenes from a content-addressed
// result cache keyed by cube digest + canonicalized options.
//
// cmd/fusiond exposes the pool over HTTP (Pool.Handler, the /v2 API);
// examples/service drives it end to end.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image/png"
	"log/slog"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/store"
	"resilientfusion/internal/telemetry"
)

// maxSubCubes bounds a job's decomposition (Granularity × Workers); see
// the admission check in Submit.
const maxSubCubes = 1024

// Errors returned by Submit.
var (
	// ErrQueueFull reports admission-control rejection: the job queue is
	// at capacity. Clients should back off and resubmit.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed reports submission to a closed pool.
	ErrClosed = errors.New("service: pool closed")
	// ErrUnknownJob reports a status query for an unknown (or already
	// evicted) job ID.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrImageExpired reports an ImagePNG request for a job whose
	// composite aged out of the RetainResults window (scalar results
	// remain queryable).
	ErrImageExpired = errors.New("service: composite image no longer retained")
	// ErrJobNotCancelable reports a Cancel on a job that already left the
	// queue: running jobs hold worker state mid-protocol and finished jobs
	// are immutable, so only queued jobs can be withdrawn.
	ErrJobNotCancelable = errors.New("service: job not cancelable")
)

// Config tunes a Pool.
type Config struct {
	// Workers is the number of workers each job is decomposed over
	// (default 4).
	Workers int
	// MaxConcurrent is how many jobs run at once (default 2). Each
	// running job has its own manager and workers.
	MaxConcurrent int
	// QueueDepth bounds jobs waiting beyond the running ones (default
	// 64); submissions past it are rejected with ErrQueueFull.
	QueueDepth int
	// CacheEntries is the result-cache capacity (default 128; negative
	// disables caching).
	CacheEntries int
	// RetainJobs bounds how many finished jobs stay queryable (default
	// 4096); the oldest finished jobs are evicted first.
	RetainJobs int
	// RetainResults bounds how many of the most recent finished jobs
	// keep their composite image (default 64). Older retained jobs stay
	// queryable with scalar results only — without this window, RetainJobs
	// full RGBA composites would pin unbounded bytes in a long-lived
	// daemon. The result cache keeps its own (CacheEntries-bounded) full
	// copies.
	RetainResults int
	// SpoolDir is where uploaded scenes are spooled; empty selects a
	// fresh temporary directory that Close removes.
	SpoolDir string
	// MaxSceneBytes bounds a registered scene's raw payload (default
	// 512 MiB), checked against the header's claim before any byte is
	// spooled.
	MaxSceneBytes int64
	// MaxScenes bounds concurrently registered scenes (default 64);
	// registrations past it are rejected until scenes are removed.
	MaxScenes int
	// MaxLongPoll caps how long one GET /v2/jobs/{id}?wait=... request
	// may hold its connection (default 60s). Clients asking for more are
	// trimmed, not rejected: they re-issue the long-poll.
	MaxLongPoll time.Duration
	// JournalDir, when non-empty, enables the durable control plane: a
	// write-ahead job journal (plus spooled cube inputs and the cache
	// spill) lives under it, and a persistent scene catalog is kept next
	// to the spool. Queued and running jobs re-enter the pool after a
	// restart on the same directories, with IDs and result keys
	// unchanged. Pair it with a persistent SpoolDir — a pool-created
	// temporary spool is removed at Close, taking the catalog with it.
	JournalDir string
	// CacheSpillBytes > 0 lets the result cache spill evicted entries to
	// content-addressed files under JournalDir/spill, bounded by this
	// byte budget; spilled entries survive restarts. Requires JournalDir.
	CacheSpillBytes int64
	// Cluster, when non-nil, enables cluster mode: the pool listens for
	// fusionworkerd processes and runs jobs' worker replicas remotely,
	// re-running a job in process below quorum. It forces Workers to
	// Cluster.Workers so both runs decompose scenes identically.
	Cluster *ClusterConfig
	// Metrics is the telemetry registry the pool instruments (served at
	// GET /metrics). Nil selects a pool-private registry. Registries
	// panic on duplicate registration, so give each pool its own.
	Metrics *telemetry.Registry
	// Logger receives structured diagnostics. When LogTo is nil, a
	// non-nil Logger supplies it (debug-leveled) so existing LogTo
	// consumers keep working.
	Logger *slog.Logger
	// LogTo receives diagnostics (nil silences them).
	LogTo func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Cluster != nil {
		ccfg := c.Cluster.withDefaults()
		c.Cluster = &ccfg
		// Bit-identical mosaics and shared cache keys between cluster
		// and fallback runs require the same worker count on both paths.
		c.Workers = ccfg.Workers
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.RetainResults <= 0 {
		c.RetainResults = 64
	}
	if c.MaxSceneBytes <= 0 {
		c.MaxSceneBytes = 512 << 20
	}
	if c.MaxScenes <= 0 {
		c.MaxScenes = 64
	}
	if c.MaxLongPoll <= 0 {
		c.MaxLongPoll = 60 * time.Second
	}
	if c.LogTo == nil && c.Logger != nil {
		c.LogTo = telemetry.LogTo(c.Logger)
	}
	return c
}

// Pool is the multi-job fusion service.
type Pool struct {
	cfg     Config
	sys     *scplib.RealSystem // in-process jobs run here
	ids     *physIDs           // thread-ID ranges of the jobs on sys
	cluster *clusterState      // nil unless cluster mode is on
	cache   *resultCache
	metrics *poolMetrics
	queue   chan *Job
	wg      sync.WaitGroup // dispatcher goroutines
	t0      time.Time
	shut    chan struct{} // closed once Close has drained every job

	mu        sync.Mutex
	closed    bool
	jobs      map[string]*Job
	doneOrder []string // finished jobs, oldest first (eviction order)
	nextJob   uint64
	running   int

	// Scene registry (see scene.go). spoolDir is resolved at NewPool;
	// ownSpool marks a pool-created temporary directory removed by Close.
	scenes    map[string]*sceneEntry
	nextScene uint64
	spoolDir  string
	ownSpool  bool

	// Durable control plane (see durable.go); all nil unless
	// Config.JournalDir is set.
	catalog  *store.Catalog
	journal  *store.Journal
	spill    *store.Spill
	cubesDir string
	recovery *RecoveryReport
}

// NewPool builds and starts a pool: the system begins running, and
// MaxConcurrent dispatchers wait for jobs.
func NewPool(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	sys := scplib.NewRealSystem()
	sys.LogTo = cfg.LogTo
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Pool{
		cfg:      cfg,
		sys:      sys,
		ids:      newPhysIDs(sys),
		queue:    make(chan *Job, cfg.QueueDepth),
		shut:     make(chan struct{}),
		t0:       time.Now(),
		jobs:     make(map[string]*Job),
		scenes:   make(map[string]*sceneEntry),
		spoolDir: cfg.SpoolDir,
	}
	p.metrics = newPoolMetrics(reg, p)
	if p.spoolDir == "" {
		dir, err := os.MkdirTemp("", "fusiond-scenes-")
		if err != nil {
			return nil, err
		}
		p.spoolDir, p.ownSpool = dir, true
	} else if err := os.MkdirAll(p.spoolDir, 0o755); err != nil {
		return nil, err
	}
	// Durable control plane: replay the catalog and journal into the
	// scene registry and ID allocators before anything can race them
	// (jobs requeue at the end of NewPool, once dispatchers are live).
	if err := p.openDurable(); err != nil {
		if p.ownSpool {
			os.RemoveAll(p.spoolDir)
		}
		return nil, err
	}
	p.cache = newResultCache(cfg.CacheEntries, p.metrics)
	p.cache.attachSpill(p.spill, p.logf)
	if cfg.Cluster != nil {
		cl, err := newClusterState(*cfg.Cluster, cfg.LogTo, reg)
		if err != nil {
			p.closeStore()
			if p.ownSpool {
				os.RemoveAll(p.spoolDir)
			}
			return nil, err
		}
		p.cluster = cl
		p.logf("cluster: coordinator listening on %s for %d workers", cl.sys.Addr(), cl.cfg.Workers)
	}
	sys.Start()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		p.wg.Add(1)
		go p.dispatch()
	}
	// Re-admit journaled jobs now that dispatchers can drain the queue.
	p.recoverJobs()
	return p, nil
}

// logf forwards diagnostics to the configured sink.
func (p *Pool) logf(format string, args ...any) {
	if p.cfg.LogTo != nil {
		p.cfg.LogTo(format, args...)
	}
}

// Submit validates and enqueues a fusion job, returning its immediate
// status (already StateDone when served from the result cache). The
// submitted cube and options must not be mutated afterwards.
func (p *Pool) Submit(cube *hsi.Cube, opts core.Options) (JobStatus, error) {
	if err := cube.Validate(); err != nil {
		return JobStatus{}, err
	}
	opts, err := p.canonicalOptions(opts)
	if err != nil {
		return JobStatus{}, err
	}
	if err := checkBands(opts, cube.Bands); err != nil {
		return JobStatus{}, err
	}
	// The content-addressed key is only worth the full-cube hash when a
	// cache exists to serve it.
	var digest string
	if p.cfg.CacheEntries > 0 {
		if digest, err = cube.Digest(); err != nil {
			return JobStatus{}, err
		}
	}
	return p.enqueue(func(num uint64) *Job {
		return &Job{
			id:     fmt.Sprintf("job-%d", num),
			num:    num,
			cube:   cube,
			opts:   opts,
			digest: digest,
		}
	})
}

// canonicalOptions applies the pool's fixed policy to client options and
// rejects configurations the workers would refuse, so clients get a
// synchronous error instead of an asynchronous failed job that occupied
// a queue slot. Shared by the in-memory (Submit) and scene (FuseScene)
// submission paths.
func (p *Pool) canonicalOptions(opts core.Options) (core.Options, error) {
	// Jobs always run at the pool's worker count and, in process, without
	// replication: the paper's "no resiliency" series, whose workers are
	// goroutines in this one process. Cluster mode applies its own
	// replication per run (clusterOptions), outside the result key.
	opts.Workers = p.cfg.Workers
	opts.Replication = 1
	opts.Regenerate = false
	// A job's workers compute side by side: share the host's parallelism
	// among them by default instead of letting every worker's kernels fan
	// out to GOMAXPROCS. Explicit client settings win; results are
	// identical either way (fixed shard grids).
	if opts.Parallelism == 0 {
		opts.Parallelism = core.SharedKernelParallelism(p.cfg.Workers)
	}
	opts = opts.Canonical()
	if _, ok := fuse.Lookup(opts.Algorithm); !ok {
		return opts, fmt.Errorf("%w: unknown algorithm %q (have %v)",
			core.ErrBadOptions, opts.Algorithm, fuse.Names())
	}
	if opts.Components < 3 {
		return opts, fmt.Errorf("%w: need >=3 components for color mapping", core.ErrBadOptions)
	}
	if opts.Granularity < 1 {
		return opts, fmt.Errorf("%w: Granularity=%d", core.ErrBadOptions, opts.Granularity)
	}
	// Canonical options map 0 to the default threshold, so anything
	// non-positive (or NaN, which fails both comparisons' negations) is
	// out of range here.
	if !(opts.Threshold > 0) || opts.Threshold > math.Pi {
		return opts, fmt.Errorf("%w: Threshold=%g not in (0, π]", core.ErrBadOptions, opts.Threshold)
	}
	// Bound the decomposition: the manager's transform phase keeps all
	// sub-cube requests in flight at once, so an unbounded client-chosen
	// granularity could fill the fixed-depth thread mailboxes and wedge a
	// dispatcher. maxSubCubes stays far under the mailbox depth while
	// exceeding any useful granularity (the paper evaluates single
	// digits).
	// The Granularity pre-check keeps the product from overflowing.
	if opts.Granularity > maxSubCubes || opts.Granularity*opts.Workers > maxSubCubes {
		return opts, fmt.Errorf("%w: Granularity=%d yields over %d sub-cubes",
			core.ErrBadOptions, opts.Granularity, maxSubCubes)
	}
	return opts, nil
}

// checkBands rejects a pct job on a cube with fewer bands than the
// components it keeps: the transform matrix needs k ≤ n, and the run
// would otherwise fail only after it held a queue slot. The tile
// algorithms fuse any band count.
func checkBands(opts core.Options, bands int) error {
	if opts.Algorithm == "pct" && bands < opts.Components {
		return fmt.Errorf("%w: pct keeps %d components but the cube has %d bands",
			core.ErrBadOptions, opts.Components, bands)
	}
	return nil
}

// enqueue admits one job built by mk (called with the job's allocated
// sequence number; mk must fill everything but the lifecycle fields).
// It serves the content-addressed fast path and applies admission
// control, with the exact close/queue atomicity the dispatcher relies
// on.
func (p *Pool) enqueue(mk func(num uint64) *Job) (JobStatus, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	p.nextJob++
	job := mk(p.nextJob)
	job.done = make(chan struct{})
	job.state = StateQueued
	job.submitted = time.Now()
	job.trace = telemetry.NewTraceRecorder(0)
	if job.digest != "" {
		job.key = job.digest + "|" + job.opts.ResultKey()
	}
	p.jobs[job.id] = job
	p.mu.Unlock()

	// Durable pools persist the submission — cube input, then the
	// fsync'd submit record — before any acknowledging return below
	// (fsync-before-ack): once the client hears "accepted", a crash at
	// any instant replays the job.
	if err := p.journalSubmit(job); err != nil {
		p.mu.Lock()
		delete(p.jobs, job.id) // never admitted
		p.mu.Unlock()
		return JobStatus{}, err
	}

	// Content-addressed fast path: identical samples + options already
	// computed (scene jobs digest-match equivalent in-memory uploads, so
	// the two submission paths share entries).
	if job.key != "" {
		if res, ok := p.cache.get(job.key); ok {
			if job.sceneID != "" {
				job.markTilesComplete()
			}
			p.metrics.jobsSubmitted.Inc()
			p.metrics.jobsByAlgorithm.With(job.opts.Algorithm).Inc()
			p.finish(job, res, nil, true)
			return p.snapshot(job), nil
		}
	}

	// Enqueue under the lock: the closed re-check and the send must be
	// atomic with respect to Close, which closes the queue channel.
	p.mu.Lock()
	if p.closed {
		delete(p.jobs, job.id) // never admitted
		p.mu.Unlock()
		// Neutralize the submit record: replaying a rejected job would
		// grant it the admission it never got.
		p.journalTerminal(job, store.JobCancel, "pool closed before admission")
		return JobStatus{}, ErrClosed
	}
	select {
	case p.queue <- job:
		p.mu.Unlock()
		// Submitted counts admitted jobs only, incremented after the
		// send so a rejected submission never touches it.
		p.metrics.jobsSubmitted.Inc()
		p.metrics.jobsByAlgorithm.With(job.opts.Algorithm).Inc()
		return p.snapshot(job), nil
	default:
		delete(p.jobs, job.id)
		p.mu.Unlock()
		p.metrics.jobsRejected.Inc()
		p.journalTerminal(job, store.JobCancel, "rejected: queue full")
		return JobStatus{}, ErrQueueFull
	}
}

// Status returns a job's current snapshot.
func (p *Pool) Status(id string) (JobStatus, error) {
	p.mu.Lock()
	job := p.jobs[id]
	p.mu.Unlock()
	if job == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return p.snapshot(job), nil
}

// Cancel withdraws a queued job before a dispatcher picks it up: the job
// moves to StateCanceled (a terminal state — waiters are released, the
// input is dropped) and the dispatcher skips it on dequeue. Jobs that are
// already running or finished report ErrJobNotCancelable; unknown IDs
// report ErrUnknownJob.
func (p *Pool) Cancel(id string) (JobStatus, error) {
	p.mu.Lock()
	job := p.jobs[id]
	if job == nil {
		p.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	if job.state != StateQueued {
		p.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job %s is %s", ErrJobNotCancelable, id, job.state)
	}
	// The same terminal bookkeeping finish() performs, minus result and
	// metrics: release the inputs, join the eviction order, snapshot
	// before unlocking so the returned status is the transition itself.
	job.state = StateCanceled
	job.cube = nil
	if job.sceneFile != nil {
		job.sceneFile.Close()
		job.sceneFile = nil
	}
	job.finished = time.Now()
	p.metrics.jobsCanceled.Inc()
	p.doneOrder = append(p.doneOrder, job.id)
	for len(p.doneOrder) > p.cfg.RetainJobs {
		delete(p.jobs, p.doneOrder[0])
		p.doneOrder = p.doneOrder[1:]
	}
	st := p.snapshotLocked(job)
	p.mu.Unlock()
	// Journal before releasing waiters: the cancellation is durable by
	// the time anyone observes the terminal state.
	p.journalTerminal(job, store.JobCancel, "")
	close(job.done)
	return st, nil
}

// Wait blocks until the job finishes and returns its final snapshot.
func (p *Pool) Wait(id string) (JobStatus, error) {
	return p.WaitContext(context.Background(), id)
}

// WaitContext blocks until the job finishes, the context is done, or the
// pool has shut down — whichever comes first. On context expiry it
// returns the job's current (possibly non-terminal) snapshot alongside
// ctx.Err(), which is what the v2 long-poll serves; on pool shutdown a
// still-unfinished job reports ErrClosed (Close drains every admitted
// job, so this arises only for jobs that can no longer make progress —
// a waiter must not leak on them).
func (p *Pool) WaitContext(ctx context.Context, id string) (JobStatus, error) {
	p.mu.Lock()
	job := p.jobs[id]
	p.mu.Unlock()
	if job == nil {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-job.done:
		return p.snapshot(job), nil
	case <-ctx.Done():
		return p.snapshot(job), ctx.Err()
	case <-p.shut:
		// The drain may have finished this job in the same instant;
		// prefer the terminal snapshot when it did.
		select {
		case <-job.done:
			return p.snapshot(job), nil
		default:
			return p.snapshot(job), ErrClosed
		}
	}
}

// Jobs returns snapshots of the retained jobs, most recent submission
// first, optionally filtered to one state; limit > 0 bounds the count.
func (p *Pool) Jobs(state JobState, limit int) []JobStatus {
	// Collect under the lock, but sort outside it: with RetainJobs in
	// the thousands, an O(n log n) pass must not extend the critical
	// section every Submit and finish contends on. Job pointers stay
	// valid across the gap (eviction only unlinks them from the map);
	// state is re-read under the second hold, so the filter is exact.
	p.mu.Lock()
	all := make([]*Job, 0, len(p.jobs))
	for _, job := range p.jobs {
		all = append(all, job)
	}
	p.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].num > all[j].num })

	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobStatus, 0, len(all))
	for _, job := range all {
		if state != "" && job.state != state {
			continue
		}
		out = append(out, p.snapshotLocked(job))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// ImagePNG returns the job's composite image encoded as PNG, encoding at
// most once per job (results are immutable after completion; pollers
// share the memoized bytes). It errors for jobs that are not done or
// whose composite has aged out of the retention window.
func (p *Pool) ImagePNG(id string) ([]byte, error) {
	p.mu.Lock()
	job := p.jobs[id]
	p.mu.Unlock()
	if job == nil {
		return nil, ErrUnknownJob
	}
	select {
	case <-job.done:
	default:
		return nil, fmt.Errorf("service: job %s not finished", id)
	}
	job.pngMu.Lock()
	defer job.pngMu.Unlock()
	if job.png != nil {
		return job.png, nil
	}
	p.mu.Lock()
	res := job.result
	state := job.state
	jobErr := job.err
	p.mu.Unlock()
	if state == StateFailed {
		return nil, fmt.Errorf("service: job %s failed: %w", id, jobErr)
	}
	if res == nil || res.Image == nil {
		return nil, fmt.Errorf("%w: job %s", ErrImageExpired, id)
	}
	var buf bytes.Buffer
	if err := pngEncoder.Encode(&buf, res.Image); err != nil {
		return nil, err
	}
	job.png = buf.Bytes()
	return job.png, nil
}

// pngEncoder encodes every composite. BestSpeed is deterministic and
// lossless — the decoded pixels are identical at every level — and costs
// a fifth of the default level's time for ~16 % more bytes, the right
// trade for an image encoded once and fetched from the same host or LAN.
// The pool recycles the encoder's row and zlib buffers across jobs.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: new(pngBufferPool)}

// pngBufferPool adapts a sync.Pool to png.EncoderBufferPool.
type pngBufferPool struct{ p sync.Pool }

func (b *pngBufferPool) Get() *png.EncoderBuffer {
	eb, _ := b.p.Get().(*png.EncoderBuffer)
	return eb
}

func (b *pngBufferPool) Put(eb *png.EncoderBuffer) { b.p.Put(eb) }

// Stats reports the pool's counters for GET /v2/stats, read from the
// same telemetry registry the Prometheus exposition serves. Throughput
// is completed jobs per second since the pool started; the Cluster
// section is set in cluster mode and the Store section when JournalDir
// is set.
func (p *Pool) Stats() fusionclient.Stats {
	hits, misses, size := p.cache.counters()
	p.mu.Lock()
	defer p.mu.Unlock()
	up := time.Since(p.t0).Seconds()
	s := fusionclient.Stats{
		Workers:       p.cfg.Workers,
		QueueDepth:    len(p.queue),
		Running:       p.running,
		Submitted:     p.metrics.jobsSubmitted.Value(),
		Completed:     p.metrics.jobsCompleted.Value(),
		Failed:        p.metrics.jobsFailed.Value(),
		Rejected:      p.metrics.jobsRejected.Value(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheSize:     size,
		UptimeSeconds: up,
	}
	if up > 0 {
		s.Throughput = float64(s.Completed) / up
	}
	if p.cluster != nil {
		s.Cluster = p.cluster.snapshot()
	}
	if p.journal != nil {
		entries, bytes := p.cache.spillStats()
		s.Store = &fusionclient.StoreStats{
			JournalRecords: p.metrics.journalRecords.Value(),
			RecoveredJobs:  p.metrics.recoveredJobs.Value(),
			SpillHits:      p.metrics.cacheSpillHits.Value(),
			SpillMisses:    p.metrics.cacheSpillMisses.Value(),
			SpilledEntries: entries,
			SpilledBytes:   bytes,
		}
	}
	return s
}

// Close stops accepting jobs, drains queued and running ones, then tears
// the system down. It returns the system's combined thread errors (nil in
// normal operation).
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()   // dispatchers drain remaining queued jobs
	close(p.shut) // every admitted job is terminal now; release any waiters
	if p.cluster != nil {
		// After the drain: no cluster job is running, so this only
		// disconnects idle fusionworkerd processes (which exit cleanly).
		p.cluster.sys.Stop()
		p.cluster.sys.Close()
	}
	p.sys.Stop() // kill finished jobs' stragglers
	err := p.sys.Wait()
	// Release spooled scenes after the drain: queued scene jobs read
	// their files until the dispatchers finish. Durable pools keep the
	// files — the catalog still records them, and the next boot re-reads
	// both (removing them here would turn every clean restart into a
	// mass scene drop).
	p.mu.Lock()
	if p.catalog == nil {
		for _, ent := range p.scenes {
			ent.removeFiles()
		}
	}
	p.scenes = map[string]*sceneEntry{}
	p.mu.Unlock()
	p.closeStore()
	if p.ownSpool {
		os.RemoveAll(p.spoolDir)
	}
	return err
}

// dispatch is one unit of the concurrency budget: it runs queued jobs to
// completion, one at a time, until the queue closes.
func (p *Pool) dispatch() {
	defer p.wg.Done()
	for job := range p.queue {
		p.runJob(job)
	}
}

// runJob executes one job and moves it to its terminal state.
func (p *Pool) runJob(job *Job) {
	p.mu.Lock()
	// Canceled while queued: the terminal transition already happened
	// under the lock in Cancel, so this dequeue is a no-op.
	if job.state != StateQueued {
		p.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	p.running++
	p.mu.Unlock()
	p.journalStart(job)
	defer func() {
		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}()

	// An identical job may have completed while this one queued.
	if job.key != "" {
		if res, ok := p.cache.peek(job.key); ok {
			p.finish(job, res, nil, true)
			return
		}
	}

	res, err := p.execute(job)
	p.metrics.observeStages(job.trace)
	if err == nil && job.key != "" {
		p.cache.put(job.key, res)
	}
	p.finish(job, res, err, false)
}

// execute runs a job to its result: over the cluster when cluster mode
// is on and the fleet can serve it, else on the pool's own system. The
// source is built once and serves both attempts, and both run the same
// core.StartJob, so an in-process re-run is bit-identical to the cluster
// run it replaces.
func (p *Pool) execute(job *Job) (*core.Result, error) {
	// The recorder rides in a copy of the options: job.opts (and its
	// ResultKey, computed at enqueue) stays trace-free, so caching and
	// the canonical-options echo are untouched.
	opts := job.opts
	opts.Trace = job.trace
	var src core.CubeSource
	if job.sceneID == "" {
		src = core.MemSource(job.cube)
	} else {
		// Scene jobs stream row tiles straight off the spooled file,
		// through the handle the job has held since submit (finish()
		// closes it). The tiler reads one tile ahead over the
		// decomposition the manager will derive, so the next row-window
		// decodes off disk while the current tile is on the wire; the
		// drain runs before finish() can close the spool handle under a
		// prefetch.
		rdr, err := scene.NewReaderFrom(job.sceneHdr, job.sceneFile)
		if err != nil {
			return nil, fmt.Errorf("service: opening scene %s: %w", job.sceneID, err)
		}
		tiler := scene.NewPrefetchTiler(scene.NewTiler(rdr), opts.TileRanges(job.sceneHdr.Lines))
		tiler.OnRead = p.metrics.sceneTileRead
		defer tiler.Drain()
		src = &sceneSource{tiler: tiler, job: job}
	}
	if p.cluster != nil {
		if res, ok := p.runJobCluster(job, src, opts); ok {
			return res, nil
		}
	}
	return runOn(p.sys, p.ids, src, opts, nil)
}

// runOn runs one attempt of a job through core.StartJob on sys, in a
// thread-ID range drawn from ids — the service's only way to run a job.
// started, when set, sees the running job before it is awaited.
func runOn(sys scplib.System, ids *physIDs, src core.CubeSource, opts core.Options, started func(*core.RunningJob)) (*core.Result, error) {
	base := ids.alloc()
	defer ids.release(base)
	rj, err := core.StartJob(sys, src, opts, base)
	if err != nil {
		return nil, err
	}
	if started != nil {
		started(rj)
	}
	return rj.Wait()
}

// finish moves a job to its terminal state and evicts old finished jobs.
func (p *Pool) finish(job *Job, res *core.Result, err error, fromCache bool) {
	p.mu.Lock()
	// A Cancel that won the race already performed the terminal
	// transition (and closed job.done); finishing again would double-close.
	if job.state == StateCanceled {
		p.mu.Unlock()
		return
	}
	// Release the input cube: it is never read after the run, and
	// finished jobs stay queryable for up to RetainJobs — holding their
	// cubes would grow a long-lived daemon by the full upload size per
	// job. Scene jobs release their spool handle the same way (finish is
	// each job's single terminal transition, so the close is exactly
	// once; for removed scenes this drops the last reference to the
	// unlinked file).
	job.cube = nil
	if job.sceneFile != nil {
		job.sceneFile.Close()
		job.sceneFile = nil
	}
	job.finished = time.Now()
	job.cacheHit = fromCache
	if !fromCache {
		p.metrics.jobsDuration.Observe(job.finished.Sub(job.submitted).Seconds())
	}
	if err != nil {
		job.state = StateFailed
		job.err = err
		p.metrics.jobsFailed.Inc()
	} else {
		job.state = StateDone
		job.result = res
		p.metrics.jobsCompleted.Inc()
		// The scene's result endpoint serves its most recent success.
		if job.sceneID != "" {
			if ent := p.scenes[job.sceneID]; ent != nil {
				ent.lastDone = job.id
			}
		}
	}
	p.doneOrder = append(p.doneOrder, job.id)
	for len(p.doneOrder) > p.cfg.RetainJobs {
		delete(p.jobs, p.doneOrder[0])
		p.doneOrder = p.doneOrder[1:]
	}
	// Strip the composite from the job leaving the RetainResults window
	// (scalar results stay queryable). The stripped copy leaves any
	// shared cache entry untouched.
	var strip *Job
	if i := len(p.doneOrder) - p.cfg.RetainResults - 1; i >= 0 {
		if old := p.jobs[p.doneOrder[i]]; old != nil && old.result != nil && old.result.Image != nil {
			stripped := *old.result
			stripped.Image = nil
			old.result = &stripped
			strip = old
		}
	}
	p.mu.Unlock()
	// Journal the terminal transition (and release the spooled cube
	// input) before waiters observe it; the client never sees a terminal
	// state a restart would forget.
	if err != nil {
		p.journalTerminal(job, store.JobFail, err.Error())
	} else {
		p.journalTerminal(job, store.JobFinish, "")
	}
	close(job.done)
	if strip != nil {
		// Release the memoized PNG too. Taken outside the pool lock:
		// ImagePNG acquires pngMu before the pool mutex, so nesting here
		// would invert the lock order.
		strip.pngMu.Lock()
		strip.png = nil
		strip.pngMu.Unlock()
	}
}

// snapshot copies a job's current state under the pool lock.
func (p *Pool) snapshot(job *Job) JobStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(job)
}

func (p *Pool) snapshotLocked(job *Job) JobStatus {
	return JobStatus{
		ID:        job.id,
		State:     job.state,
		SceneID:   job.sceneID,
		CacheHit:  job.cacheHit,
		Err:       job.err,
		Result:    job.result,
		Options:   job.opts,
		Progress:  job.progress(),
		Trace:     job.trace.Summary(),
		Submitted: job.submitted,
		Started:   job.started,
		Finished:  job.finished,
	}
}

// Trace returns the job's recorded span timeline. A job that has not
// started (or ran entirely from cache) reports an empty span list.
func (p *Pool) Trace(id string) (fusionclient.JobTrace, error) {
	p.mu.Lock()
	job := p.jobs[id]
	var state JobState
	if job != nil {
		state = job.state
	}
	p.mu.Unlock()
	if job == nil {
		return fusionclient.JobTrace{}, ErrUnknownJob
	}
	spans, dropped := job.trace.Snapshot()
	out := fusionclient.JobTrace{JobID: id, State: state, Spans: make([]fusionclient.Span, len(spans)), Dropped: dropped}
	for i, s := range spans {
		out.Spans[i] = fusionclient.Span(s)
	}
	return out, nil
}

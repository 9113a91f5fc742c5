package service

import (
	"slices"
	"sync"

	"resilientfusion/internal/core"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// Cluster mode: instead of goroutine workers in the daemon's process,
// the pool listens for fusionworkerd processes and runs each job's
// worker replicas remotely over a scplib.ClusterSystem, with the
// resilient runtime's guardian regenerating replicas lost to killed
// workers. Jobs degrade gracefully: below quorum (fewer connected
// workers than configured) or on any cluster-side failure, the job
// falls back to the in-process pool, whose mosaic is bit-identical.

// ClusterConfig tunes cluster mode. The zero value (and a nil
// Config.Cluster) disables it.
type ClusterConfig struct {
	// Listen is the coordinator's TCP listen address for fusionworkerd
	// connections (default 127.0.0.1:0, an ephemeral localhost port —
	// production deployments set an explicit host:port).
	Listen string
	// Workers is the expected fusionworkerd count. It overrides
	// Config.Workers so cluster and fallback runs decompose scenes
	// identically (bit-identical mosaics, shared cache keys). Default 2.
	Workers int
	// Replication is the replica count per logical worker (default 2).
	Replication int
	// HeartbeatPeriod and FailTimeout tune the guardian's failure
	// detector, in seconds (defaults 0.25 and 1.0). Connection-level
	// liveness (worker pings, severed sockets) merges in on top, so
	// detection of a killed worker is usually much faster than
	// FailTimeout.
	HeartbeatPeriod float64
	FailTimeout     float64
	// ReissueTimeout is the manager's per-request timeout in seconds
	// (default 5): work lost with a killed replica is reissued to the
	// regenerated one after this long.
	ReissueTimeout float64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 0.25
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 1.0
	}
	if c.ReissueTimeout <= 0 {
		c.ReissueTimeout = 5.0
	}
	return c
}

// ClusterStats is the cluster section of Stats (null when cluster mode
// is off).
type ClusterStats struct {
	// Addr is the coordinator's resolved listen address.
	Addr string `json:"addr"`
	// Workers is the expected worker count; LiveWorkers is how many are
	// connected right now.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	Replication int `json:"replication"`
	// Jobs completed over the cluster; Fallbacks ran on the in-process
	// pool instead (below quorum or after a cluster-side failure).
	Jobs      int64 `json:"jobs"`
	Fallbacks int64 `json:"fallbacks"`
	// Aggregated resilient.Stats across all cluster jobs.
	Detections    int64 `json:"detections"`
	Regenerations int64 `json:"regenerations"`
	ViewChanges   int64 `json:"view_changes"`
}

// clusterState is the pool's cluster-mode machinery. The protocol
// counters live on the pool's telemetry registry — snapshot() reads the
// same atomics the Prometheus exposition renders, so /v2/stats and
// /metrics can never disagree.
type clusterState struct {
	cfg  ClusterConfig
	sys  *scplib.ClusterSystem
	addr string

	jobs          *telemetry.Counter
	fallbacks     *telemetry.Counter
	detections    *telemetry.Counter
	regenerations *telemetry.Counter
	viewChanges   *telemetry.Counter

	mu        sync.Mutex
	rts       []*resilient.Runtime // running cluster jobs' runtimes
	nextBase  scplib.ThreadID
	freeBases []scplib.ThreadID            // finished jobs' bases, reused FIFO
	inUse     map[scplib.ThreadID]struct{} // bases of running jobs
}

// clusterPhysBase0 starts job phys IDs far above any coordinator-local
// IDs; clusterPhysStride gives each job room for its guardian, replicas,
// regenerations, and couriers. Bases stay below clusterPhysMax: courier
// IDs mirror downward from 1<<30, so capping replica ranges at 1<<29
// keeps the two ID spaces disjoint no matter how many jobs have run, and
// the int32 ThreadID never overflows.
const (
	clusterPhysBase0  = scplib.ThreadID(1 << 20)
	clusterPhysStride = scplib.ThreadID(1 << 16)
	clusterPhysMax    = scplib.ThreadID(1 << 29)
)

// newClusterState opens the coordinator listener and wires its transport
// liveness hooks to fan out to every running cluster job. The system
// only starts accepting at Serve below, after every hook (and the
// transport metrics sink) is installed, so the assignments never race
// with peer goroutines reading them.
func newClusterState(cfg ClusterConfig, logf func(format string, args ...any), reg *telemetry.Registry) (*clusterState, error) {
	cfg = cfg.withDefaults()
	sys, err := scplib.NewClusterSystem(cfg.Listen, cfg.Workers)
	if err != nil {
		return nil, err
	}
	sys.LogTo = logf
	sys.Metrics = scplib.NewClusterMetrics(reg)
	cl := &clusterState{
		cfg: cfg, sys: sys,
		addr: sys.Addr(),
		jobs: reg.Counter("fusion_cluster_jobs_total",
			"Jobs completed over the fusionworkerd fleet."),
		fallbacks: reg.Counter("fusion_cluster_fallbacks_total",
			"Jobs degraded to the in-process pool (below quorum or cluster failure)."),
		detections: reg.Counter("fusion_cluster_detections_total",
			"Replica failures detected by cluster jobs' guardians."),
		regenerations: reg.Counter("fusion_cluster_regenerations_total",
			"Replacement replicas regenerated by cluster jobs' guardians."),
		viewChanges: reg.Counter("fusion_cluster_view_changes_total",
			"View reconfigurations broadcast by cluster jobs' guardians."),
		nextBase: clusterPhysBase0,
		inUse:    make(map[scplib.ThreadID]struct{}),
	}
	reg.GaugeFunc("fusion_cluster_live_workers",
		"fusionworkerd processes connected right now.", func() int64 {
			return int64(sys.LiveWorkers())
		})
	sys.OnNodeDown = func(n int) {
		for _, rt := range cl.runtimes() {
			rt.NodeDown(n)
		}
	}
	sys.OnNodeAlive = func(n int) {
		for _, rt := range cl.runtimes() {
			rt.NodeAlive(n)
		}
	}
	sys.OnThreadExit = func(id scplib.ThreadID) {
		for _, rt := range cl.runtimes() {
			rt.ThreadExited(id)
		}
	}
	sys.Serve()
	sys.Start()
	return cl, nil
}

func (cl *clusterState) runtimes() []*resilient.Runtime {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]*resilient.Runtime(nil), cl.rts...)
}

func (cl *clusterState) register(rt *resilient.Runtime) {
	cl.mu.Lock()
	cl.rts = append(cl.rts, rt)
	cl.mu.Unlock()
}

func (cl *clusterState) unregister(rt *resilient.Runtime) {
	cl.mu.Lock()
	for i, r := range cl.rts {
		if r == rt {
			cl.rts = append(cl.rts[:i], cl.rts[i+1:]...)
			break
		}
	}
	cl.mu.Unlock()
}

// allocBase hands each job a physical thread ID range disjoint from
// every other running job's on the shared cluster system. Finished
// jobs' bases are reused oldest-first, so a long-lived daemon's ID space
// stays bounded — but only once the finished job's threads are gone: the
// manager returns while its own thread, the guardian and the killed
// replicas are still being reaped (a slower replica may be mid-kernel),
// and spawning into their IDs fails with a duplicate thread id. A base
// whose range still has stragglers is passed over in favour of a fresh
// one; if fresh allocation ever reaches clusterPhysMax it wraps, skipping
// bases still in use or waiting on the free list.
func (cl *clusterState) allocBase() scplib.ThreadID {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for i, base := range cl.freeBases {
		if !cl.sys.HasThreadsIn(base, base+clusterPhysStride) {
			cl.freeBases = append(cl.freeBases[:i], cl.freeBases[i+1:]...)
			cl.inUse[base] = struct{}{}
			return base
		}
	}
	// The scan terminates unless every base in [base0, max) is held by a
	// running or still-draining job — ~8k of them, far beyond what the
	// pool admits.
	for {
		if cl.nextBase+clusterPhysStride > clusterPhysMax {
			cl.nextBase = clusterPhysBase0
		}
		base := cl.nextBase
		cl.nextBase += clusterPhysStride
		if _, busy := cl.inUse[base]; !busy && !slices.Contains(cl.freeBases, base) {
			cl.inUse[base] = struct{}{}
			return base
		}
	}
}

// releaseBase returns a finished job's base to the free list.
func (cl *clusterState) releaseBase(base scplib.ThreadID) {
	cl.mu.Lock()
	if _, busy := cl.inUse[base]; busy {
		delete(cl.inUse, base)
		cl.freeBases = append(cl.freeBases, base)
	}
	cl.mu.Unlock()
}

func (cl *clusterState) fallback() {
	cl.fallbacks.Inc()
}

// absorb folds one finished job's resilient stats into the registry
// counters.
func (cl *clusterState) absorb(st resilient.Stats, completed bool) {
	if completed {
		cl.jobs.Inc()
	}
	cl.detections.Add(int64(st.Detections))
	cl.regenerations.Add(int64(st.Regenerations))
	cl.viewChanges.Add(int64(st.ViewChanges))
}

// snapshot builds the /v2/stats cluster section from the registry
// counters (identical to what /metrics scrapes).
func (cl *clusterState) snapshot() *ClusterStats {
	return &ClusterStats{
		Addr:          cl.addr,
		Workers:       cl.cfg.Workers,
		LiveWorkers:   cl.sys.LiveWorkers(),
		Replication:   cl.cfg.Replication,
		Jobs:          cl.jobs.Value(),
		Fallbacks:     cl.fallbacks.Value(),
		Detections:    cl.detections.Value(),
		Regenerations: cl.regenerations.Value(),
		ViewChanges:   cl.viewChanges.Value(),
	}
}

// clusterOptions is the job's canonical options with the cluster's
// resilience knobs applied. None of these fields enter ResultKey, so
// cluster and fallback runs share cache entries — sound because the
// mosaic is bit-identical either way.
func (cl *clusterState) clusterOptions(opts core.Options) core.Options {
	opts.Replication = cl.cfg.Replication
	opts.Regenerate = true
	opts.HeartbeatPeriod = cl.cfg.HeartbeatPeriod
	opts.FailTimeout = cl.cfg.FailTimeout
	opts.RequestTimeout = cl.cfg.ReissueTimeout
	return opts
}

// runJobCluster tries to run one job over the connected fusionworkerd
// fleet. It reports whether the job reached a terminal state here; false
// means the caller should run it on the in-process pool instead (below
// quorum, spawn failure, or a mid-run cluster failure the guardian could
// not absorb).
func (p *Pool) runJobCluster(job *Job) bool {
	cl := p.cluster
	if live := cl.sys.LiveWorkers(); live < cl.cfg.Workers {
		p.logf("cluster: %d/%d workers live — job %s degrades to in-process pool",
			live, cl.cfg.Workers, job.id)
		cl.fallback()
		return false
	}
	opts := cl.clusterOptions(job.opts)
	// Trace rides in this copy only; job.opts and its ResultKey stay
	// trace-free (see runJob).
	opts.Trace = job.trace

	var src core.CubeSource
	if job.sceneID != "" {
		rdr, err := scene.NewReaderFrom(job.sceneHdr, job.sceneFile)
		if err != nil {
			// Not a cluster failure: the spool is unreadable, and the
			// fallback path would fail the same way.
			p.finish(job, nil, err, false)
			return true
		}
		tiler := scene.NewPrefetchTiler(scene.NewTiler(rdr), opts.TileRanges(job.sceneHdr.Lines))
		tiler.OnRead = p.metrics.sceneTileRead
		defer tiler.Drain()
		src = &sceneSource{tiler: tiler, job: job}
	} else {
		src = core.MemSource(job.cube)
	}

	base := cl.allocBase()
	defer cl.releaseBase(base)
	rj, err := core.StartJob(cl.sys, src, opts, base)
	if err != nil {
		p.logf("cluster: job %s failed to start (%v) — degrading to in-process pool", job.id, err)
		cl.fallback()
		return false
	}
	rt := rj.Runtime()
	cl.register(rt)
	// Close the registration gap: a worker that died while StartJob was
	// spawning fired OnNodeDown before this runtime existed. Seed the
	// runtime with the fleet's current liveness so such losses expire at
	// the guardian's next poll instead of waiting out FailTimeout.
	live := make(map[int]bool, cl.cfg.Workers)
	for _, n := range cl.sys.LiveNodes() {
		live[n] = true
	}
	for n := 1; n <= cl.cfg.Workers; n++ {
		if !live[n] {
			rt.NodeDown(n)
		}
	}
	res, err := rj.Wait()
	cl.unregister(rt)
	cl.absorb(rt.Stats(), err == nil)
	if err != nil {
		p.logf("cluster: job %s failed mid-run (%v) — degrading to in-process pool", job.id, err)
		cl.fallback()
		return false
	}
	if job.key != "" {
		p.cache.put(job.key, res)
	}
	p.finish(job, res, nil, false)
	return true
}

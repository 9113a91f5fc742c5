package service

import (
	"sync"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// Cluster mode: instead of goroutine workers in the daemon's process,
// the pool listens for fusionworkerd processes and runs each job's
// worker replicas remotely over a scplib.ClusterSystem, with the
// resilient runtime's guardian regenerating replicas lost to killed
// workers. Jobs degrade gracefully: below quorum (fewer connected
// workers than configured) or on any cluster-side failure, the job
// re-runs in process — the same core.StartJob at replication 1 on the
// pool's own system, so its mosaic is bit-identical.

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

// clusterState is the pool's cluster-mode machinery. The protocol
// counters live on the pool's telemetry registry — snapshot() reads the
// same atomics the Prometheus exposition renders, so /v2/stats and
// /metrics can never disagree.
type clusterState struct {
	cfg  ClusterConfig
	sys  *scplib.ClusterSystem
	ids  *physIDs
	addr string

	jobs          *telemetry.Counter
	fallbacks     *telemetry.Counter
	detections    *telemetry.Counter
	regenerations *telemetry.Counter
	viewChanges   *telemetry.Counter

	mu  sync.Mutex
	rts []*resilient.Runtime // running cluster jobs' runtimes
}

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
		ids:  newPhysIDs(sys),
		addr: sys.Addr(),
		jobs: reg.Counter("fusion_cluster_jobs_total",
			"Jobs completed over the fusionworkerd fleet."),
		fallbacks: reg.Counter("fusion_cluster_fallbacks_total",
			"Jobs re-run in process (below quorum or cluster failure)."),
		detections: reg.Counter("fusion_cluster_detections_total",
			"Replica failures detected by cluster jobs' guardians."),
		regenerations: reg.Counter("fusion_cluster_regenerations_total",
			"Replacement replicas regenerated by cluster jobs' guardians."),
		viewChanges: reg.Counter("fusion_cluster_view_changes_total",
			"View reconfigurations broadcast by cluster jobs' guardians."),
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
// counters (identical to what /metrics scrapes): fleet size, jobs run
// over the fleet and those that fell back in process, and the
// aggregated resilient.Stats of every cluster job.
func (cl *clusterState) snapshot() *fusionclient.ClusterStats {
	return &fusionclient.ClusterStats{
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
// fleet. ok false means the caller should re-run it in process instead:
// below quorum, spawn failure, or a mid-run cluster failure the guardian
// could not absorb. Every such degradation is counted.
func (p *Pool) runJobCluster(job *Job, src core.CubeSource, opts core.Options) (*core.Result, bool) {
	cl := p.cluster
	if live := cl.sys.LiveWorkers(); live < cl.cfg.Workers {
		p.logf("cluster: %d/%d workers live — job %s degrades to an in-process run",
			live, cl.cfg.Workers, job.id)
		cl.fallback()
		return nil, false
	}
	var rt *resilient.Runtime
	res, err := runOn(cl.sys, cl.ids, src, cl.clusterOptions(opts), func(rj *core.RunningJob) {
		rt = rj.Runtime()
		cl.register(rt)
		// Close the registration gap: a worker that died while StartJob
		// was spawning fired OnNodeDown before this runtime existed. Seed
		// the runtime with the fleet's current liveness so such losses
		// expire at the guardian's next poll instead of waiting out
		// FailTimeout.
		live := make(map[int]bool, cl.cfg.Workers)
		for _, n := range cl.sys.LiveNodes() {
			live[n] = true
		}
		for n := 1; n <= cl.cfg.Workers; n++ {
			if !live[n] {
				rt.NodeDown(n)
			}
		}
	})
	if rt != nil {
		cl.unregister(rt)
		cl.absorb(rt.Stats(), err == nil)
	}
	if err != nil {
		p.logf("cluster: job %s failed (%v) — degrading to an in-process run", job.id, err)
		cl.fallback()
		return nil, false
	}
	return res, true
}

package core

import (
	"errors"
	"fmt"
	"math"

	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/spectral"
	"resilientfusion/internal/telemetry"
)

// Options configures a distributed fusion run.
type Options struct {
	// Workers is P, the number of worker threads (one per cluster node;
	// the manager occupies node 0).
	Workers int
	// Granularity sets the sub-cube count to Granularity×Workers — the
	// knob of the paper's Figure 5 (default 2).
	Granularity int
	// Prefetch is how many extra sub-problems each worker holds queued
	// (0 selects the default of 1: the paper's communication/computation
	// overlap; -1 disables overlap for ablation A2, matching
	// experiments.RunConfig). The canonical form keeps -1 for "disabled"
	// so canonicalization is idempotent.
	Prefetch int
	// Threshold is the spectral-angle screening threshold (0 → default).
	Threshold float64
	// Parallelism is the per-worker kernel parallelism for the statistics
	// and transform steps. 0 is automatic: distributed runs divide
	// GOMAXPROCS across the concurrently computing workers
	// (max(1, GOMAXPROCS/Workers) each) so kernels never oversubscribe
	// the host, while the single-threaded Sequential oracle uses full
	// GOMAXPROCS. Negative forces serial. It is a throughput knob only —
	// the pct kernels reduce over a fixed shard grid in a fixed order,
	// so every setting yields bit-identical results (and it is therefore
	// excluded from ResultKey).
	Parallelism int
	// Components retained by the PCT (default 3).
	Components int
	// Algorithm selects the fusion algorithm by registry name
	// ("pct", "pyramid", "dwt"; empty selects "pct", the paper's
	// pipeline). Canonicalized by withDefaults and folded into ResultKey,
	// so distinct algorithms can never share a cache entry. Unknown names
	// are rejected with ErrBadOptions at job construction.
	Algorithm string
	// Replication is the resiliency level: 1 runs bare workers (the
	// paper's "no resiliency" series), 2 replicates every worker.
	Replication int
	// Regenerate enables dynamic replica regeneration.
	Regenerate bool
	// HeartbeatPeriod and FailTimeout tune the failure detector
	// (seconds; virtual on the simulated cluster).
	HeartbeatPeriod float64
	FailTimeout     float64
	// RequestTimeout is the manager's reissue timeout per wait (seconds).
	RequestTimeout float64
	// MaxReissues bounds timeout-driven retransmissions per phase.
	MaxReissues int
	// Cost is the performance model charged to the cluster.
	Cost perfmodel.Model
	// Trace, when non-nil, receives per-stage spans (ingest, mean,
	// covariance, eigen, transform, screen, merge) and resiliency events
	// (detections, regenerations with epochs) as the run progresses. It
	// is observability only: spans are recorded outside the kernel inner
	// loops, the field is excluded from ResultKey, and the fused output
	// is bit-identical with or without it.
	Trace *telemetry.TraceRecorder
}

// ErrBadOptions reports invalid fusion options.
var ErrBadOptions = errors.New("core: bad options")

func (o Options) withDefaults() Options {
	if o.Granularity == 0 {
		o.Granularity = 2
	}
	if o.Prefetch == 0 {
		o.Prefetch = 1
	} else if o.Prefetch < 0 {
		o.Prefetch = -1
	}
	if o.Threshold == 0 {
		o.Threshold = spectral.DefaultThreshold
	}
	if o.Parallelism < 0 {
		o.Parallelism = 1
	}
	if o.Components == 0 {
		o.Components = 3
	}
	o.Algorithm = fuse.Canonical(o.Algorithm)
	if o.Replication == 0 {
		o.Replication = 1
	}
	if o.HeartbeatPeriod == 0 {
		o.HeartbeatPeriod = 2
	}
	if o.FailTimeout == 0 {
		o.FailTimeout = 4 * o.HeartbeatPeriod
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 300
	}
	if o.MaxReissues == 0 {
		o.MaxReissues = 8
	}
	if o.Cost == (perfmodel.Model{}) {
		o.Cost = perfmodel.Default()
	}
	return o
}

// Canonical returns the options with all defaults applied — the normal
// form under which two Options values describe the same computation.
func (o Options) Canonical() Options { return o.withDefaults() }

// SharedKernelParallelism divides the host's parallelism among workers
// that compute concurrently: each gets max(1, GOMAXPROCS/workers). It is
// the default Options.Parallelism policy of every path that runs worker
// kernels side by side (StartJob here, the service pool's Submit).
func SharedKernelParallelism(workers int) int {
	p := linalg.MaxWorkers() / workers
	if p < 1 {
		p = 1
	}
	return p
}

// SubCubes returns the number of row-tile sub-problems the manager
// derives for a scene of the given height: Granularity × Workers, the
// knob of the paper's Figure 5, clamped to one row per tile. This is
// THE decomposition formula — the service's tile-progress totals and
// the prefetching tilers' prediction grids all call it so they can
// never drift from what the manager actually does.
func (o Options) SubCubes(height int) int {
	o = o.withDefaults()
	n := o.Granularity * o.Workers
	if n > height {
		n = height
	}
	return n
}

// TileRanges returns the exact row decomposition the manager will
// request from its CubeSource for a scene of the given height.
func (o Options) TileRanges(height int) []hsi.RowRange {
	return hsi.Partition(height, o.SubCubes(height))
}

// ResultKey returns a deterministic string over exactly the fields that
// influence the fusion output: Workers, Granularity, Threshold,
// Components and Algorithm (see Sequential's contract).
// Scheduling and resiliency knobs (Prefetch, Replication, timeouts,
// Cost) do not change the result and are excluded. The service layer
// combines this key with the cube digest to content-address its result
// cache.
//
// The pct key keeps its pre-registry byte layout (no algorithm
// component), so every cache entry written before algorithms existed
// remains addressable; other algorithms append a ".a<name>" suffix,
// which can never collide with a pct key. The literal ".s0" stays for
// the same reason: it named the eigensolver when one could be chosen,
// and keeping it keeps every stored cache and spill key addressable.
func (o Options) ResultKey() string {
	c := o.withDefaults()
	key := fmt.Sprintf("w%d.g%d.t%016x.c%d.s0",
		c.Workers, c.Granularity, math.Float64bits(c.Threshold), c.Components)
	if c.Algorithm != "pct" {
		key += ".a" + c.Algorithm
	}
	return key
}

// Fuse fuses an in-memory cube on a dedicated system: a fresh
// RealSystem, or simnet's SimSystem, that hosts only this job.
func Fuse(sys scplib.System, cube *hsi.Cube, opts Options) (*Result, error) {
	if err := cube.Validate(); err != nil {
		return nil, err
	}
	return FuseSource(sys, MemSource(cube), opts)
}

// FuseSource is Fuse over a streaming tile source: StartJob, then Run.
func FuseSource(sys scplib.System, src CubeSource, opts Options) (*Result, error) {
	job, err := StartJob(sys, src, opts, 0)
	if err != nil {
		return nil, err
	}
	return job.Run()
}

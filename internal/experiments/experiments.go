// Package experiments reproduces the paper's evaluation: each function
// regenerates one figure (or quantitative claim) from §4 on the simulated
// cluster, returning both raw series and formatted tables. The same
// harness backs cmd/perfchart, the repository benchmarks, and
// EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"resilientfusion/internal/core"
	"resilientfusion/internal/failure"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/metrics"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/simnet"
	"resilientfusion/internal/spectral"
)

// Scale selects the experiment size. PaperScale reproduces §4's
// configuration; SmallScale keeps unit tests and benchmarks quick while
// preserving every shape.
type Scale struct {
	Name  string
	Scene hsi.SceneSpec
	// Procs are the worker counts of Figure 4's x-axis.
	Procs []int
	// Fig5Procs are Figure 5's x-axis (the paper starts at 2).
	Fig5Procs []int
	// NodeRate is the per-node flop rate.
	NodeRate float64
	// MsgCost is the per-message protocol CPU cost.
	MsgCost scplib.MsgCost
	// HeartbeatPeriod tunes the resiliency control plane.
	HeartbeatPeriod float64
	// Threshold is the spectral-angle screening threshold (0 → default).
	Threshold float64
	// Interference is the per-extra-job throughput loss of co-resident
	// computations (see simnet.Node.Interference).
	Interference float64
	// Parallelism is the host-side kernel parallelism of every simulated
	// worker (core.Options.Parallelism). The simulator executes exactly
	// one process at a time, so worker kernels never compete with each
	// other: 0 selects full GOMAXPROCS per kernel, which cuts the wall
	// clock of paper-scale sweeps on multicore hosts without changing a
	// bit of any result or any virtual-time measurement (the pct kernels
	// reduce over fixed shard grids; virtual time comes from the cost
	// model). Negative forces serial kernels.
	Parallelism int
}

// PaperScale is the configuration of §4: a 320×320×105 cube on
// 300 MHz-class workstations with shared 100BaseT.
func PaperScale() Scale {
	spec := hsi.DefaultSceneSpec()
	spec.Bands = 105 // §4: "the initial cube size was 320x320x105"
	return Scale{
		Name:            "paper",
		Scene:           spec,
		Procs:           []int{1, 2, 4, 8, 16},
		Fig5Procs:       []int{2, 4, 8, 16},
		NodeRate:        perfmodel.EffectiveWorkstationRate,
		MsgCost:         scplib.DefaultMsgCost(),
		HeartbeatPeriod: 2,
		// 0.03 rad (≈1.7°) yields a unique set of ~100 pixel vectors on
		// the synthetic scene, keeping the manager's sequential merge a
		// small fraction of the distributed screening work — the regime
		// the paper's evaluation operates in.
		Threshold: 0.03,
		// Co-resident replicas interfere (cache/context-switch churn on
		// period workstations): the source of the paper's ~10% overhead
		// beyond the replication factor.
		Interference: 0.1,
	}
}

// SmallScale shrinks the cube and cluster so the full suite runs in
// seconds; the performance model scales with it.
func SmallScale() Scale {
	spec := hsi.SceneSpec{
		Width: 64, Height: 64, Bands: 24, Seed: 1,
		NoiseSigma: 6, Illumination: 0.12,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	}
	rate := perfmodel.EffectiveWorkstationRate / 16
	cost := scplib.DefaultMsgCost()
	cost.FixedFlops /= 16
	cost.FlopsPerByte /= 16
	return Scale{
		Name:            "small",
		Scene:           spec,
		Procs:           []int{1, 2, 4, 8},
		Fig5Procs:       []int{2, 4, 8},
		NodeRate:        rate,
		MsgCost:         cost,
		HeartbeatPeriod: 2,
	}
}

// Network selects the cluster interconnect model.
type Network int

const (
	// NetBus is the paper's shared 100BaseT segment.
	NetBus Network = iota
	// NetSwitched is a full-duplex switched fabric (ablation A3).
	NetSwitched
	// NetShared models a shared-memory multiprocessor: communication is
	// free (the §4 closing claim, experiment E6).
	NetShared
)

// RunConfig describes one fusion execution on the simulated cluster.
type RunConfig struct {
	Scale       Scale
	Workers     int
	Granularity int
	Prefetch    int // -1 disables overlap
	Replication int
	Regenerate  bool
	Network     Network
	Plan        *failure.Plan
	// RequestTimeout overrides the manager reissue timeout (seconds).
	RequestTimeout float64
	// Parallelism overrides Scale.Parallelism for this run (same
	// semantics; 0 defers to the scale, then to full GOMAXPROCS).
	Parallelism int
}

// RunOutcome bundles the fusion result with runtime telemetry.
type RunOutcome struct {
	Result    *core.Result
	BytesSent int64
	// Resilient protocol statistics (zero-valued for bare runs).
	Detections    int
	Regenerations int
	DetectLatency []float64
	RegenLatency  []float64
}

// RunOnCube is Run with a pre-generated cube (so sweeps share one scene).
func RunOnCube(cfg RunConfig, cube *hsi.Cube) (*RunOutcome, error) {
	x, nodes := scplib.NewCluster(cfg.Workers+1, cfg.Scale.NodeRate)
	x.Horizon = 1e7
	for _, n := range nodes {
		n.Interference = cfg.Scale.Interference
	}
	var network simnet.Network
	msgCost := cfg.Scale.MsgCost
	switch cfg.Network {
	case NetSwitched:
		network = x.NewSwitched(0, 0)
	case NetShared:
		network = x.NewZeroNet()
		msgCost = scplib.MsgCost{} // shared memory: no protocol stack
	default:
		network = x.NewBus(0, 0)
	}
	sys := scplib.NewSimSystem(x, network, nodes, msgCost)

	timeout := cfg.RequestTimeout
	if timeout == 0 {
		// Performance sweeps run failure-free: a generous reissue
		// timeout avoids spurious retransmission of long sub-problems.
		timeout = 1e5
	}
	// Kernel parallelism on the host running the simulation. Explicit
	// run/scale settings win; the default is full GOMAXPROCS per kernel
	// (not core.SharedKernelParallelism: simulated workers execute one at
	// a time, so there is nothing to share the host with). Results and
	// virtual times are identical for every setting.
	par := cfg.Parallelism
	if par == 0 {
		par = cfg.Scale.Parallelism
	}
	if par == 0 {
		par = linalg.MaxWorkers()
	}
	opts := core.Options{
		Workers:         cfg.Workers,
		Granularity:     cfg.Granularity,
		Prefetch:        cfg.Prefetch,
		Threshold:       cfg.Scale.Threshold,
		Parallelism:     par,
		Replication:     cfg.Replication,
		Regenerate:      cfg.Regenerate,
		HeartbeatPeriod: cfg.Scale.HeartbeatPeriod,
		RequestTimeout:  timeout,
	}
	if err := cube.Validate(); err != nil {
		return nil, err
	}
	job, err := core.StartJob(sys, core.MemSource(cube), opts, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Plan != nil {
		if err := cfg.Plan.Arm(x, job.Runtime(), nodes); err != nil {
			return nil, err
		}
	}
	res, err := job.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s P=%d: %w", cfg.Scale.Name, cfg.Workers, err)
	}
	st := job.Runtime().Stats()
	return &RunOutcome{
		Result:        res,
		BytesSent:     sys.BytesSent(),
		Detections:    st.Detections,
		Regenerations: st.Regenerations,
		DetectLatency: st.DetectionLatency,
		RegenLatency:  st.RegenerationLatency,
	}, nil
}

// Fig4 reproduces Figure 4: execution time against processor count for
// the bare algorithm and for resiliency level 2.
type Fig4 struct {
	Procs       []int
	Base        []float64 // seconds, no resiliency
	Resilient   []float64 // seconds, replication level 2
	SpeedupBase []float64
	SpeedupRes  []float64
	// OverheadBeyondReplication is T_res/(R·T_base) − 1 per point: the
	// protocol overhead the paper reports as ≈10%.
	OverheadBeyondReplication []float64
	// ScreenStats is the aggregate screening workload of each base run:
	// both the comparisons the engine performed and the
	// sequential-equivalent count the cost model charged. Figure 4 holds
	// the decomposition fixed across P, so every entry is identical —
	// the virtual times scale with P while the screening work (and
	// therefore the modeled cost) does not, which is exactly the
	// paper-faithfulness invariant the split counters exist to witness.
	ScreenStats []spectral.Stats
}

// RunFig4 executes the Figure 4 sweep. The problem decomposition is held
// fixed across processor counts (S = 2×Pmax sub-cubes, i.e. granularity
// 2 at the largest machine) so the series measures scaling of the same
// computation; granularity's own effect is Figure 5's subject.
func RunFig4(scale Scale) (*Fig4, error) {
	scene, err := hsi.GenerateScene(scale.Scene)
	if err != nil {
		return nil, err
	}
	out := &Fig4{Procs: scale.Procs}
	fixedS := 2 * scale.Procs[len(scale.Procs)-1]
	for _, p := range scale.Procs {
		g := fixedS / p
		base, err := RunOnCube(RunConfig{Scale: scale, Workers: p, Granularity: g, Replication: 1}, scene.Cube)
		if err != nil {
			return nil, err
		}
		res, err := RunOnCube(RunConfig{Scale: scale, Workers: p, Granularity: g, Replication: 2, Regenerate: true}, scene.Cube)
		if err != nil {
			return nil, err
		}
		out.Base = append(out.Base, base.Result.Times.Total)
		out.Resilient = append(out.Resilient, res.Result.Times.Total)
		out.ScreenStats = append(out.ScreenStats, base.Result.ScreenStats)
		out.OverheadBeyondReplication = append(out.OverheadBeyondReplication,
			res.Result.Times.Total/(2*base.Result.Times.Total)-1)
	}
	out.SpeedupBase = metrics.Speedup(out.Base[0], out.Base)
	out.SpeedupRes = metrics.Speedup(out.Resilient[0], out.Resilient)
	return out, nil
}

// Table renders the Figure 4 series.
func (f *Fig4) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  "Figure 4: execution time vs processors (log2 axes in the paper)",
		XLabel: "processors",
		YUnit:  "s",
	}
	for _, p := range f.Procs {
		t.X = append(t.X, float64(p))
	}
	t.Add("no resiliency", f.Base)
	t.Add("resiliency level 2", f.Resilient)
	return t
}

// ScreenTable renders the screening workload of the base runs: engine
// comparisons, the sequential-equivalent count charged by the cost
// model, and candidates scanned, per processor count.
func (f *Fig4) ScreenTable() *metrics.Table {
	t := &metrics.Table{
		Title:  "Figure 4 (derived): screening workload per run (fixed decomposition)",
		XLabel: "processors",
	}
	var engine, seq, scanned []float64
	for _, st := range f.ScreenStats {
		engine = append(engine, float64(st.Comparisons))
		seq = append(seq, float64(st.SeqComparisons))
		scanned = append(scanned, float64(st.Scanned))
	}
	for _, p := range f.Procs {
		t.X = append(t.X, float64(p))
	}
	t.Add("comparisons (engine)", engine)
	t.Add("comparisons (sequential-equivalent, charged)", seq)
	t.Add("vectors scanned", scanned)
	return t
}

// SpeedupTable renders the derived speedups (claims E4/E5).
func (f *Fig4) SpeedupTable() *metrics.Table {
	t := &metrics.Table{
		Title:  "Figure 4 (derived): speedup vs processors",
		XLabel: "processors",
	}
	for _, p := range f.Procs {
		t.X = append(t.X, float64(p))
	}
	t.Add("speedup (no resiliency)", f.SpeedupBase)
	t.Add("speedup (resiliency 2)", f.SpeedupRes)
	t.Add("overhead beyond 2x", f.OverheadBeyondReplication)
	return t
}

// Fig5 reproduces Figure 5: execution time against processors for
// sub-cube counts of 1×, 2× and 3× the processor count.
type Fig5 struct {
	Procs []int
	Times map[int][]float64 // granularity multiplier -> times
}

// RunFig5 executes the Figure 5 sweep.
func RunFig5(scale Scale) (*Fig5, error) {
	scene, err := hsi.GenerateScene(scale.Scene)
	if err != nil {
		return nil, err
	}
	out := &Fig5{Procs: scale.Fig5Procs, Times: make(map[int][]float64)}
	for _, g := range []int{1, 2, 3} {
		for _, p := range scale.Fig5Procs {
			r, err := RunOnCube(RunConfig{Scale: scale, Workers: p, Granularity: g, Replication: 1}, scene.Cube)
			if err != nil {
				return nil, err
			}
			out.Times[g] = append(out.Times[g], r.Result.Times.Total)
		}
	}
	return out, nil
}

// Table renders the Figure 5 series.
func (f *Fig5) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  "Figure 5: granularity control (time vs processors)",
		XLabel: "processors",
		YUnit:  "s",
	}
	for _, p := range f.Procs {
		t.X = append(t.X, float64(p))
	}
	for _, g := range []int{1, 2, 3} {
		t.Add(fmt.Sprintf("#sub-cube = #proc x %d", g), f.Times[g])
	}
	return t
}

// SubCubeSweep reproduces §4's claim E2b: performance tails off when the
// problem is split into more than ~32 sub-cubes (at the largest P).
type SubCubeSweep struct {
	Workers  int
	SubCubes []int
	Times    []float64
}

// RunSubCubeSweep sweeps granularity multipliers at the largest P.
func RunSubCubeSweep(scale Scale, multipliers []int) (*SubCubeSweep, error) {
	scene, err := hsi.GenerateScene(scale.Scene)
	if err != nil {
		return nil, err
	}
	p := scale.Procs[len(scale.Procs)-1]
	out := &SubCubeSweep{Workers: p}
	for _, g := range multipliers {
		r, err := RunOnCube(RunConfig{Scale: scale, Workers: p, Granularity: g, Replication: 1}, scene.Cube)
		if err != nil {
			return nil, err
		}
		out.SubCubes = append(out.SubCubes, r.Result.SubCubes)
		out.Times = append(out.Times, r.Result.Times.Total)
	}
	return out, nil
}

// Table renders the sweep.
func (s *SubCubeSweep) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  fmt.Sprintf("Sub-cube sweep at P=%d (claim: tail-off past ~32 sub-cubes)", s.Workers),
		XLabel: "sub-cubes",
		YUnit:  "s",
	}
	for _, sc := range s.SubCubes {
		t.X = append(t.X, float64(sc))
	}
	t.Add("time", s.Times)
	return t
}

// SharedMemory reproduces §4's closing claim (E6): on a shared-memory
// system the algorithm is within 5% of linear speedup.
type SharedMemory struct {
	Procs    []int
	Times    []float64
	Speedups []float64
	// WorstShortfall is the worst fractional distance from linear.
	WorstShortfall float64
}

// RunSharedMemory executes the zero-communication sweep with the same
// fixed decomposition as Figure 4, so the network model is the only
// variable between the two speedup series.
func RunSharedMemory(scale Scale) (*SharedMemory, error) {
	scene, err := hsi.GenerateScene(scale.Scene)
	if err != nil {
		return nil, err
	}
	out := &SharedMemory{Procs: scale.Procs}
	fixedS := 2 * scale.Procs[len(scale.Procs)-1]
	for _, p := range scale.Procs {
		r, err := RunOnCube(RunConfig{Scale: scale, Workers: p, Granularity: fixedS / p, Replication: 1, Network: NetShared}, scene.Cube)
		if err != nil {
			return nil, err
		}
		out.Times = append(out.Times, r.Result.Times.Total)
	}
	out.Speedups = metrics.Speedup(out.Times[0], out.Times)
	out.WorstShortfall = sharedWorst(out)
	return out, nil
}

func sharedWorst(s *SharedMemory) float64 {
	// The paper's 5% claim concerns parallelizable work; the sequential
	// eigen/merge fraction is excluded by measuring against P=1 like the
	// paper does (T1/TP vs P).
	return metrics.WithinOfLinear(s.Speedups, s.Procs)
}

// Table renders the shared-memory sweep.
func (s *SharedMemory) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  "Shared-memory model (zero communication cost): speedup vs processors",
		XLabel: "processors",
	}
	for _, p := range s.Procs {
		t.X = append(t.X, float64(p))
	}
	t.Add("time (s)", s.Times)
	t.Add("speedup", s.Speedups)
	return t
}

// Regeneration reproduces behaviour E7: an attack mid-run, detection,
// regeneration, and completion, compared against the failure-free run.
type Regeneration struct {
	BaselineTime      float64
	AttackedTime      float64
	Detections        int
	Regenerations     int
	MeanDetectLatency float64
	MeanRegenLatency  float64
	SlowdownPct       float64
}

// RunRegeneration kills one replica of each of the first two worker
// groups early in the run.
func RunRegeneration(scale Scale, workers int) (*Regeneration, error) {
	scene, err := hsi.GenerateScene(scale.Scene)
	if err != nil {
		return nil, err
	}
	base, err := RunOnCube(RunConfig{
		Scale: scale, Workers: workers, Granularity: 2, Replication: 2, Regenerate: true,
	}, scene.Cube)
	if err != nil {
		return nil, err
	}
	killAt := base.Result.Times.Total * 0.25
	plan := &failure.Plan{Events: []failure.Event{
		failure.KillReplica(killAt, 1, 0),
		failure.KillReplica(killAt*1.2, 2, 1),
	}}
	attacked, err := RunOnCube(RunConfig{
		Scale: scale, Workers: workers, Granularity: 2, Replication: 2, Regenerate: true,
		Plan: plan, RequestTimeout: base.Result.Times.Total,
	}, scene.Cube)
	if err != nil {
		return nil, err
	}
	out := &Regeneration{
		BaselineTime:      base.Result.Times.Total,
		AttackedTime:      attacked.Result.Times.Total,
		Detections:        attacked.Detections,
		Regenerations:     attacked.Regenerations,
		MeanDetectLatency: metrics.Mean(attacked.DetectLatency),
		MeanRegenLatency:  metrics.Mean(attacked.RegenLatency),
		SlowdownPct:       100 * (attacked.Result.Times.Total/base.Result.Times.Total - 1),
	}
	return out, nil
}

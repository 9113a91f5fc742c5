package core

import (
	"bytes"
	"errors"
	"image"
	"math"
	"testing"

	"resilientfusion/internal/failure"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/simnet"
)

// testScene builds a small but non-trivial synthetic scene.
func testScene(t *testing.T) *hsi.Cube {
	t.Helper()
	s, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 32, Height: 32, Bands: 12, Seed: 11,
		NoiseSigma: 3, Illumination: 0.1,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cube
}

// simJob starts a fusion job on a fresh simulated cluster at the
// calibrated workstation rate; the test calls Run.
func simJob(t *testing.T, cube *hsi.Cube, opts Options) (*RunningJob, *simnet.Exec, []*simnet.Node) {
	t.Helper()
	return simJobRate(t, cube, opts, perfmodel.EffectiveWorkstationRate)
}

// simJobRate lets tests slow the virtual CPUs down so that small test
// cubes produce seconds of virtual makespan (enough for mid-run failure
// injection and compute-dominated speedup shapes).
func simJobRate(t *testing.T, cube *hsi.Cube, opts Options, rate float64) (*RunningJob, *simnet.Exec, []*simnet.Node) {
	t.Helper()
	sys, x, nodes := simCluster(opts.Workers, rate)
	job, err := StartJob(sys, MemSource(cube), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return job, x, nodes
}

// simCluster builds a dedicated simulated cluster: the manager's node 0
// plus one node per worker, every CPU at rate.
func simCluster(workers int, rate float64) (*scplib.SimSystem, *simnet.Exec, []*simnet.Node) {
	x, nodes := scplib.NewCluster(workers+1, rate)
	x.Horizon = 1e6
	// Protocol CPU cost is calibrated against the standard rate; scale it
	// so slowed-down clusters keep the same protocol/compute ratio.
	cost := scplib.DefaultMsgCost()
	scale := rate / perfmodel.EffectiveWorkstationRate
	cost.FixedFlops *= scale
	cost.FlopsPerByte *= scale
	return scplib.NewSimSystem(x, x.NewBus(0, 0), nodes, cost), x, nodes
}

func imagesEqual(a, b *image.RGBA) bool {
	return a.Bounds() == b.Bounds() && bytes.Equal(a.Pix, b.Pix)
}

func TestDistributedMatchesSequential(t *testing.T) {
	cube := testScene(t)
	for _, P := range []int{1, 2, 4} {
		for _, g := range []int{1, 2, 3} {
			opts := Options{Workers: P, Granularity: g}
			seq, err := Sequential(cube, opts)
			if err != nil {
				t.Fatal(err)
			}
			job, _, _ := simJob(t, cube, opts)
			dist, err := job.Run()
			if err != nil {
				t.Fatalf("P=%d g=%d: %v", P, g, err)
			}
			if dist.UniqueSetSize != seq.UniqueSetSize {
				t.Fatalf("P=%d g=%d: K %d vs %d", P, g, dist.UniqueSetSize, seq.UniqueSetSize)
			}
			if dist.ScreenStats != seq.ScreenStats {
				t.Fatalf("P=%d g=%d: screen stats %+v vs %+v", P, g, dist.ScreenStats, seq.ScreenStats)
			}
			if dist.ScreenStats.Comparisons == 0 || dist.ScreenStats.Scanned == 0 {
				t.Fatalf("P=%d g=%d: empty screen stats %+v", P, g, dist.ScreenStats)
			}
			if !dist.Mean.Equal(seq.Mean, 0) {
				t.Fatalf("P=%d g=%d: mean differs", P, g)
			}
			if !dist.Transform.Equal(seq.Transform, 0) {
				t.Fatalf("P=%d g=%d: transform differs", P, g)
			}
			if !imagesEqual(dist.Image, seq.Image) {
				t.Fatalf("P=%d g=%d: composite differs", P, g)
			}
		}
	}
}

func TestResilientMatchesSequential(t *testing.T) {
	cube := testScene(t)
	opts := Options{Workers: 3, Granularity: 2, Replication: 2, Regenerate: true}
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	job, _, _ := simJob(t, cube, opts)
	dist, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(dist.Image, seq.Image) {
		t.Fatal("replicated run produced a different composite")
	}
	if dist.Reissues != 0 || dist.CacheMisses != 0 {
		t.Fatalf("failure-free run had reissues=%d misses=%d", dist.Reissues, dist.CacheMisses)
	}
}

func TestRealRuntimeMatchesSequential(t *testing.T) {
	cube := testScene(t)
	opts := Options{Workers: 2, Granularity: 2, RequestTimeout: 30}
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys := scplib.NewRealSystem()
	res, err := Fuse(sys, cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("real-runtime composite differs from sequential")
	}
}

// TestEigenFailureIsTyped pins the eigensolver's failure path: one NaN
// sample poisons the unique-set covariance, QL cannot converge on it,
// and both the sequential oracle and a distributed run on the real
// runtime report linalg.ErrNoConvergence rather than an untyped error.
func TestEigenFailureIsTyped(t *testing.T) {
	cube := testScene(t)
	cube.Data[0] = float32(math.NaN())
	opts := Options{Workers: 2, Granularity: 2, RequestTimeout: 30}
	if _, err := Sequential(cube, opts); !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("Sequential err = %v, want linalg.ErrNoConvergence", err)
	}
	if _, err := Fuse(scplib.NewRealSystem(), cube, opts); !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("Fuse err = %v, want linalg.ErrNoConvergence", err)
	}
}

func TestRealRuntimeResilient(t *testing.T) {
	cube := testScene(t)
	opts := Options{
		Workers: 2, Granularity: 2, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.02, FailTimeout: 0.2, RequestTimeout: 30,
	}
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys := scplib.NewRealSystem()
	res, err := Fuse(sys, cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("real-runtime replicated composite differs")
	}
}

// faultAlgorithms lists every algorithm the fault tests run, with the
// virtual-CPU slowdown that keeps a run going past a kill at 0.2 s and
// its detection a FailTimeout later (the tile kernels are cheap).
var faultAlgorithms = []struct {
	name     string
	slowdown float64
}{{"pct", 1}, {"pyramid", 20}, {"dwt", 20}}

// runFaulted runs opts over cube on a simulated cluster slowed by
// slowdown, with the given failures armed.
func runFaulted(t *testing.T, cube *hsi.Cube, opts Options, slowdown float64, events ...failure.Event) (*Result, resilient.Stats, error) {
	t.Helper()
	job, x, nodes := simJobRate(t, cube, opts, perfmodel.EffectiveWorkstationRate/slowdown)
	plan := failure.Plan{Events: events}
	if err := plan.Arm(x, job.Runtime(), nodes); err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	return res, job.Runtime().Stats(), err
}

// faultMatchesSequential runs every algorithm under events and checks
// the composite against Sequential's.
func faultMatchesSequential(t *testing.T, opts Options, events ...failure.Event) {
	cube := testScene(t)
	for _, alg := range faultAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			opts := opts
			opts.Algorithm = alg.name
			seq, err := Sequential(cube, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, st, err := runFaulted(t, cube, opts, alg.slowdown, events...)
			if err != nil {
				t.Fatal(err)
			}
			if !imagesEqual(res.Image, seq.Image) {
				t.Fatal("composite differs after the failure")
			}
			if st.Detections < 1 || st.Regenerations < len(events) {
				t.Fatalf("failure not caught mid-run: %+v", st)
			}
		})
	}
}

func TestKillOneReplicaMidRun(t *testing.T) {
	faultMatchesSequential(t, Options{
		Workers: 2, Granularity: 2, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.25, FailTimeout: 1, RequestTimeout: 30,
	}, failure.KillReplica(0.2, 1, 0))
}

func TestWholeGroupLossMidRun(t *testing.T) {
	faultMatchesSequential(t, Options{
		Workers: 2, Granularity: 3, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.25, FailTimeout: 1, RequestTimeout: 15, MaxReissues: 10,
	}, failure.KillReplica(0.2, 1, 0), failure.KillReplica(0.2, 1, 1))
}

func TestNodeCrashMidRun(t *testing.T) {
	cube := testScene(t)
	opts := Options{
		Workers: 3, Granularity: 2, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.25, FailTimeout: 1, RequestTimeout: 15, MaxReissues: 10,
	}
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 hosts worker2/r0 and worker1/r1.
	res, _, err := runFaulted(t, cube, opts, 1, failure.CrashNode(0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("composite differs after node crash")
	}
}

func TestUnreplicatedWorkerLossFailsCleanly(t *testing.T) {
	cube := testScene(t)
	opts := Options{
		Workers: 2, Granularity: 2, Replication: 1,
		RequestTimeout: 5, MaxReissues: 2,
	}
	for _, alg := range faultAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			opts := opts
			opts.Algorithm = alg.name
			if _, _, err := runFaulted(t, cube, opts, alg.slowdown, failure.KillReplica(0.1, 1, 0)); err == nil {
				t.Fatal("run with a dead unreplicated worker should fail")
			}
		})
	}
}

func TestSpeedupAndResiliencyCostShape(t *testing.T) {
	cube := testScene(t)
	timeFor := func(opts Options) float64 {
		job, _, _ := simJob(t, cube, opts)
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Times.Total
	}
	t1 := timeFor(Options{Workers: 1, Granularity: 2})
	t4 := timeFor(Options{Workers: 4, Granularity: 2})
	if t4 >= t1 {
		t.Fatalf("no speedup: T(1)=%g T(4)=%g", t1, t4)
	}
	speedup := t1 / t4
	if speedup < 1.8 {
		t.Fatalf("speedup at P=4 only %.2f", speedup)
	}
	// Replication level 2 must cost roughly a factor of two.
	t4r := timeFor(Options{Workers: 4, Granularity: 2, Replication: 2, Regenerate: true})
	ratio := t4r / t4
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("resiliency cost ratio %.2f, expected ≈2×(1+overhead)", ratio)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cube := testScene(t)
	opts := Options{Workers: 2, Granularity: 2, Prefetch: -1} // -1 → 0
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	job, _, _ := simJob(t, cube, opts)
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("prefetch=0 changed the result")
	}
}

func TestOptionsValidation(t *testing.T) {
	cube := testScene(t)
	sys := scplib.NewRealSystem()
	if _, err := Fuse(sys, cube, Options{Workers: 0}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Workers=0: %v", err)
	}
	if _, err := Fuse(sys, cube, Options{Workers: 1, Replication: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Replication=-1: %v", err)
	}
	if _, err := Fuse(sys, cube, Options{Workers: 1, Components: 2}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Components=2: %v", err)
	}
	bad := &hsi.Cube{Width: 1, Height: 1, Bands: 1}
	if _, err := Fuse(sys, bad, Options{Workers: 1}); err == nil {
		t.Fatal("invalid cube accepted")
	}
}

func TestGranularityCapsAtRows(t *testing.T) {
	cube := testScene(t) // 32 rows
	opts := Options{Workers: 4, Granularity: 20}
	job, _, _ := simJob(t, cube, opts)
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SubCubes != 32 {
		t.Fatalf("SubCubes = %d, want clamp to 32 rows", res.SubCubes)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cube := testScene(t)
	opts := Options{Workers: 3, Granularity: 2, Replication: 2, Regenerate: true}
	run := func() (*Result, float64) {
		job, x, _ := simJob(t, cube, opts)
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, x.Now()
	}
	r1, t1 := run()
	r2, t2 := run()
	if t1 != t2 {
		t.Fatalf("virtual times differ: %g vs %g", t1, t2)
	}
	if !imagesEqual(r1.Image, r2.Image) {
		t.Fatal("images differ between runs")
	}
}

func TestPhaseTimesMonotone(t *testing.T) {
	cube := testScene(t)
	job, _, _ := simJob(t, cube, Options{Workers: 2, Granularity: 2})
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Times
	if !(tm.Screen > 0 && tm.Screen <= tm.Statistics && tm.Statistics <= tm.Eigen &&
		tm.Eigen <= tm.Transform && tm.Transform <= tm.Total) {
		t.Fatalf("phase times not monotone: %+v", tm)
	}
}

func TestFailureEventString(t *testing.T) {
	if failure.KillReplica(1, 2, 0).String() == "" || failure.CrashNode(1, 3).String() == "" {
		t.Fatal("empty event strings")
	}
	var rt *resilient.Runtime
	_ = rt
	p := failure.Plan{Events: []failure.Event{failure.CrashNode(1, 99)}}
	x, _ := scplib.NewCluster(2, 1e6)
	if err := p.Arm(x, nil, nil); err == nil {
		t.Fatal("bad node accepted")
	}
	if err := p.ArmReal(nil); err == nil {
		t.Fatal("node crash on real runtime accepted")
	}
}

func TestFuseProducesContrast(t *testing.T) {
	// End-to-end sanity: the fused composite is not flat (fusion's whole
	// purpose is contrast enhancement).
	cube := testScene(t)
	job, _, _ := simJob(t, cube, Options{Workers: 2, Granularity: 2})
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	var min, max byte = 255, 0
	for i := 0; i < len(res.Image.Pix); i += 4 {
		v := res.Image.Pix[i]
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 30 {
		t.Fatalf("composite nearly flat: min=%d max=%d", min, max)
	}
}

// TestStaggeredGroupLossSweep kills both replicas of worker 1 gap seconds
// apart. Seen in one guardian scan or two, the group restarts under a new
// epoch, so every gap matches Sequential with no more reissues than 0.
func TestStaggeredGroupLossSweep(t *testing.T) {
	cube := testScene(t)
	opts := Options{
		Workers: 2, Granularity: 3, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.25, FailTimeout: 1, RequestTimeout: 15, MaxReissues: 10,
	}
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	simultaneous := -1
	for _, gap := range []float64{0, 0.3, 0.5, 0.7} {
		res, _, err := runFaulted(t, cube, opts, 1,
			failure.KillReplica(0.2, 1, 0), failure.KillReplica(0.2+gap, 1, 1))
		if err != nil {
			t.Fatalf("gap %.1f: %v", gap, err)
		}
		if !imagesEqual(res.Image, seq.Image) {
			t.Fatalf("gap %.1f: composite differs", gap)
		}
		t.Logf("gap %.1f: %d reissues, %.1f virtual s", gap, res.Reissues, res.Times.Total)
		if simultaneous < 0 {
			simultaneous = res.Reissues
		}
		if res.Reissues > simultaneous {
			t.Fatalf("gap %.1f: %d reissues, simultaneous loss took %d", gap, res.Reissues, simultaneous)
		}
	}
}

package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// workerdRegistry builds the registry a fusionworkerd process installs:
// the resilient wrapper factory around the fusion worker body.
func workerdRegistry() *scplib.BodyRegistry {
	inner := resilient.NewBodyRegistry()
	RegisterWorkerBodies(inner)
	reg := scplib.NewBodyRegistry()
	resilient.RegisterWrapperBody(reg, inner)
	return reg
}

// hookFan relays transport liveness to every registered job runtime. It
// is installed before any worker dials in, so the hook fields are never
// written while peer goroutines might read them.
type hookFan struct {
	mu  sync.Mutex
	rts []*resilient.Runtime
}

func (f *hookFan) add(rt *resilient.Runtime) {
	f.mu.Lock()
	f.rts = append(f.rts, rt)
	f.mu.Unlock()
}

func (f *hookFan) snapshot() []*resilient.Runtime {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*resilient.Runtime(nil), f.rts...)
}

func (f *hookFan) nodeDown(n int) {
	for _, rt := range f.snapshot() {
		rt.NodeDown(n)
	}
}

func (f *hookFan) nodeAlive(n int) {
	for _, rt := range f.snapshot() {
		rt.NodeAlive(n)
	}
}

func (f *hookFan) threadExit(id scplib.ThreadID) {
	for _, rt := range f.snapshot() {
		rt.ThreadExited(id)
	}
}

// startCluster brings up a coordinator with n connected worker processes
// (in-process, real sockets) wired for resilient liveness.
func startCluster(t *testing.T, n int) (*scplib.ClusterSystem, []*scplib.ClusterWorker, *hookFan) {
	t.Helper()
	sys, err := scplib.NewClusterSystem("", n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sys.Stop()
		sys.Close()
	})
	fan := &hookFan{}
	sys.OnNodeDown = fan.nodeDown
	sys.OnNodeAlive = fan.nodeAlive
	sys.OnThreadExit = fan.threadExit
	sys.Serve()
	ws := make([]*scplib.ClusterWorker, n)
	for i := range ws {
		w, err := scplib.DialCluster(sys.Addr(), 2*time.Second, workerdRegistry())
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		t.Cleanup(w.Shutdown)
		ws[i] = w
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", sys.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	sys.Start()
	return sys, ws, fan
}

func clusterOpts() Options {
	return Options{
		Workers: 2, Granularity: 2, Replication: 2, Regenerate: true,
		HeartbeatPeriod: 0.05, FailTimeout: 0.4, RequestTimeout: 2,
	}
}

// TestClusterJobMatchesSequential fuses over two real worker processes
// and requires the mosaic to be bit-identical to the sequential oracle.
func TestClusterJobMatchesSequential(t *testing.T) {
	cube := testScene(t)
	opts := clusterOpts()
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, fan := startCluster(t, opts.Workers)
	job, err := StartJob(sys, MemSource(cube), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	fan.add(job.Runtime())
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("cluster composite differs from sequential")
	}
	if res.ScreenStats != seq.ScreenStats {
		t.Fatalf("screen stats differ: %+v vs %+v", res.ScreenStats, seq.ScreenStats)
	}
}

// gatedSource blocks the manager inside its second Tile fetch until the
// test releases it — a deterministic "mid-run" point for failure
// injection that does not race against wall-clock job speed.
type gatedSource struct {
	CubeSource
	calls   int
	reached chan struct{}
	resume  chan struct{}
}

func (g *gatedSource) Tile(rr hsi.RowRange) (*hsi.Cube, error) {
	g.calls++ // manager thread only
	if g.calls == 2 {
		close(g.reached)
		<-g.resume
	}
	return g.CubeSource.Tile(rr)
}

// TestClusterJobSurvivesWorkerProcessKill severs one whole worker
// process mid-scene (the in-process analog of kill -9 on fusionworkerd);
// the job must regenerate every replica that lived there and still
// produce the bit-identical mosaic.
func TestClusterJobSurvivesWorkerProcessKill(t *testing.T) {
	cube := testScene(t)
	opts := clusterOpts()
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, ws, fan := startCluster(t, opts.Workers)
	src := &gatedSource{
		CubeSource: MemSource(cube),
		reached:    make(chan struct{}),
		resume:     make(chan struct{}),
	}
	job, err := StartJob(sys, src, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := job.Runtime()
	fan.add(rt)

	<-src.reached
	ws[0].Shutdown() // the whole process, not one thread
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Regenerations < 1 {
		if time.Now().After(deadline) {
			close(src.resume)
			t.Fatalf("no regeneration after process kill: %+v", rt.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(src.resume)

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("post-kill cluster composite differs from sequential")
	}
	st := rt.Stats()
	if st.Detections < 1 || st.Regenerations < 1 {
		t.Fatalf("worker process kill not healed: %+v", st)
	}
}

// TestClusterJobStartsWithDeadNode starts a job against a cluster that
// has already lost a worker process — the mid-start analog of a SIGKILL
// landing between job admission and replica spawning. Spawns aimed at
// the dead node fail with ErrNodeDown, which must not abort the job:
// the guardian regenerates those replicas on surviving nodes and the
// mosaic stays bit-identical.
func TestClusterJobStartsWithDeadNode(t *testing.T) {
	cube := testScene(t)
	opts := clusterOpts()
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, ws, fan := startCluster(t, opts.Workers)
	ws[0].Shutdown()
	deadline := time.Now().Add(2 * time.Second)
	for sys.LiveWorkers() != opts.Workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker shutdown not observed: %d live", sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	src := &gatedSource{
		CubeSource: MemSource(cube),
		reached:    make(chan struct{}),
		resume:     make(chan struct{}),
	}
	job, err := StartJob(sys, src, opts, 0)
	if err != nil {
		t.Fatalf("start with a dead node must not fail: %v", err)
	}
	rt := job.Runtime()
	fan.add(rt)

	// Hold the manager mid-scene until the guardian has regenerated the
	// replicas that never spawned (fast scenes would otherwise finish on
	// the surviving replicas before FailTimeout expires).
	<-src.reached
	deadline = time.Now().Add(5 * time.Second)
	for rt.Stats().Regenerations < 1 {
		if time.Now().After(deadline) {
			close(src.resume)
			t.Fatalf("replicas lost at start were not regenerated: %+v", rt.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(src.resume)

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, seq.Image) {
		t.Fatal("dead-node-start composite differs from sequential")
	}
}

// TestClusterJobsShareSystem runs two jobs concurrently on one cluster
// with disjoint PhysBase ranges.
func TestClusterJobsShareSystem(t *testing.T) {
	cube := testScene(t)
	opts := clusterOpts()
	seq, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, fan := startCluster(t, opts.Workers)
	a, err := StartJob(sys, MemSource(cube), opts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fan.add(a.Runtime())
	b, err := StartJob(sys, MemSource(cube), opts, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	fan.add(b.Runtime())
	ra, err := a.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(ra.Image, seq.Image) || !imagesEqual(rb.Image, seq.Image) {
		t.Fatal("concurrent cluster jobs corrupted each other")
	}
}

// startLocal returns a running plain RealSystem — the service's
// in-process system — torn down at test cleanup.
func startLocal(t *testing.T) *scplib.RealSystem {
	t.Helper()
	sys := scplib.NewRealSystem()
	sys.Start()
	t.Cleanup(func() {
		sys.Stop()
		sys.Wait()
	})
	return sys
}

// TestStartJobUnreplicatedIsUnmonitored runs StartJob as the service
// runs every in-process job — on a shared RealSystem at replication 1
// without regeneration — for every algorithm. There a detection could
// only kill a worker, so workers are not monitored: a failure detector
// tuned far below any kernel's run time must leave the job alone.
func TestStartJobUnreplicatedIsUnmonitored(t *testing.T) {
	cube := testScene(t)
	sys := startLocal(t)
	for i, alg := range fuse.Names() {
		opts := Options{Workers: 2, Algorithm: alg,
			HeartbeatPeriod: 1e-6, FailTimeout: 1e-6, RequestTimeout: 0.5, MaxReissues: 1}
		seq, err := Sequential(cube, opts)
		if err != nil {
			t.Fatal(err)
		}
		// A range of its own: the previous job's threads may still drain.
		job, err := StartJob(sys, MemSource(cube), opts, scplib.ThreadID(i+1)<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !imagesEqual(res.Image, seq.Image) {
			t.Fatalf("%s: composite differs from sequential", alg)
		}
		if st := job.Runtime().Stats(); st.Detections != 0 {
			t.Fatalf("%s: unmonitored workers saw %d detections", alg, st.Detections)
		}
	}
}

// panicSource panics on every tile request.
type panicSource struct{ CubeSource }

func (panicSource) Tile(hsi.RowRange) (*hsi.Cube, error) { panic("tile source exploded") }

// TestStartJobManagerPanicFails: a manager that panics mid-protocol must
// fail the job. Reporting the half-filled Result as success would let a
// caller cache a mosaic that was never computed.
func TestStartJobManagerPanicFails(t *testing.T) {
	job, err := StartJob(startLocal(t), panicSource{MemSource(testScene(t))}, Options{Workers: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err == nil {
		t.Fatalf("panicking manager reported success: %+v", res)
	}
	if res != nil || !strings.Contains(err.Error(), "tile source exploded") {
		t.Fatalf("Wait = %v, %v; want no result and the panic", res, err)
	}
}

// TestStartJobWorkerErrorFailsFast: a worker whose kernel fails ends the
// job at once with the worker's error, instead of leaving the manager to
// wait out RequestTimeout for a reply that never comes — on a shared
// system, on a dedicated one, and on the simulated cluster.
func TestStartJobWorkerErrorFailsFast(t *testing.T) {
	// StartJob leaves the threshold to the screen kernel, which rejects a
	// negative one on every worker's first request.
	opts := Options{Workers: 2, Threshold: -1, RequestTimeout: 60}
	// bound is far below one RequestTimeout, on the system's own clock:
	// wall seconds on RealSystem, virtual seconds on simnet.
	const bound = 5.0
	cube := testScene(t)
	fuse := func(sys scplib.System) error {
		_, err := Fuse(sys, cube, opts)
		return err
	}
	sim, _, _ := simCluster(opts.Workers, perfmodel.EffectiveWorkstationRate)
	rows := []struct {
		name string
		sys  scplib.System
		run  func(scplib.System) error
	}{
		{"shared RealSystem, StartJob", startLocal(t), func(sys scplib.System) error {
			job, err := StartJob(sys, MemSource(cube), opts, 0)
			if err != nil {
				return err
			}
			_, err = job.Wait()
			return err
		}},
		{"dedicated RealSystem, Fuse", scplib.NewRealSystem(), fuse},
		{"simnet, Fuse", sim, fuse},
	}
	for _, row := range rows {
		t0 := row.sys.Now()
		done := make(chan error, 1)
		go func() { done <- row.run(row.sys) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the job was still running after 30 s", row.name)
		}
		if err == nil || !strings.Contains(err.Error(), "worker") {
			t.Fatalf("%s: error %v, want the worker's failure", row.name, err)
		}
		if errors.Is(err, resilient.ErrKilled) {
			t.Fatalf("%s: reported the manager's kill, not its cause: %v", row.name, err)
		}
		if d := row.sys.Now() - t0; d > bound {
			t.Fatalf("%s: worker failure took %.3g s to end the job", row.name, d)
		}
	}
}

func TestWorkerArgsRoundTrip(t *testing.T) {
	mgr, thr, par, alg, err := decodeWorkerArgs(encodeWorkerArgs(ManagerID, 0.125, 3, fuse.IDPyramid))
	if err != nil {
		t.Fatal(err)
	}
	if mgr != ManagerID || thr != 0.125 || par != 3 || alg != "pyramid" {
		t.Fatalf("round trip: mgr=%d thr=%g par=%d alg=%q", mgr, thr, par, alg)
	}
	if _, _, _, _, err := decodeWorkerArgs(make([]byte, 8)); err == nil {
		t.Fatal("short args accepted")
	}
	bogus := encodeWorkerArgs(ManagerID, 0.125, 3, fuse.ID(999))
	if _, _, _, _, err := decodeWorkerArgs(bogus); err == nil {
		t.Fatal("unknown algorithm id accepted")
	}
}

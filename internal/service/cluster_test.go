package service

import (
	"strings"
	"testing"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// workerdRegistry is the thread-body registry a fusionworkerd process
// installs (mirrors cmd/fusionworkerd).
func workerdRegistry() *scplib.BodyRegistry {
	inner := resilient.NewBodyRegistry()
	core.RegisterWorkerBodies(inner)
	reg := scplib.NewBodyRegistry()
	resilient.RegisterWrapperBody(reg, inner)
	return reg
}

// startClusterPool builds a cluster-mode pool and dials workers
// fusionworkerd-style (real sockets, in this process).
func startClusterPool(t *testing.T, ccfg ClusterConfig, workers int) (*Pool, []*scplib.ClusterWorker) {
	t.Helper()
	return startClusterPoolWith(t, Config{MaxConcurrent: 2, CacheEntries: -1, Cluster: &ccfg}, workers)
}

// startClusterPoolWith is startClusterPool over a whole pool config.
func startClusterPoolWith(t *testing.T, cfg Config, workers int) (*Pool, []*scplib.ClusterWorker) {
	t.Helper()
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	addr := pool.Stats().Cluster.Addr
	ws := make([]*scplib.ClusterWorker, workers)
	for i := range ws {
		w, err := scplib.DialCluster(addr, 2*time.Second, workerdRegistry())
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		t.Cleanup(w.Shutdown)
		ws[i] = w
	}
	deadline := time.Now().Add(2 * time.Second)
	for pool.cluster.sys.LiveWorkers() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", pool.cluster.sys.LiveWorkers(), workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return pool, ws
}

// TestClusterBaseRecycling checks that finished jobs' phys-ID bases are
// reused — but not while a finished job's threads still occupy the range
// — and that fresh allocation wraps below physMax without handing out a
// running job's base: the disjoint-ID guarantee must hold in a daemon
// that serves jobs indefinitely.
func TestClusterBaseRecycling(t *testing.T) {
	sys, err := scplib.NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Start()
	ids := newPhysIDs(sys)
	a, b := ids.alloc(), ids.alloc()
	if a == b {
		t.Fatalf("alloc handed out %d twice", a)
	}

	// A straggler of the finished job (its manager thread, say) still
	// holds an ID in a's range: a must not be handed out again yet.
	if err := sys.Spawn(scplib.ThreadSpec{ID: a + 3, Name: "straggler", Body: func(env scplib.Env) error {
		_, err := env.Recv()
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	ids.release(a)
	c := ids.alloc()
	if c == a || c == b {
		t.Fatalf("alloc handed out %d with base %d draining and %d running", c, a, b)
	}
	sys.Kill(a + 3)
	for deadline := time.Now().Add(5 * time.Second); sys.HasThreadsIn(a, a+physStride); {
		if time.Now().After(deadline) {
			t.Fatal("straggler never reaped")
		}
		time.Sleep(time.Millisecond)
	}
	if d := ids.alloc(); d != a {
		t.Fatalf("drained base %d not reused, got %d", a, d)
	}

	// Near the cap, fresh allocation wraps and skips running jobs' bases.
	ids.next = physMax
	d := ids.alloc()
	if d+physStride > physMax {
		t.Fatalf("allocation crossed physMax: %d", d)
	}
	if d == a || d == b || d == c {
		t.Fatalf("wrapped allocation reused running job's base %d", d)
	}
}

// TestPoolBaseRecycling is TestClusterBaseRecycling's plain-pool twin:
// every in-process job spawns its threads into a range of the pool's own
// system, so a pool that runs many more jobs than it ever holds ranges
// must be reusing released ones — and once idle, no thread may remain in
// any of them.
func TestPoolBaseRecycling(t *testing.T) {
	const jobs = 12
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cube := testCube(t, 81)
	ids := make([]string, jobs)
	for i := range ids {
		// A fresh threshold per job keeps every job a distinct run.
		st, err := pool.Submit(cube, core.Options{Threshold: 0.05 + float64(i)*1e-4})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if got, err := pool.Wait(id); err != nil || got.State != StateDone {
			t.Fatalf("job %d: %v %+v", i, err, got.Err)
		}
	}

	pool.ids.mu.Lock()
	held := int((pool.ids.next - physBase0) / physStride)
	free := append([]scplib.ThreadID(nil), pool.ids.free...)
	running := len(pool.ids.inUse)
	pool.ids.mu.Unlock()
	if held >= jobs {
		t.Fatalf("%d jobs took %d fresh bases: released ranges are not reused", jobs, held)
	}
	if running != 0 || len(free) != held {
		t.Fatalf("idle pool: %d bases in use, %d free of %d handed out", running, len(free), held)
	}
	for deadline := time.Now().Add(5 * time.Second); pool.sys.Live() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("idle pool still runs %d threads", pool.sys.Live())
		}
		time.Sleep(time.Millisecond)
	}
	for _, base := range free {
		if pool.sys.HasThreadsIn(base, base+physStride) {
			t.Fatalf("released range %d still holds threads", base)
		}
	}
}

// TestClusterBackToBackJobsNeverFallBack runs cluster jobs one straight
// after another on a loopback fleet. Each job's base returns to the free
// list the moment its manager finishes, while its threads are still being
// reaped; reusing it then made the next job's spawn fail with a duplicate
// thread id and the job silently re-run in process.
func TestClusterBackToBackJobsNeverFallBack(t *testing.T) {
	const workers, jobs = 2, 24
	pool, _ := startClusterPool(t, fastClusterConfig(workers), workers)
	cube := testCube(t, 78)
	for i := 0; i < jobs; i++ {
		// A fresh threshold per job keeps the result cache out of the way.
		st, err := pool.Submit(cube, core.Options{Threshold: 0.05 + float64(i)*1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := pool.Wait(st.ID); err != nil || got.State != StateDone {
			t.Fatalf("job %d: %v %+v", i, err, got.Err)
		}
	}
	if cs := pool.Stats().Cluster; cs.Fallbacks != 0 || cs.Jobs != jobs {
		t.Fatalf("cluster ran %d/%d jobs with %d fallbacks", cs.Jobs, jobs, cs.Fallbacks)
	}
}

func fastClusterConfig(workers int) ClusterConfig {
	return ClusterConfig{
		Workers: workers, Replication: 2,
		HeartbeatPeriod: 0.05, FailTimeout: 0.4, ReissueTimeout: 2,
	}
}

// TestClusterPoolMatchesInProcess submits the same cube to a cluster
// pool and a plain pool and requires bit-identical composites — the
// property that makes silent degradation sound.
func TestClusterPoolMatchesInProcess(t *testing.T) {
	const workers = 2
	cube := testCube(t, 77)
	opts := core.Options{Threshold: 0.05, Granularity: 2}

	plain, err := NewPool(Config{Workers: workers, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	st, err := plain.Submit(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Wait(st.ID)
	if err != nil || want.State != StateDone {
		t.Fatalf("plain pool: %v %+v", err, want.Err)
	}

	pool, _ := startClusterPool(t, fastClusterConfig(workers), workers)
	st, err = pool.Submit(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Wait(st.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("cluster pool: %v %+v", err, got.Err)
	}
	sameResult(t, got.Result, want.Result, "cluster vs in-process")

	cs := pool.Stats().Cluster
	if cs == nil || cs.Jobs != 1 || cs.Fallbacks != 0 {
		t.Fatalf("cluster stats: %+v", cs)
	}
	if cs.Workers != workers || cs.LiveWorkers != workers {
		t.Fatalf("cluster worker counts: %+v", cs)
	}
	// The stage metric comes from the job's own trace, so a cluster job
	// feeds it like an in-process one.
	var exposition strings.Builder
	if err := pool.Metrics().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if n := sampleValue(t, exposition.String(), `fusion_worker_stage_seconds_count{stage="screen"}`); n < 1 {
		t.Fatalf("cluster job observed %v screen stages, want >= 1", n)
	}
}

// TestPanickingJobFailsUncached: a job whose manager panics ends failed
// with nothing cached — in process, and over the cluster, where the
// failed cluster run degrades to an in-process re-run that fails too.
func TestPanickingJobFailsUncached(t *testing.T) {
	ccfg := fastClusterConfig(2)
	for _, tc := range []struct {
		name string
		pool func(t *testing.T) *Pool
	}{
		{"in-process", func(t *testing.T) *Pool {
			pool, err := NewPool(Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pool.Close() })
			return pool
		}},
		{"cluster", func(t *testing.T) *Pool {
			pool, _ := startClusterPoolWith(t, Config{MaxConcurrent: 2, Cluster: &ccfg}, ccfg.Workers)
			return pool
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := tc.pool(t)
			opts, err := pool.canonicalOptions(core.Options{Threshold: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			// Submit validates cubes, so the job is built by hand: its
			// samples stop short of its shape, and the manager's first
			// tile extraction panics.
			cube := testCube(t, 82)
			cube.Data = cube.Data[:1:1]
			job := &Job{
				id: "job-panic", num: 1, cube: cube, opts: opts,
				key:   "panic|" + opts.ResultKey(),
				done:  make(chan struct{}),
				state: StateQueued,
				trace: telemetry.NewTraceRecorder(0),
			}
			pool.runJob(job)
			st := pool.snapshot(job)
			if st.State != StateFailed || st.Err == nil || !strings.Contains(st.Err.Error(), "panic") {
				t.Fatalf("panicking job ended %s (err %v), want failed with the panic", st.State, st.Err)
			}
			if _, ok := pool.cache.peek(job.key); ok {
				t.Fatal("the panicking job's result was cached")
			}
		})
	}
}

// TestClusterPoolFallsBackBelowQuorum submits against a cluster pool
// with no connected workers: the job must complete on the in-process
// pool, with the degradation counted.
func TestClusterPoolFallsBackBelowQuorum(t *testing.T) {
	pool, _ := startClusterPool(t, fastClusterConfig(2), 0)
	cube := testCube(t, 78)
	st, err := pool.Submit(cube, core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Wait(st.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("degraded job: %v %+v", err, got.Err)
	}
	ref, err := core.Sequential(cube, core.Options{Workers: 2, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.Result, ref, "fallback vs sequential")
	cs := pool.Stats().Cluster
	if cs == nil || cs.Jobs != 0 || cs.Fallbacks != 1 {
		t.Fatalf("cluster stats after fallback: %+v", cs)
	}
}

// TestClusterPoolSurvivesWorkerLoss severs one worker process while the
// cluster is idle, then submits: with the fleet below quorum the job
// degrades; after the worker re-dials, jobs run on the cluster again.
func TestClusterPoolSurvivesWorkerLoss(t *testing.T) {
	const workers = 2
	pool, ws := startClusterPool(t, fastClusterConfig(workers), workers)
	addr := pool.Stats().Cluster.Addr

	ws[0].Shutdown()
	deadline := time.Now().Add(2 * time.Second)
	for pool.cluster.sys.LiveWorkers() != workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker loss not observed: %d live", pool.cluster.sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := pool.Submit(testCube(t, 79), core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Wait(st.ID); err != nil || got.State != StateDone {
		t.Fatalf("below-quorum job: %v %+v", err, got.Err)
	}
	if cs := pool.Stats().Cluster; cs.Fallbacks != 1 {
		t.Fatalf("expected one fallback, got %+v", cs)
	}

	// Reconnect (fusionworkerd's re-dial loop does exactly this) and the
	// next job runs remotely.
	w, err := scplib.DialCluster(addr, 2*time.Second, workerdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	t.Cleanup(w.Shutdown)
	deadline = time.Now().Add(2 * time.Second)
	for pool.cluster.sys.LiveWorkers() != workers {
		if time.Now().After(deadline) {
			t.Fatalf("reconnect not observed: %d live", pool.cluster.sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err = pool.Submit(testCube(t, 80), core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Wait(st.ID); err != nil || got.State != StateDone {
		t.Fatalf("post-reconnect job: %v %+v", err, got.Err)
	}
	if cs := pool.Stats().Cluster; cs.Jobs != 1 {
		t.Fatalf("post-reconnect job did not run on the cluster: %+v", cs)
	}
}

package resilient

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"resilientfusion/internal/scplib"
)

// fastRealConfig tunes detection for wall-clock tests.
func fastRealConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		HeartbeatPeriod: 0.01,
		FailTimeout:     0.08,
		Regenerate:      true,
	}
}

// TestEpochBumpDedupeRealRuntime kills a whole group on goroutines and
// wall-clock time and lets it regenerate. The restart bumps the group's
// epoch, and the manager's dedupe state — which saw the old incarnation's
// sequence numbers — must accept the fresh incarnation's traffic (epoch
// reset) instead of filtering it as duplicate. The two kills land in one
// guardian scan or in two, as the scheduler decides; both must bump.
func TestEpochBumpDedupeRealRuntime(t *testing.T) {
	sys := scplib.NewRealSystem()
	rt, err := New(sys, fastRealConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	round1Done := make(chan struct{})
	var round2Replies int
	var completed bool
	isResp := func(m *RMessage) bool { return m.Kind == kindResp }
	mgr := func(env REnv) error {
		defer rt.Shutdown()
		// Phase 1: six request/reply exchanges push the manager's dedupe
		// high-water for the group to lseq 6.
		for i := 0; i < 6; i++ {
			if err := env.Send(1, kindReq, make([]byte, 4)); err != nil {
				return err
			}
			if _, err := env.RecvMatchTimeout(isResp, 20); err != nil {
				return fmt.Errorf("round 1.%d: %w", i, err)
			}
		}
		close(round1Done)
		// Linger while the whole group is killed and regenerated. (The
		// alive count dips and recovers within a single guardian scan, so
		// watch the regeneration counter, not the replica count.)
		for rt.Stats().Regenerations < 2 || len(rt.physOf(1)) < 2 {
			if _, err := env.RecvTimeout(0.02); err != nil && !errors.Is(err, ErrTimeout) {
				return err
			}
		}
		// Phase 2 against the restarted incarnation, reissuing at most 5
		// times (view updates race the first sends). The new wrappers
		// number from lseq 1, so every reply here carries lseq ≤ 5 — below
		// the old high-water of 6. Acceptance is therefore possible ONLY
		// through the epoch bump resetting the manager's dedupe state; if
		// epochs were broken, all five replies would be filtered as
		// duplicates and this times out.
		for attempt := 0; attempt < 5 && round2Replies == 0; attempt++ {
			if err := env.Send(1, kindReq, make([]byte, 4)); err != nil {
				return err
			}
			if _, err := env.RecvMatchTimeout(isResp, 1.0); err == nil {
				round2Replies++
			} else if !errors.Is(err, ErrTimeout) {
				return err
			}
		}
		if round2Replies == 0 {
			return fmt.Errorf("round 2: epoch bump lost the restarted group's traffic")
		}
		if err := env.Send(1, kindStop, nil); err != nil {
			return err
		}
		completed = true
		return nil
	}
	if err := rt.Add(mgrLID, "manager", []int{0}, false, mgr, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, "worker", []int{1, 2}, true, workerBody, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-round1Done
		// SIGKILL analog for both replicas: the full group is lost at once.
		rt.KillReplica(1, 0)
		rt.KillReplica(1, 1)
	}()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed || round2Replies == 0 {
		t.Fatal("restarted group's traffic was dropped")
	}
	st := rt.Stats()
	if st.Detections < 2 || st.Regenerations < 2 {
		t.Fatalf("expected whole-group detection+regeneration, got %+v", st)
	}
}

// clusterBodies registers the echo worker as a remotable inner body.
func clusterBodies() *scplib.BodyRegistry {
	inner := NewBodyRegistry()
	inner.Register("echo", func(args []byte) (RBody, error) { return workerBody, nil })
	reg := scplib.NewBodyRegistry()
	RegisterWrapperBody(reg, inner)
	return reg
}

// clusterHarness stands up a coordinator + n worker processes (in-process
// but over real sockets and the real remote spawn path) and a runtime
// whose liveness hooks are wired to the transport.
func clusterHarness(t *testing.T, workers int, cfg Config) (*scplib.ClusterSystem, *Runtime, []*scplib.ClusterWorker) {
	t.Helper()
	sys, err := scplib.NewClusterSystem("", workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	cfg.Nodes = workers + 1
	rt, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.OnNodeAlive = rt.NodeAlive
	sys.OnNodeDown = rt.NodeDown
	sys.OnThreadExit = rt.ThreadExited
	sys.Serve()

	ws := make([]*scplib.ClusterWorker, workers)
	for i := range ws {
		w, err := scplib.DialCluster(sys.Addr(), 2*time.Second, clusterBodies())
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		t.Cleanup(w.Shutdown)
		ws[i] = w
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.LiveWorkers() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", sys.LiveWorkers(), workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return sys, rt, ws
}

// TestResilientOverCluster runs the echo application with its worker
// group replicated across two real worker processes; killing one remote
// replica mid-run must be detected and regenerated without the manager
// seeing duplicates or gaps.
func TestResilientOverCluster(t *testing.T) {
	_, rt, _ := clusterHarness(t, 2, fastRealConfig(3))
	res := &managerResult{}
	if err := rt.Add(mgrLID, "manager", []int{0}, false, echoManager(rt, 1, 6, 20, res), "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, "worker", []int{1, 2}, true, workerBody, "echo", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for len(rt.physOf(1)) < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let a round or two land first
		rt.KillReplica(1, 0)
	}()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("cluster run did not complete")
	}
	if res.extra != 0 {
		t.Fatalf("dedupe leaked %d deliveries over the cluster transport", res.extra)
	}
	st := rt.Stats()
	if st.Detections < 1 || st.Regenerations < 1 {
		t.Fatalf("remote kill not healed: %+v", st)
	}
}

// TestResilientClusterNodeLoss kills an entire worker process (the
// coordinator sees the connection die); connection-level liveness must
// force-expire its replicas faster than, or independent of, heartbeat
// silence, and regeneration must land them elsewhere.
func TestResilientClusterNodeLoss(t *testing.T) {
	// Generous heartbeat/fail timeouts: detection here must come from the
	// severed connection, not from heartbeat expiry.
	cfg := Config{
		Nodes:           4,
		HeartbeatPeriod: 0.2,
		FailTimeout:     30,
		Regenerate:      true,
	}
	_, rt, ws := clusterHarness(t, 3, cfg)
	res := &managerResult{}
	if err := rt.Add(mgrLID, "manager", []int{0}, false, echoManager(rt, 1, 8, 40, res), "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, "worker", []int{1, 2}, true, workerBody, "echo", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for len(rt.physOf(1)) < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		ws[0].Shutdown() // node 1's whole process goes away
	}()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("run did not survive node loss")
	}
	st := rt.Stats()
	if st.Detections < 1 || st.Regenerations < 1 {
		t.Fatalf("node loss not healed: %+v", st)
	}
	// FailTimeout is 30s and the whole test runs in seconds: detection
	// must have come from the transport signal.
	for _, d := range st.DetectionLatency {
		if d > 10 {
			t.Fatalf("detection latency %.2fs suggests heartbeat expiry, not transport liveness", d)
		}
	}
}

// TestWrapperParamsRoundTrip exercises the remote wrapper codec.
func TestWrapperParamsRoundTrip(t *testing.T) {
	in := &wrapperParams{
		LID:          7,
		Name:         "worker7",
		Slot:         1,
		Monitored:    true,
		AwaitRestore: true,
		GuardianPhys: 1 << 20,
		Epoch:        3,
		HbPeriod:     0.25,
		FailTimeout:  1.5,
		View: &viewTable{View: 9, Groups: []viewGroup{{
			LID: 7,
			Members: []viewMember{
				{Phys: 1<<20 + 1, Node: 1, Alive: true},
				{Phys: 1<<20 + 2, Node: 2, Alive: false},
			},
		}}},
		InnerKind: "core.worker",
		InnerArgs: []byte{1, 2, 3, 4},
	}
	out, err := decodeWrapperParams(encodeWrapperParams(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.LID != in.LID || out.Name != in.Name || out.Slot != in.Slot ||
		out.Monitored != in.Monitored || out.AwaitRestore != in.AwaitRestore ||
		out.GuardianPhys != in.GuardianPhys || out.Epoch != in.Epoch ||
		out.HbPeriod != in.HbPeriod || out.FailTimeout != in.FailTimeout ||
		out.InnerKind != in.InnerKind || string(out.InnerArgs) != string(in.InnerArgs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if out.View.View != 9 || len(out.View.Groups) != 1 || len(out.View.Groups[0].Members) != 2 ||
		out.View.Groups[0].Members[0].Phys != 1<<20+1 || out.View.Groups[0].Members[1].Alive {
		t.Fatalf("view mangled: %+v", out.View)
	}
	// Truncations within the structured prefix (before the length-free
	// InnerArgs tail) must error, not panic.
	full := encodeWrapperParams(in)
	for _, n := range []int{0, 10, 30, 34, 40, len(full) - len(in.InnerArgs) - 2} {
		if n >= len(full) {
			continue
		}
		if _, err := decodeWrapperParams(full[:n]); err == nil {
			t.Fatalf("truncated params at %d accepted", n)
		}
	}
}

// TestPhysBaseOffsetsAllIDs verifies two runtimes can share one system.
func TestPhysBaseOffsetsAllIDs(t *testing.T) {
	sys := scplib.NewRealSystem()
	mk := func(base scplib.ThreadID) *Runtime {
		cfg := fastRealConfig(3)
		cfg.PhysBase = base
		rt, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := mk(0), mk(1<<20)
	if a.guardianPhys == b.guardianPhys {
		t.Fatal("guardians collide")
	}
	if b.guardianPhys != 1<<20 {
		t.Fatalf("guardian at %d, want PhysBase", b.guardianPhys)
	}

	// Both runtimes run the echo app concurrently on the shared system.
	resA, resB := &managerResult{}, &managerResult{}
	for i, pair := range []struct {
		rt  *Runtime
		res *managerResult
	}{{a, resA}, {b, resB}} {
		if err := pair.rt.Add(mgrLID, fmt.Sprintf("manager%d", i), []int{0}, false, echoManager(pair.rt, 1, 3, 20, pair.res), "", nil); err != nil {
			t.Fatal(err)
		}
		if err := pair.rt.Add(1, fmt.Sprintf("worker%d", i), []int{1, 2}, true, workerBody, "", nil); err != nil {
			t.Fatal(err)
		}
		if err := pair.rt.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !resA.completed || !resB.completed {
		t.Fatal("shared-system runtimes interfered")
	}
	if resA.extra != 0 || resB.extra != 0 {
		t.Fatalf("cross-runtime dedupe leakage: %d/%d", resA.extra, resB.extra)
	}
}

package resilient

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"resilientfusion/internal/scplib"
	"resilientfusion/internal/simnet"
)

// Test application: a manager (singleton, lid 0) issues rounds of requests
// to W replicated worker groups (lids 1..W); every worker replica replies
// with identical content. Dedupe must deliver exactly one reply per
// (worker, round) no matter how many replicas answered.

const (
	kindReq  uint16 = 1
	kindResp uint16 = 2
	kindStop uint16 = 3
)

const mgrLID LogicalID = 0

type harness struct {
	x   *simnet.Exec
	sys *scplib.SimSystem
	rt  *Runtime
}

// newHarness builds a sim cluster with `nodes` nodes and a resilient
// runtime configured for fast failure detection.
func newHarness(t *testing.T, nodes int, cfg Config) *harness {
	t.Helper()
	x, ns := scplib.NewCluster(nodes, 1e8)
	x.Horizon = 10000
	sys := scplib.NewSimSystem(x, x.NewBus(0, 0), ns, scplib.DefaultMsgCost())
	cfg.Nodes = nodes
	rt, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{x: x, sys: sys, rt: rt}
}

// workerBody replies to requests with the same payload; replicas behave
// identically, as the layer requires.
func workerBody(env REnv) error {
	for {
		m, err := env.Recv()
		if err != nil {
			return err
		}
		switch m.Kind {
		case kindStop:
			return nil
		case kindReq:
			if err := env.Compute(5e7); err != nil {
				return err
			}
			reply := make([]byte, 8+len(m.Payload))
			binary.LittleEndian.PutUint32(reply, uint32(env.Self()))
			binary.LittleEndian.PutUint32(reply[4:], binary.LittleEndian.Uint32(m.Payload))
			if err := env.Send(mgrLID, kindResp, reply); err != nil {
				return err
			}
		}
	}
}

// echoManager drives `rounds` rounds over `workers` groups and verifies
// exactly-once delivery of replies. It records observations into res.
type managerResult struct {
	replies   map[string]int // "worker/round" -> count
	extra     int            // unexpected deliveries after completion
	completed bool
}

func echoManager(rt *Runtime, workers, rounds int, perRoundTimeout float64, res *managerResult) RBody {
	return func(env REnv) error {
		defer rt.Shutdown()
		res.replies = make(map[string]int)
		for r := 0; r < rounds; r++ {
			payload := make([]byte, 4)
			binary.LittleEndian.PutUint32(payload, uint32(r))
			for w := 1; w <= workers; w++ {
				if err := env.Send(LogicalID(w), kindReq, payload); err != nil {
					return err
				}
			}
			// Collect one reply per worker, tolerating resends.
			want := workers
			for want > 0 {
				m, err := env.RecvTimeout(perRoundTimeout)
				if errors.Is(err, ErrTimeout) {
					return fmt.Errorf("round %d: timed out with %d replies missing", r, want)
				}
				if err != nil {
					return err
				}
				if m.Kind != kindResp {
					continue
				}
				wid := binary.LittleEndian.Uint32(m.Payload)
				rid := binary.LittleEndian.Uint32(m.Payload[4:])
				key := fmt.Sprintf("%d/%d", wid, rid)
				res.replies[key]++
				if rid == uint32(r) && res.replies[key] == 1 {
					want--
				}
			}
		}
		// Drain: any further delivery is a dedupe failure.
		for {
			_, err := env.RecvTimeout(1.0)
			if errors.Is(err, ErrTimeout) {
				break
			}
			if err != nil {
				return err
			}
			res.extra++
		}
		for w := 1; w <= workers; w++ {
			if err := env.Send(LogicalID(w), kindStop, nil); err != nil {
				return err
			}
		}
		res.completed = true
		return nil
	}
}

// echoReplication is the replicas buildEcho places per worker group,
// the paper's evaluation level.
const echoReplication = 2

// buildEcho wires the echo application: returns the result sink.
func buildEcho(t *testing.T, h *harness, workers, rounds int, timeout float64) *managerResult {
	t.Helper()
	res := &managerResult{}
	if err := h.rt.Add(mgrLID, "manager", []int{0}, false, echoManager(h.rt, workers, rounds, timeout, res), "", nil); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= workers; w++ {
		placements := make([]int, echoReplication)
		for k := 0; k < echoReplication; k++ {
			placements[k] = 1 + (w-1+k)%(h.rt.Config().Nodes-1)
		}
		if err := h.rt.Add(LogicalID(w), fmt.Sprintf("worker%d", w), placements, true, workerBody, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func TestEchoExactlyOnceWithReplication(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig(5))
	res := buildEcho(t, h, 3, 4, 50)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("manager did not complete")
	}
	if res.extra != 0 {
		t.Fatalf("dedupe leaked %d duplicate deliveries", res.extra)
	}
	for key, n := range res.replies {
		if n != 1 {
			t.Fatalf("reply %s delivered %d times", key, n)
		}
	}
	if len(res.replies) != 3*4 {
		t.Fatalf("got %d distinct replies, want 12", len(res.replies))
	}
	st := h.rt.Stats()
	if st.Detections != 0 || st.Regenerations != 0 {
		t.Fatalf("spurious failure handling: %+v", st)
	}
}

func TestKillOneReplicaStillCompletes(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig(5))
	res := buildEcho(t, h, 2, 6, 80)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill worker 1 replica 0 mid-run (rounds take ~0.5s+ each).
	h.x.Schedule(1, func() { h.rt.KillReplica(1, 0) })
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed || res.extra != 0 {
		t.Fatalf("completed=%v extra=%d", res.completed, res.extra)
	}
	st := h.rt.Stats()
	if st.Detections < 1 {
		t.Fatalf("failure not detected: %+v", st)
	}
	if st.Regenerations < 1 {
		t.Fatalf("replica not regenerated: %+v", st)
	}
	if got := len(h.rt.physOf(1)); got != 2 {
		t.Fatalf("alive replicas after regeneration = %d", got)
	}
	// Detection latency bounded by FailTimeout + poll slack.
	cfg := h.rt.Config()
	for _, d := range st.DetectionLatency {
		if d > cfg.FailTimeout+cfg.HeartbeatPeriod+cfg.GuardianPoll+0.5 {
			t.Fatalf("detection latency %g too large", d)
		}
	}
}

func TestRegeneratedReplicaIsFunctional(t *testing.T) {
	// Kill replica 0 early; after regeneration completes, kill replica 1.
	// Work can then only complete if the regenerated replica actually
	// serves traffic (view reconfiguration reached the manager).
	h := newHarness(t, 6, DefaultConfig(6))
	res := buildEcho(t, h, 1, 20, 100)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.x.Schedule(1, func() { h.rt.KillReplica(1, 0) })
	h.x.Schedule(8, func() { h.rt.KillReplica(1, 1) })
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("work did not complete through the regenerated replica")
	}
	st := h.rt.Stats()
	if st.Regenerations < 2 {
		t.Fatalf("regenerations = %d, want >= 2", st.Regenerations)
	}
	if res.extra != 0 {
		t.Fatalf("dedupe leaked %d", res.extra)
	}
}

func TestNoRegenerationBaseline(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Regenerate = false
	h := newHarness(t, 5, cfg)
	res := buildEcho(t, h, 2, 6, 80)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.x.Schedule(3, func() { h.rt.KillReplica(1, 0) })
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("graceful degradation failed: work did not complete on survivor")
	}
	st := h.rt.Stats()
	if st.Detections < 1 {
		t.Fatal("failure not detected")
	}
	if st.Regenerations != 0 {
		t.Fatalf("regenerated despite Regenerate=false: %+v", st)
	}
	if got := len(h.rt.physOf(1)); got != 1 {
		t.Fatalf("alive replicas = %d, want 1 (degraded)", got)
	}
}

func TestGracefulExitNoRegeneration(t *testing.T) {
	// Workers stopping normally must not trigger the failure path even
	// though their heartbeats cease. Give the run time for several
	// guardian polls after the stop by having the manager linger.
	h := newHarness(t, 4, DefaultConfig(4))
	var done bool
	if err := h.rt.Add(mgrLID, "manager", []int{0}, false, func(env REnv) error {
		defer h.rt.Shutdown()
		if err := env.Send(1, kindStop, nil); err != nil {
			return err
		}
		// Linger several failure timeouts.
		if _, err := env.RecvTimeout(5); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("unexpected recv: %v", err)
		}
		done = true
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Add(1, "worker", []int{1, 2}, true, workerBody, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("manager did not finish")
	}
	st := h.rt.Stats()
	if st.Detections != 0 || st.Regenerations != 0 {
		t.Fatalf("graceful exit treated as failure: %+v", st)
	}
}

// groupLossRun runs one request, kills both replicas of the worker group
// while it idles (replica 1 gap seconds after replica 0), then checks that
// a request sent after the regeneration is answered. In-flight requests at
// loss time are the application's to retry; here the kill happens while
// idle.
func groupLossRun(t *testing.T, gap float64) {
	t.Helper()
	h := newHarness(t, 6, DefaultConfig(6))
	isResp := func(m *RMessage) bool { return m.Kind == kindResp }
	var completed bool
	if err := h.rt.Add(mgrLID, "manager", []int{0}, false, func(env REnv) error {
		defer h.rt.Shutdown()
		if err := env.Send(1, kindReq, make([]byte, 4)); err != nil {
			return err
		}
		if _, err := env.RecvMatchTimeout(isResp, 50); err != nil {
			return fmt.Errorf("round 1: %w", err)
		}
		// Wait out the massacre and the regeneration (failure at t≈8).
		if _, err := env.RecvTimeout(10); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("linger: %v", err)
		}
		// Round 2 against the regenerated group. Its fresh sequence numbers
		// are at or below round 1's, so only an epoch bump lets it through.
		if err := env.Send(1, kindReq, make([]byte, 4)); err != nil {
			return err
		}
		if _, err := env.RecvMatchTimeout(isResp, 50); err != nil {
			return fmt.Errorf("round 2: %w", err)
		}
		if err := env.Send(1, kindStop, nil); err != nil {
			return err
		}
		completed = true
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Add(1, "worker", []int{1, 2}, true, workerBody, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.x.Schedule(8, func() { h.rt.KillReplica(1, 0) })
	h.x.Schedule(8+gap, func() { h.rt.KillReplica(1, 1) })
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("group did not recover from total loss")
	}
	if st := h.rt.Stats(); st.Regenerations < 2 {
		t.Fatalf("regenerations = %d", st.Regenerations)
	}
	// Both replicas serve again: none is left waiting for a snapshot.
	for slot, m := range h.rt.byLID[1].members {
		if !m.holdsState() {
			t.Fatalf("replica %d holds no state after recovery", slot)
		}
	}
}

func TestWholeGroupLossWithRegeneration(t *testing.T) { groupLossRun(t, 0) }

// TestStaggeredGroupLossBumpsEpoch loses the group across two guardian
// scans: replica 0 is regenerated while replica 1 is dead but not yet
// expired, so the newcomer waits for a snapshot nobody will send. When
// replica 1 expires, that newcomer holds no state and must not count as a
// survivor: the group restarts under a new epoch.
func TestStaggeredGroupLossBumpsEpoch(t *testing.T) {
	groupLossRun(t, DefaultConfig(6).FailTimeout/2)
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		h := newHarness(t, 5, DefaultConfig(5))
		buildEcho(t, h, 3, 4, 50)
		if err := h.rt.Start(); err != nil {
			t.Fatal(err)
		}
		h.x.Schedule(3, func() { h.rt.KillReplica(1, 0) })
		if err := h.rt.Run(); err != nil {
			t.Fatal(err)
		}
		return h.sys.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("resilient run not deterministic: %g vs %g", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	x, ns := scplib.NewCluster(2, 1e8)
	sys := scplib.NewSimSystem(x, x.NewZeroNet(), ns, scplib.MsgCost{})
	if _, err := New(sys, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Nodes=0 accepted: %v", err)
	}
	rt, err := New(sys, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	body := func(env REnv) error { return nil }
	if err := rt.Add(1, "g", nil, true, body, "", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty placements accepted: %v", err)
	}
	if err := rt.Add(1, "g", []int{5}, true, body, "", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("out-of-range node accepted: %v", err)
	}
	if err := rt.Add(1, "g", []int{0}, true, nil, "", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil body accepted: %v", err)
	}
	if err := rt.Add(1, "g", []int{0}, true, body, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, "g2", []int{0}, true, body, "", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate lid accepted: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); !errors.Is(err, ErrStarted) {
		t.Fatalf("double Start: %v", err)
	}
	if err := rt.Add(2, "late", []int{0}, true, body, "", nil); !errors.Is(err, ErrStarted) {
		t.Fatalf("Add after Start: %v", err)
	}
	rt.Shutdown()
	rt.Shutdown() // idempotent
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKillReplicaEdgeCases(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig(3))
	if h.rt.KillReplica(9, 0) {
		t.Fatal("kill of unknown group succeeded")
	}
	if err := h.rt.Add(mgrLID, "m", []int{0}, false, func(env REnv) error {
		h.rt.Shutdown()
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if h.rt.KillReplica(mgrLID, 5) {
		t.Fatal("kill of bad slot succeeded")
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.rt.physOf(9)) != 0 {
		t.Fatal("physOf for unknown group")
	}
}

func TestAppKindInControlRangeRejected(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig(3))
	var sendErr error
	if err := h.rt.Add(mgrLID, "m", []int{0}, false, func(env REnv) error {
		sendErr = env.Send(mgrLID, CtrlBase+1, nil)
		h.rt.Shutdown()
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrBadConfig) {
		t.Fatalf("control-range kind allowed: %v", sendErr)
	}
}

func TestRealRuntimeSmoke(t *testing.T) {
	// The same application on goroutines and wall-clock time: one kill,
	// regeneration, completion. Timing assertions are deliberately loose.
	sys := scplib.NewRealSystem()
	cfg := Config{
		Nodes:           4,
		HeartbeatPeriod: 0.01,
		FailTimeout:     0.08,
		Regenerate:      true,
	}
	rt, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &managerResult{}
	if err := rt.Add(mgrLID, "manager", []int{0}, false, echoManager(rt, 2, 5, 5, res), "", nil); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 2; w++ {
		if err := rt.Add(LogicalID(w), fmt.Sprintf("worker%d", w), []int{1, 2}, true, workerBody, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Kill a replica shortly after startup, from outside.
		for len(rt.physOf(1)) < 2 {
		}
		rt.KillReplica(1, 0)
	}()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("real-runtime run did not complete")
	}
	if res.extra != 0 {
		t.Fatalf("dedupe leaked %d deliveries", res.extra)
	}
}

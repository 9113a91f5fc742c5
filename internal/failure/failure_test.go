package failure

import (
	"errors"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/simnet"
	"resilientfusion/internal/telemetry"
)

// simHarness is a small simulated cluster with one replicated worker
// group (lid 1) whose replicas record the virtual time at which they are
// killed.
type simHarness struct {
	x   *simnet.Exec
	ns  []*simnet.Node
	sys *scplib.SimSystem
	rt  *resilient.Runtime

	mu     sync.Mutex
	killed []float64 // virtual kill times observed by replicas
}

const workerLID resilient.LogicalID = 1

func newSimHarness(t *testing.T, regenerate bool) *simHarness {
	t.Helper()
	x, ns := scplib.NewCluster(3, 1e8)
	x.Horizon = 1000
	sys := scplib.NewSimSystem(x, x.NewBus(0, 0), ns, scplib.DefaultMsgCost())
	rt, err := resilient.New(sys, resilient.Config{
		Nodes:           3,
		HeartbeatPeriod: 0.5,
		FailTimeout:     2,
		Regenerate:      regenerate,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &simHarness{x: x, ns: ns, sys: sys, rt: rt}
	body := func(env resilient.REnv) error {
		for {
			_, err := env.RecvTimeout(0.25)
			switch {
			case err == nil || errors.Is(err, resilient.ErrTimeout):
				continue
			case errors.Is(err, resilient.ErrKilled):
				h.mu.Lock()
				h.killed = append(h.killed, env.Now())
				h.mu.Unlock()
				return err
			default:
				return err
			}
		}
	}
	if err := rt.Add(workerLID, "worker", []int{1, 2}, true, body, "", nil); err != nil {
		t.Fatal(err)
	}
	return h
}

// run starts the runtime, arms the plan, and drives the simulation until
// stopAt, when everything is shut down.
func (h *simHarness) run(t *testing.T, p Plan, stopAt float64) {
	t.Helper()
	if err := p.Arm(h.x, h.rt, h.ns); err != nil {
		t.Fatal(err)
	}
	h.x.Schedule(stopAt, h.rt.Shutdown)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sys.Run(); err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

func TestArmRejectsBadNode(t *testing.T) {
	h := newSimHarness(t, false)
	p := Plan{Events: []Event{CrashNode(1, 99)}}
	if err := p.Arm(h.x, h.rt, h.ns); err == nil {
		t.Fatal("bad node accepted")
	}
	// Kill-only plans need no node table at all.
	p = Plan{Events: []Event{KillReplica(1, workerLID, 0)}}
	if err := p.Arm(h.x, h.rt, nil); err != nil {
		t.Fatalf("kill-only plan with nil nodes: %v", err)
	}
}

// TestKillTriggerTiming checks that a replica kill fires at its scheduled
// virtual time, and that the guardian's failure detector notices within
// its timeout.
func TestKillTriggerTiming(t *testing.T) {
	h := newSimHarness(t, false)
	const at = 5.0
	h.run(t, Plan{Events: []Event{KillReplica(at, workerLID, 0)}}, 20)

	h.mu.Lock()
	defer h.mu.Unlock()
	// Two replicas die: one from the plan at t=5, one at shutdown t=20.
	if len(h.killed) != 2 {
		t.Fatalf("saw %d replica deaths, want 2 (injection + shutdown): %v", len(h.killed), h.killed)
	}
	if h.killed[0] < at || h.killed[0] > at+0.5 {
		t.Errorf("injected kill observed at t=%.3f, scheduled at t=%.1f", h.killed[0], at)
	}
	st := h.rt.Stats()
	if st.Detections != 1 {
		t.Errorf("detector found %d failures, want 1", st.Detections)
	}
	if len(st.DetectionLatency) != 1 {
		t.Fatalf("detection latencies: %v", st.DetectionLatency)
	}
	// Latency is measured from the last heartbeat seen; it must be
	// within the configured FailTimeout plus one heartbeat of slack.
	if l := st.DetectionLatency[0]; l <= 0 || l > 2.5+0.5 {
		t.Errorf("detection latency %.3fs outside (0, FailTimeout+slack]", l)
	}
	if st.Regenerations != 0 {
		t.Errorf("regeneration disabled but %d regenerations", st.Regenerations)
	}
}

// TestKillTriggersRegeneration checks the plan's interaction with the
// resilient runtime end to end: injected kill → detection → replacement
// replica spawned.
func TestKillTriggersRegeneration(t *testing.T) {
	h := newSimHarness(t, true)
	h.run(t, Plan{Events: []Event{KillReplica(3, workerLID, 1)}}, 30)

	st := h.rt.Stats()
	if st.Detections < 1 {
		t.Fatalf("no detection after injected kill: %+v", st)
	}
	if st.Regenerations < 1 {
		t.Fatalf("no regeneration after detection: %+v", st)
	}
	if len(st.RegenerationLatency) != st.Regenerations {
		t.Fatalf("latency per regeneration: %+v", st)
	}
	for _, l := range st.RegenerationLatency {
		if l <= 0 || l > 10 {
			t.Errorf("implausible regeneration latency %.3fs", l)
		}
	}
}

// TestCrashNodeKillsResidentReplica checks whole-node crashes: the
// replica placed on the failed node dies and is detected.
func TestCrashNodeKillsResidentReplica(t *testing.T) {
	h := newSimHarness(t, false)
	tr := telemetry.NewTraceRecorder(0)
	h.rt.SetTrace(tr)
	h.run(t, Plan{Events: []Event{CrashNode(4, 2)}}, 20)

	st := h.rt.Stats()
	if st.Detections != 1 {
		t.Errorf("node crash detections = %d, want 1", st.Detections)
	}
	// The guardian's view: the worker's two replicas (nodes 1 and 2)
	// minus the slots it declared failed; without regeneration none
	// come back. Only slot 1, the replica on node 2, may be declared.
	spans, _ := tr.Snapshot()
	n := 2
	for _, s := range spans {
		if s.Name == "detection" && s.Note == "worker" {
			n--
			if s.Index != 1 {
				t.Errorf("detected worker slot %d, want 1 (node 2)", s.Index)
			}
		}
	}
	if n != 1 {
		t.Errorf("alive replicas after node crash = %d, want 1", n)
	}
}

// TestArmReal schedules a kill on the wall-clock runtime and rejects
// node crashes, which only exist on the simulated cluster.
func TestArmReal(t *testing.T) {
	sys := scplib.NewRealSystem()
	rt, err := resilient.New(sys, resilient.Config{
		Nodes:           3,
		HeartbeatPeriod: 0.02,
		FailTimeout:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	killedAt := -1.0
	body := func(env resilient.REnv) error {
		for {
			_, err := env.RecvTimeout(0.01)
			switch {
			case err == nil || errors.Is(err, resilient.ErrTimeout):
				continue
			case errors.Is(err, resilient.ErrKilled):
				mu.Lock()
				if killedAt < 0 {
					killedAt = env.Now()
				}
				mu.Unlock()
				return err
			default:
				return err
			}
		}
	}
	if err := rt.Add(workerLID, "worker", []int{1, 2}, true, body, "", nil); err != nil {
		t.Fatal(err)
	}

	if err := (Plan{Events: []Event{CrashNode(0.01, 1)}}).ArmReal(rt); err == nil ||
		!strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("node crash on real runtime err = %v", err)
	}

	if err := (Plan{Events: []Event{KillReplica(0.05, workerLID, 0)}}).ArmReal(rt); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(400*time.Millisecond, rt.Shutdown)
	if err := sys.Run(); err != nil {
		t.Fatalf("real run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if killedAt < 0.04 {
		t.Errorf("injected kill observed at %.3fs, armed for 0.05s", killedAt)
	}
}

// TestKillProcessReal SIGKILLs a real child process on a wall-clock
// timer — the primitive the cluster chaos test uses on fusionworkerd —
// and checks that simulated plans refuse process events.
func TestKillProcessReal(t *testing.T) {
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start sleep: %v", err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	h := newSimHarness(t, false)
	p := Plan{Events: []Event{KillProcess(0.05, cmd.Process)}}
	if err := p.Arm(h.x, h.rt, h.ns); err == nil ||
		!strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("process kill on simulated runtime err = %v", err)
	}
	if s := p.Events[0].String(); !strings.Contains(s, "kill -9") {
		t.Fatalf("event string %q", s)
	}

	if err := p.ArmReal(nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("process exit: %v", err)
		}
		if s := exitErr.String(); !strings.Contains(s, "killed") {
			t.Fatalf("process ended with %q, want SIGKILL", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("armed process kill never fired")
	}
}

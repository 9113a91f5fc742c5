package scplib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testWorker dials a coordinator with a registry and runs its pump on a
// goroutine; cleanup shuts it down.
func testWorker(t *testing.T, addr string, reg *BodyRegistry) *ClusterWorker {
	t.Helper()
	w, err := DialCluster(addr, 2*time.Second, reg)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	t.Cleanup(w.Shutdown)
	return w
}

// echoRegistry registers an "echo" body: replies to every request with
// the same payload on kind+1, exits on kind 99.
func echoRegistry() *BodyRegistry {
	reg := NewBodyRegistry()
	reg.Register("echo", func(args []byte) (Body, error) {
		return func(env Env) error {
			for {
				m, err := env.Recv()
				if err != nil {
					return err
				}
				if m.Kind == 99 {
					return nil
				}
				if err := env.Send(m.From, m.Kind+1, m.Payload); err != nil {
					return err
				}
			}
		}, nil
	})
	return reg
}

func TestClusterRemoteSpawnAndEcho(t *testing.T) {
	sys, err := NewClusterSystem("", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	testWorker(t, sys.Addr(), echoRegistry())

	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("workers never connected: %d live", sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Spawn one echo thread on each worker node.
	for n := 1; n <= 2; n++ {
		if err := sys.Spawn(ThreadSpec{
			ID: ThreadID(10 + n), Name: "echo", Node: n,
			Remote: &RemoteBody{Kind: "echo"},
		}); err != nil {
			t.Fatalf("remote spawn node %d: %v", n, err)
		}
	}

	// A local driver thread round-trips through both remote echoes and
	// checks per-sender FIFO order of the replies from each.
	done := make(chan error, 1)
	err = sys.Spawn(ThreadSpec{ID: 1, Name: "driver", Body: func(env Env) error {
		const rounds = 50
		for i := 0; i < rounds; i++ {
			payload := []byte{byte(i)}
			if err := env.Send(11, 7, payload); err != nil {
				return err
			}
			if err := env.Send(12, 7, payload); err != nil {
				return err
			}
		}
		got := map[ThreadID]int{}
		for i := 0; i < 2*rounds; i++ {
			m, err := env.RecvTimeout(5)
			if err != nil {
				return err
			}
			if m.Kind != 8 {
				return errors.New("wrong reply kind")
			}
			if int(m.Payload[0]) != got[m.From] {
				return errors.New("per-sender FIFO violated")
			}
			got[m.From]++
		}
		env.Send(11, 99, nil)
		env.Send(12, 99, nil)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- sys.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster run hung")
	}
}

func TestClusterSpawnErrors(t *testing.T) {
	sys, err := NewClusterSystem("", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No RemoteBody on a remote spec.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 1, Name: "x"}); !errors.Is(err, ErrNotRemotable) {
		t.Fatalf("want ErrNotRemotable, got %v", err)
	}
	// Node beyond the slot count.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 7, Name: "x", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("want ErrNoSuchNode, got %v", err)
	}
	// Slot with no connected worker.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 2, Name: "x", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	// Unknown body kind: the worker rejects, the RPC surfaces it.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 1, Name: "x", Remote: &RemoteBody{Kind: "nope"}}); err == nil {
		t.Fatal("unknown remote kind accepted")
	}
	// Duplicate ID across the cluster.
	if err := sys.Spawn(ThreadSpec{ID: 6, Node: 1, Name: "a", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Spawn(ThreadSpec{ID: 6, Node: 1, Name: "b", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrDuplicateThread) {
		t.Fatalf("want ErrDuplicateThread, got %v", err)
	}
}

func TestClusterLivenessHooks(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var mu sync.Mutex
	var downNodes []int
	var exited []ThreadID
	aliveSeen := make(chan struct{}, 1)
	sys.OnNodeDown = func(n int) { mu.Lock(); downNodes = append(downNodes, n); mu.Unlock() }
	sys.OnThreadExit = func(id ThreadID) { mu.Lock(); exited = append(exited, id); mu.Unlock() }
	sys.OnNodeAlive = func(n int) {
		select {
		case aliveSeen <- struct{}{}:
		default:
		}
	}
	sys.Serve()

	w := testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.Node() != 1 {
		t.Fatalf("worker got node %d, want 1", w.Node())
	}

	// Worker pings must surface as OnNodeAlive.
	select {
	case <-aliveSeen:
	case <-time.After(2 * time.Second):
		t.Fatal("no OnNodeAlive from worker pings")
	}

	// A remote thread finishing gracefully must surface as OnThreadExit.
	if err := sys.Spawn(ThreadSpec{ID: 20, Node: 1, Name: "echo", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.Spawn(ThreadSpec{ID: 2, Name: "stopper", Body: func(env Env) error {
		return env.Send(20, 99, nil)
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, id := range exited {
			if id == 20 {
				return true
			}
		}
		return false
	}, "remote thread exit never reported")

	// Severing the connection must surface as OnNodeDown and free the slot.
	w.Shutdown()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(downNodes) > 0 && downNodes[0] == 1
	}, "node down never reported")
	if sys.LiveWorkers() != 0 {
		t.Fatalf("dead worker still counted live: %d", sys.LiveWorkers())
	}

	// The freed slot must be reusable by a reconnecting worker.
	w2 := testWorker(t, sys.Addr(), echoRegistry())
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "reconnect never admitted")
	if w2.Node() != 1 {
		t.Fatalf("reconnect got node %d, want reclaimed slot 1", w2.Node())
	}
}

func TestClusterKillRemoteThread(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var mu sync.Mutex
	exited := map[ThreadID]bool{}
	sys.OnThreadExit = func(id ThreadID) { mu.Lock(); exited[id] = true; mu.Unlock() }
	sys.Serve()

	testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sys.Spawn(ThreadSpec{ID: 30, Node: 1, Name: "victim", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if !sys.Kill(30) {
		t.Fatal("Kill on routed remote thread reported false")
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return exited[30]
	}, "killed remote thread exit never reported")
}

func TestClusterCloseIdempotent(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	sys.Close()
	sys.Close()
}

func TestClusterRejectsBadHello(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	// A peer speaking the wrong protocol version is dropped without a slot.
	c, err := dialRetry(sys.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var frame [7]byte
	binary.LittleEndian.PutUint32(frame[0:], 3)
	frame[4] = cfHello
	binary.LittleEndian.PutUint16(frame[5:], clusterProtoVersion+1)
	if _, err := c.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("coordinator answered a bad hello instead of closing")
	}
	if sys.LiveWorkers() != 0 {
		t.Fatal("bad hello consumed a worker slot")
	}
}

// TestWorkerRunErrorOnSeveredConnection pins the contract the
// fusionworkerd re-dial loop depends on: Run must return a non-nil error
// when the coordinator side severs the connection (the daemon re-dials),
// and nil only after a local Shutdown (the daemon exits).
func TestWorkerRunErrorOnSeveredConnection(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Serve()
	w, err := DialCluster(sys.Addr(), 2*time.Second, echoRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "worker never connected")

	sys.Close() // coordinator goes away: a transport fault from the worker's view
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil after the coordinator severed the connection — the daemon would treat it as orderly shutdown and never re-dial")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after the connection broke")
	}
}

func TestWorkerRunNilOnShutdown(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	w, err := DialCluster(sys.Addr(), 2*time.Second, echoRegistry())
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "worker never connected")

	w.Shutdown()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after local Shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after Shutdown")
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeMsgFrame frames m as a cfMsg, the way route and the worker pump do.
func writeMsgFrame(w *bytes.Buffer, m *Message) error {
	var hdr [frameHeaderBytes]byte
	putMsgHeader(hdr[:], m)
	return writeClusterFrame(w, cfMsg, hdr[:], m.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(from, to int32, kind uint16, seq uint64, payload []byte) bool {
		m := &Message{From: ThreadID(from), To: ThreadID(to), Kind: kind, Seq: seq, Payload: payload}
		var buf bytes.Buffer
		if err := writeMsgFrame(&buf, m); err != nil {
			return false
		}
		ft, body, err := readClusterFrame(&buf)
		if err != nil || ft != cfMsg {
			return false
		}
		got, err := decodeMsgBody(body)
		if err != nil {
			return false
		}
		return got.From == m.From && got.To == m.To && got.Kind == m.Kind &&
			got.Seq == m.Seq && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Length word below the type byte.
	if _, _, err := readClusterFrame(bytes.NewReader([]byte{0, 0, 0, 0, 1, 2, 3})); err == nil {
		t.Fatal("empty frame accepted")
	}
	// Message body shorter than its header.
	if _, err := decodeMsgBody([]byte{1, 2, 3}); err == nil {
		t.Fatal("undersized message accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := writeMsgFrame(&buf, &Message{From: 1, To: 2, Payload: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readClusterFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Empty reader.
	if _, _, err := readClusterFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("EOF not reported")
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// Length word above maxFramePayload: must fail before allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFramePayload+1)
	if _, _, err := readClusterFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Exactly at the cap the guard admits the length (the body read then
	// fails on truncation, not on the guard).
	binary.LittleEndian.PutUint32(hdr[:], maxFramePayload)
	if _, _, err := readClusterFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("truncated maximal frame accepted")
	}
}

func TestDialRetryRecoversWithinWindow(t *testing.T) {
	// Reserve a port, release it, and only start listening after a delay:
	// dialRetry must keep retrying past the initial refusals.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial side will fail the test
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err == nil {
			c.Close()
		}
	}()

	c, err := dialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dialRetry gave up: %v", err)
	}
	c.Close()
}

func TestDialRetryFailsAfterWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing will ever listen here again (probably)

	start := time.Now()
	if _, err := dialRetry(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dialRetry succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dialRetry overshot its window: %v", elapsed)
	}
}

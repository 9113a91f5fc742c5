package scplib

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// BodyRegistry maps RemoteBody kinds to factories so a worker process
// can reconstruct thread bodies shipped to it by a coordinator. The
// registry is populated at daemon startup (core.RegisterWorkerBodies
// and resilient.RegisterWrapperBody) before any spawn arrives.
type BodyRegistry struct {
	mu        sync.Mutex
	factories map[string]func(args []byte) (Body, error)
}

// NewBodyRegistry creates an empty registry.
func NewBodyRegistry() *BodyRegistry {
	return &BodyRegistry{factories: make(map[string]func(args []byte) (Body, error))}
}

// Register installs a factory for kind, replacing any previous one.
func (r *BodyRegistry) Register(kind string, factory func(args []byte) (Body, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[kind] = factory
}

// Build instantiates a body for kind from its serialized arguments.
func (r *BodyRegistry) Build(kind string, args []byte) (Body, error) {
	r.mu.Lock()
	factory := r.factories[kind]
	r.mu.Unlock()
	if factory == nil {
		return nil, fmt.Errorf("scplib: unknown remote body kind %q", kind)
	}
	return factory(args)
}

// ClusterWorker is the fusionworkerd side of the cluster transport: a
// RealSystem whose threads were all spawned by a remote coordinator.
// Every outbound send from a local thread that is not addressed to
// another local thread is framed back to the coordinator, which routes
// it onward — hub-and-spoke, preserving per-sender FIFO end to end
// (one ordered connection per hop, frames forwarded in arrival order).
type ClusterWorker struct {
	sys  *RealSystem
	reg  *BodyRegistry
	node int

	c   net.Conn
	r   *bufio.Reader // handshake and Run share one reader: no frame loss
	wmu sync.Mutex
	w   *bufio.Writer

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// workerPingPeriod paces the liveness pings a worker sends its
// coordinator. Pings run on a dedicated goroutine, so they keep flowing
// while worker threads are deep inside long compute kernels — that is
// what lets the coordinator's failure detector use short timeouts
// without false-positives on busy-but-healthy workers.
const workerPingPeriod = 100 * time.Millisecond

// DialCluster connects to a coordinator, retrying with capped
// exponential backoff for up to window, and completes the
// hello/welcome handshake. The returned worker is idle until Run.
func DialCluster(addr string, window time.Duration, reg *BodyRegistry) (*ClusterWorker, error) {
	c, err := dialRetry(addr, window)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(10 * time.Second)
	}
	w := &ClusterWorker{
		sys:  NewRealSystem(),
		reg:  reg,
		c:    c,
		r:    bufio.NewReaderSize(c, 1<<16),
		w:    bufio.NewWriterSize(c, 1<<16),
		done: make(chan struct{}),
	}

	var hello [2]byte
	binary.LittleEndian.PutUint16(hello[:], clusterProtoVersion)
	if err := w.writeFrame(cfHello, hello[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("scplib: cluster hello: %w", err)
	}
	ftype, body, err := readClusterFrame(w.r)
	if err != nil || ftype != cfWelcome || len(body) < 4 {
		c.Close()
		return nil, fmt.Errorf("scplib: cluster handshake failed")
	}
	node := int(int32(binary.LittleEndian.Uint32(body)))
	if node <= 0 {
		c.Close()
		return nil, fmt.Errorf("scplib: coordinator rejected worker (no free slot)")
	}
	w.node = node

	// Local threads deliver to local siblings directly; everything else
	// goes back up to the coordinator.
	w.sys.sendVia = func(m *Message) error {
		if w.sys.has(m.To) {
			w.sys.deliverLocal(m)
			return nil
		}
		var hdr [frameHeaderBytes]byte
		putMsgHeader(hdr[:], m)
		if err := w.writeFrame(cfMsg, hdr[:], m.Payload); err != nil {
			w.sys.dropped.Add(1)
		}
		return nil
	}
	// Finished threads (graceful return or kill) are reported upstream so
	// the coordinator can drop their routes and inform the failure
	// detector.
	w.sys.onReap = func(id ThreadID) {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		w.writeFrame(cfExit, buf[:])
	}
	w.sys.Start()
	w.startPinger()
	return w, nil
}

// Node returns the slot the coordinator assigned this worker.
func (w *ClusterWorker) Node() int { return w.node }

func (w *ClusterWorker) startPinger() {
	go func() {
		t := time.NewTicker(workerPingPeriod)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				if err := w.writeFrame(cfPing); err != nil {
					return
				}
			}
		}
	}()
}

// Run pumps coordinator frames until the connection breaks or Shutdown
// is called, then stops all local threads and waits them out. A worker
// daemon's main loop is: DialCluster, Run, maybe re-dial.
func (w *ClusterWorker) Run() error {
	var readErr error
	for {
		ftype, body, err := readClusterFrame(w.r)
		if err != nil {
			readErr = err
			break
		}
		switch ftype {
		case cfMsg:
			if m, err := decodeMsgBody(body); err == nil {
				w.sys.deliverLocal(m)
			}
		case cfSpawn:
			id, name, kind, args, err := decodeSpawn(body)
			if err != nil {
				continue
			}
			spawnErr := w.spawn(id, name, kind, args)
			w.writeFrame(cfSpawnResult, encodeSpawnResult(id, spawnErr))
		case cfKill:
			if len(body) >= 4 {
				w.sys.Kill(ThreadID(int32(binary.LittleEndian.Uint32(body))))
			}
		case cfPing:
			// Coordinator liveness probe; the TCP read itself is the signal.
		}
	}

	// Capture whether Shutdown had already been called before we call it
	// ourselves below — Shutdown sets closed, so checking afterwards would
	// classify every transport fault as orderly and the daemon's re-dial
	// loop would never run.
	wasClosed := w.isClosed()
	w.Shutdown()
	w.sys.Wait()
	if wasClosed {
		return nil // orderly shutdown, not a transport fault
	}
	return readErr
}

func (w *ClusterWorker) spawn(id ThreadID, name, kind string, args []byte) error {
	body, err := w.reg.Build(kind, args)
	if err != nil {
		return err
	}
	return w.sys.Spawn(ThreadSpec{ID: id, Name: name, Node: w.node, Body: body})
}

// Shutdown closes the coordinator connection and kills local threads
// (idempotent). Run returns shortly after.
func (w *ClusterWorker) Shutdown() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	close(w.done)
	w.mu.Unlock()
	w.c.Close()
	w.sys.Stop()
}

func (w *ClusterWorker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *ClusterWorker) writeFrame(ftype uint8, body ...[]byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := writeClusterFrame(w.w, ftype, body...); err != nil {
		return err
	}
	return w.w.Flush()
}

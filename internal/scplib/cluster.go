package scplib

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ClusterSystem is a RealSystem that spans processes: it listens for
// fusionworkerd connections, assigns each a worker-node slot (1..slots;
// the coordinator itself is node 0), and routes messages between local
// threads and threads spawned remotely. Specs with Node > 0 are shipped
// to the matching worker as a RemoteBody spawn RPC; specs with Node 0
// run locally. Per-sender FIFO is preserved — each node pair shares one
// ordered TCP connection, and readers forward frames in arrival order —
// which is the delivery property the resilient layer's dedupe and the
// fusion manager's protocol are built on.
//
// Connection-level liveness feeds the failure detector: read errors on a
// worker connection fire OnNodeDown, periodic worker pings (and any
// other inbound frame) fire OnNodeAlive, and reaped remote threads fire
// OnThreadExit. The resilient guardian merges these transport facts with
// application heartbeats, so a kill -9'd worker process is detected at
// connection speed even while surviving replicas are deep in a kernel.
//
// Cluster frame layout (little-endian): length uint32 of the remainder,
// ftype uint8, then a type-specific body. A cfMsg body is the message
// header (from int32, to int32, kind uint16, seq uint64) and its payload.
type ClusterSystem struct {
	*RealSystem

	ln           net.Listener
	spawnTimeout time.Duration

	// Hooks into the resiliency layer; assign them (and LogTo) between
	// NewClusterSystem and Serve — no worker can connect before Serve, so
	// the assignments never race with the transport goroutines that read
	// them. All are invoked from transport goroutines without locks held.
	OnNodeDown   func(node int)
	OnNodeAlive  func(node int)
	OnThreadExit func(id ThreadID)
	// Metrics, when set (same assignment window as the hooks), counts
	// transport events: frames by type, spawn RPC latency, node slot
	// transitions. Nil disables instrumentation.
	Metrics *ClusterMetrics

	mu      sync.Mutex
	closed  bool
	serving bool
	slots   int
	nodes   map[int]*clusterPeer
	owner   map[ThreadID]int // remote thread -> hosting node
	pending map[ThreadID]pendingSpawn
	wg      sync.WaitGroup
}

// pendingSpawn tracks one in-flight spawn RPC and the node it targets,
// so a peer drop fails exactly the spawns aimed at that node.
type pendingSpawn struct {
	ch   chan error
	node int
}

type clusterPeer struct {
	node      int
	c         net.Conn
	m         *ClusterMetrics // shared with the owning system (may be nil)
	wmu       sync.Mutex
	w         *bufio.Writer
	lastAlive time.Time // throttles OnNodeAlive fan-out
}

// Cluster control frame types.
const (
	cfMsg uint8 = iota
	cfHello
	cfWelcome
	cfSpawn
	cfSpawnResult
	cfKill
	cfExit
	cfPing
)

// clusterProtoVersion gates hello exchanges so a stale fusionworkerd
// build fails loudly instead of desynchronizing the frame stream.
const clusterProtoVersion uint16 = 1

// ErrNotRemotable reports a remote spawn of a spec without a RemoteBody.
var ErrNotRemotable = errors.New("scplib: thread spec has no remote body")

// NewClusterSystem binds a listener on addr ("127.0.0.1:0" picks an
// ephemeral port) for up to workerSlots fusionworkerd connections, each
// becoming one cluster node. The system does not accept connections
// until Serve — assign the liveness hooks first.
func NewClusterSystem(addr string, workerSlots int) (*ClusterSystem, error) {
	if workerSlots < 1 {
		return nil, fmt.Errorf("scplib: cluster needs at least 1 worker slot, got %d", workerSlots)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scplib: cluster listen: %w", err)
	}
	s := &ClusterSystem{
		RealSystem:   NewRealSystem(),
		ln:           ln,
		spawnTimeout: 10 * time.Second,
		slots:        workerSlots,
		nodes:        make(map[int]*clusterPeer),
		owner:        make(map[ThreadID]int),
		pending:      make(map[ThreadID]pendingSpawn),
	}
	s.RealSystem.sendVia = s.route
	return s, nil
}

// Serve starts accepting worker connections (idempotent; a no-op after
// Close). Call it once the liveness hooks and logger are assigned:
// transport goroutines read those fields, so assigning them after Serve
// is a data race.
func (s *ClusterSystem) Serve() {
	s.mu.Lock()
	if s.serving || s.closed {
		s.mu.Unlock()
		return
	}
	s.serving = true
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop()
}

// Addr returns the coordinator's listen address.
func (s *ClusterSystem) Addr() string { return s.ln.Addr().String() }

// LiveWorkers returns how many worker nodes are currently connected.
func (s *ClusterSystem) LiveWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// LiveNodes lists the currently connected worker node slots.
func (s *ClusterSystem) LiveNodes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make([]int, 0, len(s.nodes))
	for n := range s.nodes {
		nodes = append(nodes, n)
	}
	return nodes
}

// HasThreadsIn reports whether any thread with an ID in [lo, hi) is still
// routed by the system: a local thread whose body has not returned, or a
// remote one whose exit its worker has not reported yet. Killing a thread
// is asynchronous, so an ID range only becomes reusable once this turns
// false.
func (s *ClusterSystem) HasThreadsIn(lo, hi ThreadID) bool {
	s.mu.Lock()
	for id := range s.owner {
		if lo <= id && id < hi {
			s.mu.Unlock()
			return true
		}
	}
	s.mu.Unlock()
	return s.RealSystem.HasThreadsIn(lo, hi)
}

// Close tears the transport down (idempotent): the listener stops, every
// worker connection is closed, and pending spawn RPCs fail. Local
// threads are the RealSystem's business (Stop/Wait as usual).
func (s *ClusterSystem) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	peers := make([]*clusterPeer, 0, len(s.nodes))
	for _, p := range s.nodes {
		peers = append(peers, p)
	}
	s.mu.Unlock()

	s.ln.Close()
	for _, p := range peers {
		p.c.Close()
	}
	s.wg.Wait()
}

// Spawn runs Node-0 specs locally and ships Node>0 specs to the matching
// worker process as a synchronous spawn RPC. A missing or lost worker
// yields ErrNodeDown, which is exactly the signal the guardian's
// regeneration candidate scan expects.
func (s *ClusterSystem) Spawn(spec ThreadSpec) error {
	if spec.Node <= 0 {
		return s.RealSystem.Spawn(spec)
	}
	if spec.Node > s.slots {
		return fmt.Errorf("%w: node %d of %d", ErrNoSuchNode, spec.Node, s.slots)
	}
	if spec.Remote == nil {
		return fmt.Errorf("%w: %s", ErrNotRemotable, spec.Name)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStopped
	}
	peer := s.nodes[spec.Node]
	if peer == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: node %d", ErrNodeDown, spec.Node)
	}
	if _, dup := s.owner[spec.ID]; dup || s.RealSystem.has(spec.ID) {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d (%s)", ErrDuplicateThread, spec.ID, spec.Name)
	}
	// Register ownership before writing so messages sent the instant the
	// RPC is on the wire already route to the worker (the conn is FIFO:
	// the spawn frame precedes them).
	s.owner[spec.ID] = spec.Node
	ch := make(chan error, 1)
	s.pending[spec.ID] = pendingSpawn{ch: ch, node: spec.Node}
	s.mu.Unlock()

	t0 := time.Now()
	if err := peer.writeFrame(cfSpawn, encodeSpawn(spec)); err != nil {
		s.dropPeer(peer)
		return fmt.Errorf("%w: node %d", ErrNodeDown, spec.Node)
	}
	select {
	case err := <-ch:
		s.Metrics.spawnObserved(time.Since(t0).Seconds())
		if err != nil {
			s.mu.Lock()
			delete(s.owner, spec.ID)
			s.mu.Unlock()
		}
		return err
	case <-time.After(s.spawnTimeout):
		s.Metrics.spawnObserved(time.Since(t0).Seconds())
		s.mu.Lock()
		delete(s.pending, spec.ID)
		delete(s.owner, spec.ID)
		late := s.nodes[spec.Node]
		s.mu.Unlock()
		// The worker may still complete the spawn moments from now; with
		// the routing entries gone it would run orphaned until the job
		// ends. A kill frame queued behind the spawn frame (same FIFO
		// connection) reaps such a late spawn. Against a reconnected peer
		// the kill targets a thread that never existed — harmless.
		if late != nil {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(spec.ID))
			late.writeFrame(cfKill, buf[:])
		}
		return fmt.Errorf("%w: node %d (spawn timeout)", ErrNodeDown, spec.Node)
	}
}

// Kill destroys a local thread directly or asks the hosting worker to
// kill a remote one. The remote form reports true for any thread still
// routed to a live node; the worker-side kill is asynchronous.
func (s *ClusterSystem) Kill(id ThreadID) bool {
	s.mu.Lock()
	node, remote := s.owner[id]
	peer := s.nodes[node]
	s.mu.Unlock()
	if !remote {
		return s.RealSystem.Kill(id)
	}
	if peer == nil {
		return false
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(id))
	if err := peer.writeFrame(cfKill, buf[:]); err != nil {
		s.dropPeer(peer)
		return false
	}
	return true
}

// route is the RealSystem's sendVia: deliver locally unless the
// destination is owned by a worker node, in which case frame it out.
// Transport write failures count as drops (like sends to dead threads)
// and take the broken peer down; they never fail the sender.
func (s *ClusterSystem) route(m *Message) error {
	s.mu.Lock()
	node, remote := s.owner[m.To]
	peer := s.nodes[node]
	s.mu.Unlock()
	if !remote {
		s.RealSystem.deliverLocal(m)
		return nil
	}
	if peer == nil {
		s.RealSystem.dropped.Add(1)
		return nil
	}
	var hdr [frameHeaderBytes]byte
	putMsgHeader(hdr[:], m)
	if err := peer.writeFrame(cfMsg, hdr[:], m.Payload); err != nil {
		s.RealSystem.dropped.Add(1)
		s.dropPeer(peer)
	}
	return nil
}

// acceptLoop admits worker connections.
func (s *ClusterSystem) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveWorker(conn)
		}()
	}
}

// serveWorker performs the hello/welcome handshake, then pumps the
// worker's frames until the connection breaks.
func (s *ClusterSystem) serveWorker(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(10 * time.Second)
	}
	r := bufio.NewReaderSize(conn, 1<<16)
	ftype, body, err := readClusterFrame(r)
	if err != nil || ftype != cfHello || len(body) < 2 ||
		binary.LittleEndian.Uint16(body) != clusterProtoVersion {
		return // not a compatible worker
	}
	s.Metrics.frameReceived(cfHello)

	peer := &clusterPeer{c: conn, m: s.Metrics, w: bufio.NewWriterSize(conn, 1<<16)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for n := 1; n <= s.slots; n++ {
		if s.nodes[n] == nil {
			peer.node = n
			s.nodes[n] = peer
			break
		}
	}
	s.mu.Unlock()

	var welcome [4]byte
	binary.LittleEndian.PutUint32(welcome[:], uint32(int32(peer.node)))
	if err := peer.writeFrame(cfWelcome, welcome[:]); err != nil || peer.node == 0 {
		// No free slot (node 0 signals rejection) or a broken pipe.
		s.dropPeer(peer)
		return
	}
	s.logf("cluster: worker connected as node %d (%s)", peer.node, conn.RemoteAddr())
	s.Metrics.nodeUp()

	for {
		ftype, body, err := readClusterFrame(r)
		if err != nil {
			s.logf("cluster: node %d read: %v", peer.node, err)
			s.dropPeer(peer)
			return
		}
		s.Metrics.frameReceived(ftype)
		s.touchAlive(peer)
		switch ftype {
		case cfMsg:
			m, err := decodeMsgBody(body)
			if err != nil {
				continue
			}
			// Worker-to-worker traffic relays through the coordinator.
			s.route(m)
		case cfSpawnResult:
			id, serr := decodeSpawnResult(body)
			s.mu.Lock()
			p, ok := s.pending[id]
			delete(s.pending, id)
			s.mu.Unlock()
			if ok {
				p.ch <- serr
			}
		case cfExit:
			if len(body) < 4 {
				continue
			}
			id := ThreadID(int32(binary.LittleEndian.Uint32(body)))
			s.mu.Lock()
			delete(s.owner, id)
			hook := s.OnThreadExit
			s.mu.Unlock()
			if hook != nil {
				hook(id)
			}
		case cfPing:
			// Liveness only; touchAlive above did the work.
		}
	}
}

// touchAlive fires OnNodeAlive at most every 100ms per peer.
func (s *ClusterSystem) touchAlive(peer *clusterPeer) {
	s.mu.Lock()
	hook := s.OnNodeAlive
	now := time.Now()
	due := hook != nil && now.Sub(peer.lastAlive) >= 100*time.Millisecond
	if due {
		peer.lastAlive = now
	}
	s.mu.Unlock()
	if due {
		hook(peer.node)
	}
}

// dropPeer retires a broken or rejected worker connection: its slot
// frees for a reconnect, its threads leave the routing table, pending
// spawns against it fail, and OnNodeDown fires.
func (s *ClusterSystem) dropPeer(peer *clusterPeer) {
	s.mu.Lock()
	if peer.node == 0 || s.nodes[peer.node] != peer {
		s.mu.Unlock()
		peer.c.Close()
		return
	}
	delete(s.nodes, peer.node)
	for id, n := range s.owner {
		if n == peer.node {
			delete(s.owner, id)
		}
	}
	var failed []chan error
	for id, p := range s.pending {
		if p.node == peer.node {
			delete(s.pending, id)
			failed = append(failed, p.ch)
		}
	}
	closed := s.closed
	hook := s.OnNodeDown
	s.mu.Unlock()

	peer.c.Close()
	s.Metrics.nodeDown()
	for _, ch := range failed {
		ch <- fmt.Errorf("%w: node %d", ErrNodeDown, peer.node)
	}
	if hook != nil && !closed {
		hook(peer.node)
	}
	s.logf("cluster: node %d down", peer.node)
}

func (s *ClusterSystem) logf(format string, args ...any) {
	if s.RealSystem.LogTo != nil {
		s.RealSystem.LogTo(format, args...)
	}
}

func (p *clusterPeer) writeFrame(ftype uint8, body ...[]byte) error {
	p.m.frameSent(ftype)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if err := writeClusterFrame(p.w, ftype, body...); err != nil {
		return err
	}
	return p.w.Flush()
}

var _ System = (*ClusterSystem)(nil)

// dialRetry dials addr, retrying transient failures with capped
// exponential backoff until the window elapses. The first attempt is
// always made; the last error is returned once the window is spent.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	delay := 25 * time.Millisecond
	const maxDelay = time.Second
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		if remain := time.Until(deadline); remain <= 0 {
			return nil, fmt.Errorf("scplib: dial %s: %w", addr, err)
		} else if delay > remain {
			delay = remain
		}
		time.Sleep(delay)
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// --- cluster frame codecs ---

// frameHeaderBytes is the fixed cfMsg body prefix: from, to, kind, seq.
const frameHeaderBytes = 4 + 4 + 2 + 8

// maxFramePayload guards against corrupt length words.
const maxFramePayload = 1 << 30

// putMsgHeader fills the fixed cfMsg body prefix (from, to, kind, seq).
func putMsgHeader(hdr []byte, m *Message) {
	_ = hdr[:frameHeaderBytes]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.From))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.To))
	binary.LittleEndian.PutUint16(hdr[8:], m.Kind)
	binary.LittleEndian.PutUint64(hdr[10:], m.Seq)
}

// writeClusterFrame emits length (type byte + body), type, body. The body
// may come in parts (a message's header and its payload), written one
// after the other exactly as given.
func writeClusterFrame(w io.Writer, ftype uint8, body ...[]byte) error {
	n := 1
	for _, part := range body {
		n += len(part)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	hdr[4] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, part := range body {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// readClusterFrame decodes one frame; a corrupt length word fails before
// anything is allocated for the body.
func readClusterFrame(r io.Reader) (uint8, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 1 || n > maxFramePayload {
		return 0, nil, fmt.Errorf("scplib: bad cluster frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// decodeMsgBody parses a cfMsg body. The payload is a view into b, the
// frame's own buffer.
func decodeMsgBody(b []byte) (*Message, error) {
	if len(b) < frameHeaderBytes {
		return nil, fmt.Errorf("scplib: short cluster message body (%d bytes)", len(b))
	}
	m := &Message{
		From: ThreadID(int32(binary.LittleEndian.Uint32(b[0:]))),
		To:   ThreadID(int32(binary.LittleEndian.Uint32(b[4:]))),
		Kind: binary.LittleEndian.Uint16(b[8:]),
		Seq:  binary.LittleEndian.Uint64(b[10:]),
	}
	if len(b) > frameHeaderBytes {
		m.Payload = b[frameHeaderBytes:]
	}
	return m, nil
}

// spawn body: thread int32, nameLen uint16, name, kindLen uint16, kind,
// args (remainder).
func encodeSpawn(spec ThreadSpec) []byte {
	name, kind := []byte(spec.Name), []byte(spec.Remote.Kind)
	buf := make([]byte, 0, 8+len(name)+len(kind)+len(spec.Remote.Args))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(spec.ID))
	buf = append(buf, u32[:]...)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
	buf = append(buf, u16[:]...)
	buf = append(buf, name...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(kind)))
	buf = append(buf, u16[:]...)
	buf = append(buf, kind...)
	return append(buf, spec.Remote.Args...)
}

func decodeSpawn(b []byte) (id ThreadID, name, kind string, args []byte, err error) {
	bad := fmt.Errorf("scplib: malformed spawn frame")
	if len(b) < 6 {
		return 0, "", "", nil, bad
	}
	id = ThreadID(int32(binary.LittleEndian.Uint32(b)))
	off := 4
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if off+n+2 > len(b) {
		return 0, "", "", nil, bad
	}
	name = string(b[off : off+n])
	off += n
	k := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if off+k > len(b) {
		return 0, "", "", nil, bad
	}
	kind = string(b[off : off+k])
	off += k
	return id, name, kind, append([]byte(nil), b[off:]...), nil
}

// spawn result body: thread int32, ok uint8, error text (remainder).
func encodeSpawnResult(id ThreadID, err error) []byte {
	var msg []byte
	ok := byte(1)
	if err != nil {
		ok = 0
		msg = []byte(err.Error())
	}
	buf := make([]byte, 5+len(msg))
	binary.LittleEndian.PutUint32(buf, uint32(id))
	buf[4] = ok
	copy(buf[5:], msg)
	return buf
}

func decodeSpawnResult(b []byte) (ThreadID, error) {
	if len(b) < 5 {
		return 0, errors.New("scplib: malformed spawn result")
	}
	id := ThreadID(int32(binary.LittleEndian.Uint32(b)))
	if b[4] == 1 {
		return id, nil
	}
	return id, fmt.Errorf("scplib: remote spawn failed: %s", b[5:])
}

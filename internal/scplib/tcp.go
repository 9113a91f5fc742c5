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

// TCPSystem is a RealSystem whose messages travel over actual TCP
// connections (loopback by default) instead of in-process channels:
// every sender thread holds one connection to the system's listener —
// preserving per-sender FIFO — and a dispatcher routes decoded frames to
// destination mailboxes. It demonstrates the same wire behaviour a
// multi-machine deployment of the paper's system would have, with the
// frame format below standing in for SCPlib's transport.
//
// Frame layout (little-endian):
//
//	length  uint32  (of the remainder)
//	from    int32
//	to      int32
//	kind    uint16
//	seq     uint64
//	payload [length-18]byte
type TCPSystem struct {
	*RealSystem

	listener net.Listener
	mu       sync.Mutex
	conns    map[ThreadID]*tcpConn
	closed   bool
	wg       sync.WaitGroup
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
}

// frameHeaderBytes is the fixed frame body prefix after the length word.
const frameHeaderBytes = 4 + 4 + 2 + 8

// maxFramePayload guards against corrupt length words.
const maxFramePayload = 1 << 30

// NewTCPSystem creates a system whose transport is a real TCP listener
// on addr ("127.0.0.1:0" picks an ephemeral loopback port).
func NewTCPSystem(addr string) (*TCPSystem, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scplib: tcp listen: %w", err)
	}
	s := &TCPSystem{
		RealSystem: NewRealSystem(),
		listener:   ln,
		conns:      make(map[ThreadID]*tcpConn),
	}
	s.RealSystem.sendVia = s.sendTCP
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *TCPSystem) Addr() string { return s.listener.Addr().String() }

// Run executes the threads, then tears the transport down.
func (s *TCPSystem) Run() error {
	err := s.RealSystem.Run()
	s.Close()
	return err
}

// Close shuts the transport down (idempotent).
func (s *TCPSystem) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := s.conns
	s.conns = map[ThreadID]*tcpConn{}
	s.mu.Unlock()

	s.listener.Close()
	for _, tc := range conns {
		tc.c.Close()
	}
	s.wg.Wait()
}

// acceptLoop turns incoming connections into dispatch pumps.
func (s *TCPSystem) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.dispatch(conn)
		}()
	}
}

// dispatch reads frames from one connection and routes them to local
// mailboxes.
func (s *TCPSystem) dispatch(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 1<<16)
	for {
		m, err := readFrame(r)
		if err != nil {
			return // EOF or broken peer: the sender re-dials if alive
		}
		s.RealSystem.deliverLocal(m)
	}
}

// senderConn returns (dialing if needed) the per-thread connection.
func (s *TCPSystem) senderConn(from ThreadID) (*tcpConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStopped
	}
	if tc, ok := s.conns[from]; ok {
		return tc, nil
	}
	c, err := dialRetry(s.listener.Addr().String(), senderDialWindow)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: c, w: bufio.NewWriterSize(c, 1<<16)}
	s.conns[from] = tc
	return tc, nil
}

// senderDialWindow bounds a sender thread's connect retries: transient
// refusals (listener backlog pressure under thread fan-out) are retried,
// a dead listener fails the send within this window.
const senderDialWindow = 2 * time.Second

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

// sendTCP implements the RealSystem's pluggable transport.
func (s *TCPSystem) sendTCP(m *Message) error {
	tc, err := s.senderConn(m.From)
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return nil // shutting down: treated as a drop
		}
		return err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := writeFrame(tc.w, m); err != nil {
		return err
	}
	return tc.w.Flush()
}

// putMsgHeader fills the fixed frame body prefix (from, to, kind, seq).
func putMsgHeader(hdr []byte, m *Message) {
	_ = hdr[:frameHeaderBytes]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.From))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.To))
	binary.LittleEndian.PutUint16(hdr[8:], m.Kind)
	binary.LittleEndian.PutUint64(hdr[10:], m.Seq)
}

// writeFrame encodes one message: the header, then the payload as the
// sender handed it over — the two are never joined into a third buffer.
func writeFrame(w io.Writer, m *Message) error {
	var hdr [4 + frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(frameHeaderBytes+len(m.Payload)))
	putMsgHeader(hdr[4:], m)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// readFrame decodes one message; its payload is a view into the frame's
// own buffer.
func readFrame(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameHeaderBytes || n > maxFramePayload {
		return nil, fmt.Errorf("scplib: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	m := &Message{
		From: ThreadID(int32(binary.LittleEndian.Uint32(body[0:]))),
		To:   ThreadID(int32(binary.LittleEndian.Uint32(body[4:]))),
		Kind: binary.LittleEndian.Uint16(body[8:]),
		Seq:  binary.LittleEndian.Uint64(body[10:]),
	}
	if n > frameHeaderBytes {
		m.Payload = body[frameHeaderBytes:]
	}
	return m, nil
}

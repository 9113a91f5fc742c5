package scplib

import (
	"errors"
	"fmt"

	"resilientfusion/internal/simnet"
)

// MsgCost models the CPU cost of protocol processing per message at each
// endpoint: marshal/copy/checksum work that the paper's measurements
// attribute to "the more complex communication protocols".
type MsgCost struct {
	// FixedFlops is charged per message (system-call + protocol stack).
	FixedFlops float64
	// FlopsPerByte is charged per payload+header byte (copy/checksum).
	FlopsPerByte float64
}

// DefaultMsgCost reflects 1999-era TCP/IP stacks on 300 MHz workstations:
// ~50 µs fixed per message plus ~1 flop-equivalent per byte touched.
func DefaultMsgCost() MsgCost {
	return MsgCost{FixedFlops: 15000, FlopsPerByte: 1}
}

// SimSystem runs threads as simnet processes on a virtual cluster. All
// time is virtual: Compute charges the thread's node under processor
// sharing, Send charges protocol cost and transfers bytes over the
// network model. Deterministic given deterministic bodies.
type SimSystem struct {
	exec    *simnet.Exec
	network simnet.Network
	nodes   []*simnet.Node
	cost    MsgCost

	threads map[ThreadID]*simThread
	errs    []error

	dropped   int64
	bytesSent int64

	// LogTo receives diagnostics from thread bodies; nil silences them.
	LogTo func(format string, args ...any)
}

type simThread struct {
	sys   *SimSystem
	id    ThreadID
	name  string
	node  *simnet.Node
	proc  *simnet.Proc
	mbox  *simnet.Mailbox[*Message]
	stash stash
	seq   uint64
	body  Body
}

// NewSimSystem builds a system over an executor, a network model, and a
// set of nodes. A zero MsgCost disables protocol CPU accounting.
func NewSimSystem(exec *simnet.Exec, network simnet.Network, nodes []*simnet.Node, cost MsgCost) *SimSystem {
	return &SimSystem{
		exec:    exec,
		network: network,
		nodes:   nodes,
		cost:    cost,
		threads: make(map[ThreadID]*simThread),
	}
}

// NewCluster is a convenience constructor: n identical workstations at
// the paper's 300 MFLOPS on a fresh executor.
func NewCluster(n int, rate float64) (*simnet.Exec, []*simnet.Node) {
	if rate == 0 {
		rate = simnet.WorkstationRate
	}
	x := simnet.NewExec()
	nodes := make([]*simnet.Node, n)
	for i := range nodes {
		nodes[i] = x.NewNode(i, fmt.Sprintf("node%d", i), rate)
	}
	return x, nodes
}

// Spawn adds a thread on its placement node. Spawning while the
// simulation runs (from inside a thread body) takes effect immediately at
// the current virtual time — this is how regeneration creates replacement
// replicas.
func (s *SimSystem) Spawn(spec ThreadSpec) error {
	if spec.Body == nil {
		return errors.New("scplib: nil thread body")
	}
	if _, ok := s.threads[spec.ID]; ok {
		return fmt.Errorf("%w: %d (%s)", ErrDuplicateThread, spec.ID, spec.Name)
	}
	if spec.Node < 0 || spec.Node >= len(s.nodes) {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, spec.Node)
	}
	node := s.nodes[spec.Node]
	if node.Failed() {
		return fmt.Errorf("%w: node %d", ErrNodeDown, spec.Node)
	}
	t := &simThread{
		sys:  s,
		id:   spec.ID,
		name: spec.Name,
		node: node,
		mbox: simnet.NewMailbox[*Message](s.exec),
		body: spec.Body,
	}
	s.threads[spec.ID] = t
	t.proc = s.exec.SpawnNow(spec.Name, func(p *simnet.Proc) error {
		p.SetNode(node)
		err := t.body(t)
		if err != nil && !errors.Is(err, ErrKilled) && !errors.Is(err, simnet.ErrKilled) {
			s.errs = append(s.errs, fmt.Errorf("%s: %w", t.name, err))
		}
		return err
	})
	return nil
}

// Kill destroys the thread at the current virtual time.
func (s *SimSystem) Kill(id ThreadID) bool {
	t, ok := s.threads[id]
	if !ok || t.proc.Done() || t.proc.Killed() {
		return false
	}
	t.proc.Kill()
	return true
}

// Run drives the simulation to completion.
func (s *SimSystem) Run() error {
	if err := s.exec.Run(); err != nil {
		return err
	}
	return errors.Join(s.errs...)
}

// Now returns the virtual time.
func (s *SimSystem) Now() float64 { return s.exec.Now() }

// Dropped returns the dropped-send counter.
func (s *SimSystem) Dropped() int64 { return s.dropped }

// BytesSent returns cumulative modeled wire bytes.
func (s *SimSystem) BytesSent() int64 { return s.bytesSent }

var _ System = (*SimSystem)(nil)

// --- simThread implements Env ---

func (t *simThread) Self() ThreadID { return t.id }
func (t *simThread) Now() float64   { return t.sys.exec.Now() }

func (t *simThread) Send(to ThreadID, kind uint16, payload []byte) error {
	if t.proc.Killed() {
		return ErrKilled
	}
	m := &Message{From: t.id, To: to, Kind: kind, Payload: payload}
	t.seq++
	m.Seq = t.seq
	size := m.WireSize()
	t.sys.bytesSent += size

	// Sender-side protocol cost.
	if c := t.sys.cost; c.FixedFlops > 0 || c.FlopsPerByte > 0 {
		if err := t.node.Compute(t.proc, c.FixedFlops+c.FlopsPerByte*float64(size)); err != nil {
			return mapSimErr(err)
		}
	}
	dst, ok := t.sys.threads[to]
	if !ok || dst.proc.Killed() || dst.proc.Done() {
		t.sys.dropped++
		return nil
	}
	t.sys.network.Transfer(t.node, dst.node, size, func() {
		// Re-check liveness at delivery time.
		if dst.proc.Killed() || dst.proc.Done() {
			t.sys.dropped++
			return
		}
		dst.mbox.Put(m)
	})
	return nil
}

// pull blocks for the next incoming message, with optional deadline.
func (t *simThread) pull(timeoutAt float64) (*Message, error) {
	var m *Message
	var err error
	if timeoutAt < 0 {
		m, err = simnet.RecvFrom(t.proc, t.mbox)
	} else {
		dt := timeoutAt - t.Now()
		if dt < 0 {
			dt = 0
		}
		m, err = simnet.RecvTimeout(t.proc, t.mbox, dt)
	}
	if err != nil {
		return nil, mapSimErr(err)
	}
	// Receiver-side protocol cost.
	if c := t.sys.cost; c.FixedFlops > 0 || c.FlopsPerByte > 0 {
		if err := t.node.Compute(t.proc, c.FixedFlops+c.FlopsPerByte*float64(m.WireSize())); err != nil {
			return nil, mapSimErr(err)
		}
	}
	return m, nil
}

func mapSimErr(err error) error {
	switch {
	case errors.Is(err, simnet.ErrKilled), errors.Is(err, simnet.ErrNodeFailed):
		return ErrKilled
	case errors.Is(err, simnet.ErrTimeout):
		return ErrTimeout
	case errors.Is(err, simnet.ErrMailboxClosed):
		return ErrStopped
	default:
		return err
	}
}

func (t *simThread) Recv() (*Message, error) {
	return recvCommon(&t.stash, nil, func() (*Message, error) { return t.pull(-1) })
}

func (t *simThread) RecvTimeout(seconds float64) (*Message, error) {
	deadline := t.Now() + seconds
	return recvCommon(&t.stash, nil, func() (*Message, error) { return t.pull(deadline) })
}

func (t *simThread) RecvMatch(match func(*Message) bool) (*Message, error) {
	return recvCommon(&t.stash, match, func() (*Message, error) { return t.pull(-1) })
}

func (t *simThread) RecvMatchTimeout(match func(*Message) bool, seconds float64) (*Message, error) {
	deadline := t.Now() + seconds
	return recvCommon(&t.stash, match, func() (*Message, error) { return t.pull(deadline) })
}

func (t *simThread) Compute(flops float64) error {
	if err := t.node.Compute(t.proc, flops); err != nil {
		return mapSimErr(err)
	}
	return nil
}

func (t *simThread) Logf(format string, args ...any) {
	if t.sys.LogTo != nil {
		t.sys.LogTo("[%10.4fs %s] %s", t.Now(), t.name, fmt.Sprintf(format, args...))
	}
}

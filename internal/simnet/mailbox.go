package simnet

import "errors"

// ErrMailboxClosed is returned when receiving from a closed, drained
// mailbox.
var ErrMailboxClosed = errors.New("simnet: mailbox closed")

// ErrTimeout is returned by RecvTimeout when the deadline expires.
var ErrTimeout = errors.New("simnet: receive timeout")

// Mailbox is a FIFO queue with virtual-time delivery: Deliver schedules an
// item to arrive at a future time; Recv blocks the receiving process until
// an item is available. Multiple receivers are permitted (items go to the
// longest-waiting receiver).
type Mailbox[T any] struct {
	x       *Exec
	items   []T
	waiters []*waiter
	closed  bool
}

type waiter struct {
	p   *Proc
	tok uint64
}

// NewMailbox creates a mailbox on the executor.
func NewMailbox[T any](x *Exec) *Mailbox[T] {
	return &Mailbox[T]{x: x}
}

// Put enqueues item immediately (current virtual time).
func (m *Mailbox[T]) Put(item T) {
	m.items = append(m.items, item)
	m.wakeOne()
}

// wakeOne wakes the longest-waiting receiver, if any. Must run in
// scheduler context (it is only called from event closures).
func (m *Mailbox[T]) wakeOne() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.p.state == procWaiting && w.p.waitSeq == w.tok {
			w.p.wake(w.tok)
			return
		}
	}
}

// RecvFrom blocks p until an item is available from m, the mailbox
// closes, or p is killed. (A free function because Go methods cannot
// introduce type parameters.)
func RecvFrom[T any](p *Proc, m *Mailbox[T]) (T, error) {
	var zero T
	for {
		if err := p.checkKilled(); err != nil {
			return zero, err
		}
		if len(m.items) > 0 {
			item := m.items[0]
			m.items = m.items[1:]
			return item, nil
		}
		if m.closed {
			return zero, ErrMailboxClosed
		}
		tok := p.beginWait()
		m.waiters = append(m.waiters, &waiter{p: p, tok: tok})
		p.yield()
	}
}

// RecvTimeout blocks p until an item arrives or dt virtual seconds pass.
func RecvTimeout[T any](p *Proc, m *Mailbox[T], dt float64) (T, error) {
	var zero T
	deadline := p.x.now + dt
	for {
		if err := p.checkKilled(); err != nil {
			return zero, err
		}
		if len(m.items) > 0 {
			item := m.items[0]
			m.items = m.items[1:]
			return item, nil
		}
		if m.closed {
			return zero, ErrMailboxClosed
		}
		if p.x.now >= deadline {
			return zero, ErrTimeout
		}
		tok := p.beginWait()
		m.waiters = append(m.waiters, &waiter{p: p, tok: tok})
		timeout := p.x.Schedule(deadline, func() { p.wake(tok) })
		p.yield()
		p.x.Cancel(timeout)
	}
}

package simnet

import "fmt"

// Helpers only this package's tests use.

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Err returns the body's result (nil until done).
func (p *Proc) Err() error { return p.err }

// Now returns current virtual time.
func (p *Proc) Now() float64 { return p.x.now }

// Node returns the resident node, if any.
func (p *Proc) Node() *Node { return p.node }

// Sleep blocks for dt virtual seconds.
func (p *Proc) Sleep(dt float64) error {
	if err := p.checkKilled(); err != nil {
		return err
	}
	if dt < 0 {
		dt = 0
	}
	tok := p.beginWait()
	p.x.After(dt, func() { p.wake(tok) })
	p.yield()
	return p.checkKilled()
}

// Residents returns the number of attached processes.
func (n *Node) Residents() int { return len(n.residents) }

// Deliver schedules item to be enqueued at absolute virtual time t.
func (m *Mailbox[T]) Deliver(t float64, item T) {
	m.x.Schedule(t, func() {
		m.items = append(m.items, item)
		m.wakeOne()
	})
}

// Close marks the mailbox closed; blocked receivers are woken and drain
// remaining items before seeing ErrMailboxClosed.
func (m *Mailbox[T]) Close() {
	m.x.Schedule(m.x.now, func() {
		m.closed = true
		for len(m.waiters) > 0 {
			w := m.waiters[0]
			m.waiters = m.waiters[1:]
			w.p.wake(w.tok)
		}
	})
}

// Errors returns the non-nil errors returned by finished process bodies,
// in spawn order. ErrKilled results are included — callers filter.
func (x *Exec) Errors() []error {
	var out []error
	for _, p := range x.procs {
		if p.err != nil {
			out = append(out, fmt.Errorf("%s: %w", p.name, p.err))
		}
	}
	return out
}

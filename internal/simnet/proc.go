package simnet

import (
	"fmt"
)

type procState int

const (
	procReady   procState = iota // runnable, handoff in progress
	procRunning                  // currently executing user code
	procWaiting                  // blocked in a Proc call, awaiting wake
	procDone                     // body returned
)

// Proc is a simulated process: a goroutine that runs real code but blocks
// only through this handle, charging virtual time. Bodies receive their
// Proc and must propagate errors from blocking calls (notably ErrKilled,
// which is how failure injection unwinds a victim).
type Proc struct {
	x    *Exec
	id   int
	name string

	resume  chan struct{}
	yielded chan struct{}

	state   procState
	waitSeq uint64 // token identifying the current wait; stale wakes are dropped
	killed  bool
	err     error

	// node this proc is currently resident on, if any (set by Compute
	// callers via SetNode; used by node failure to kill residents).
	node *Node
}

// Spawn creates a process whose body starts at virtual time `at` (clamped
// to now). The body runs when the scheduler reaches that time.
func (x *Exec) Spawn(name string, at float64, body func(p *Proc) error) *Proc {
	p := &Proc{
		x:       x,
		id:      len(x.procs),
		name:    name,
		resume:  make(chan struct{}),
		yielded: make(chan struct{}),
		state:   procWaiting,
	}
	x.procs = append(x.procs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("simnet: process %s panicked: %v", p.name, r)
			}
			p.state = procDone
			if p.node != nil {
				p.node.detach(p)
			}
			p.x.tracef("proc %s done err=%v", p.name, p.err)
			p.yielded <- struct{}{}
		}()
		if p.killed {
			p.err = ErrKilled
			return
		}
		p.err = body(p)
	}()
	tok := p.waitSeq
	x.Schedule(at, func() { p.wake(tok) })
	return p
}

// SpawnNow spawns a process starting at the current virtual time.
func (x *Exec) SpawnNow(name string, body func(p *Proc) error) *Proc {
	return x.Spawn(name, x.now, body)
}

// Done reports whether the body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// Killed reports whether the process has been killed.
func (p *Proc) Killed() bool { return p.killed }

// SetNode records the node this process is resident on; node failure then
// kills the process. Pass nil to detach.
func (p *Proc) SetNode(n *Node) {
	if p.node != nil {
		p.node.detach(p)
	}
	p.node = n
	if n != nil {
		n.attach(p)
	}
}

// wake resumes the process if it is still in the wait identified by tok.
// It must be called from scheduler context (an event fn) or from the
// currently-running process (which then hands control over and regains it
// when the woken process blocks again — used nowhere currently; wakes are
// event-driven to keep reasoning simple).
func (p *Proc) wake(tok uint64) {
	if p.state != procWaiting || p.waitSeq != tok {
		return // already woken by another source, or done
	}
	p.state = procRunning
	p.resume <- struct{}{}
	<-p.yielded
}

// yield parks the process until a wake. It returns the wait token that was
// consumed. Callers must have set up a wake source (scheduled event or
// waiter registration) before calling yield.
func (p *Proc) yield() {
	p.state = procWaiting
	p.yielded <- struct{}{}
	<-p.resume
}

// beginWait establishes a new wait epoch and returns its token. Wake
// sources created after this point must capture the token; wakes with a
// stale token are ignored.
func (p *Proc) beginWait() uint64 {
	p.waitSeq++
	return p.waitSeq
}

// checkKilled returns ErrKilled if the process has been killed.
func (p *Proc) checkKilled() error {
	if p.killed {
		return ErrKilled
	}
	return nil
}

// Kill marks the process killed and, if it is blocked, schedules an
// immediate wake so its blocking call returns ErrKilled. Killing a done
// process is a no-op. Kill may be called from any process or event.
func (p *Proc) Kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	p.x.tracef("proc %s killed", p.name)
	tok := p.waitSeq
	if p.state == procWaiting {
		p.x.After(0, func() { p.wake(tok) })
	}
}

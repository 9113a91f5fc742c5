// Package simnet is a deterministic, process-oriented discrete-event
// simulator used to reproduce the paper's cluster measurements on a
// machine that does not have 16 workstations. Simulated processes are
// goroutines, but exactly one runs at a time: a process executes real Go
// code (the actual PCT math) and blocks only through its Proc handle
// (Compute, Sleep, mailbox Recv), which charges *virtual* time from the
// performance model. Two runs with the same inputs produce identical
// event orders and identical virtual clocks.
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrKilled is returned from blocking calls of a process that has been
// killed by failure injection.
var ErrKilled = errors.New("simnet: process killed")

// ErrNodeFailed is returned when computing on a failed node.
var ErrNodeFailed = errors.New("simnet: node failed")

// DeadlockError reports that the event queue drained while processes were
// still blocked.
type DeadlockError struct {
	Blocked []string // names of blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simnet: deadlock, %d processes blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// event is a scheduled closure. Events with equal time fire in schedule
// order (seq), making the simulation deterministic.
type event struct {
	t         float64
	seq       uint64
	fn        func()
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Exec is the discrete-event executor. It is not safe for concurrent use
// from outside: processes and event closures are serialized by design, and
// the host must not call into an Exec while Run is active except from
// inside a process body or event.
type Exec struct {
	now    float64
	seq    uint64
	events eventHeap
	procs  []*Proc
	// Trace, when non-nil, receives a line per interesting transition.
	Trace func(t float64, format string, args ...any)
	// Horizon, when positive, aborts Run with ErrHorizon once virtual
	// time passes it — a guard against protocol loops that never drain
	// (e.g. a failure detector nobody shuts down).
	Horizon float64
}

// ErrHorizon is returned by Run when the simulation passes Exec.Horizon.
var ErrHorizon = errors.New("simnet: virtual time horizon exceeded")

// NewExec returns an empty executor at time zero.
func NewExec() *Exec { return &Exec{} }

// Now returns the current virtual time in seconds.
func (x *Exec) Now() float64 { return x.now }

// Schedule registers fn to run at absolute virtual time t (clamped to
// now). It returns a handle that can cancel the event.
func (x *Exec) Schedule(t float64, fn func()) *event {
	if t < x.now {
		t = x.now
	}
	x.seq++
	e := &event{t: t, seq: x.seq, fn: fn}
	heap.Push(&x.events, e)
	return e
}

// After schedules fn to run dt seconds from now.
func (x *Exec) After(dt float64, fn func()) *event { return x.Schedule(x.now+dt, fn) }

// Cancel marks a scheduled event as cancelled (no-op if already fired).
func (x *Exec) Cancel(e *event) {
	if e != nil {
		e.cancelled = true
	}
}

func (x *Exec) tracef(format string, args ...any) {
	if x.Trace != nil {
		x.Trace(x.now, format, args...)
	}
}

// Run processes events until the queue drains. It returns nil when every
// spawned process has finished, a *DeadlockError when processes remain
// blocked with nothing scheduled, and the first process error otherwise
// (processes that fail stop the simulation only by finishing; their
// errors are aggregated).
func (x *Exec) Run() error {
	for len(x.events) > 0 {
		e := heap.Pop(&x.events).(*event)
		if e.cancelled {
			continue
		}
		if x.Horizon > 0 && e.t > x.Horizon {
			return fmt.Errorf("%w: %g > %g", ErrHorizon, e.t, x.Horizon)
		}
		if e.t > x.now {
			x.now = e.t
		}
		e.fn()
	}
	var blocked []string
	for _, p := range x.procs {
		if p.state == procWaiting {
			blocked = append(blocked, p.name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

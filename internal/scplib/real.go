package scplib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RealSystem runs threads as goroutines with channel mailboxes — true
// parallelism on the host machine. It is the runtime used by the example
// programs and the kernel benchmarks; the Sim runtime is used to
// reproduce the paper's cluster-scale measurements.
type RealSystem struct {
	mu      sync.Mutex
	threads map[ThreadID]*realThread
	wg      sync.WaitGroup
	running bool
	t0      time.Time
	errs    []error

	dropped   atomic.Int64
	bytesSent atomic.Int64

	// Logf receives diagnostics from thread bodies; nil silences them.
	LogTo func(format string, args ...any)
	// MailboxDepth is the per-thread channel buffer (default 4096).
	MailboxDepth int
	// sendVia, when set, replaces direct channel delivery with an
	// external transport (the cluster router); the transport re-enters via
	// deliverLocal.
	sendVia func(*Message) error
	// onReap, when set, observes every thread leaving the table after its
	// body returned (the cluster worker reports exits to its coordinator
	// through this). Called without the system lock held.
	onReap func(ThreadID)
}

type realThread struct {
	sys    *RealSystem
	id     ThreadID
	name   string
	mbox   chan *Message
	kill   chan struct{}
	killed atomic.Bool
	once   sync.Once
	stash  stash
	seq    uint64
	body   Body
}

// NewRealSystem creates an empty goroutine-backed system.
func NewRealSystem() *RealSystem {
	return &RealSystem{
		threads:      make(map[ThreadID]*realThread),
		t0:           time.Now(),
		MailboxDepth: 4096,
	}
}

// Spawn adds a thread; if the system is running the thread starts
// immediately, otherwise it starts when Run is called.
func (s *RealSystem) Spawn(spec ThreadSpec) error {
	if spec.Body == nil {
		return errors.New("scplib: nil thread body")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.threads[spec.ID]; ok {
		return fmt.Errorf("%w: %d (%s)", ErrDuplicateThread, spec.ID, spec.Name)
	}
	t := &realThread{
		sys:  s,
		id:   spec.ID,
		name: spec.Name,
		mbox: make(chan *Message, s.MailboxDepth),
		kill: make(chan struct{}),
		body: spec.Body,
	}
	s.threads[spec.ID] = t
	if s.running {
		s.start(t)
	}
	return nil
}

// start launches the thread goroutine. Caller holds s.mu.
func (s *RealSystem) start(t *realThread) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("scplib: thread %s panicked: %v", t.name, r)
				}
			}()
			err = t.body(t)
		}()
		s.mu.Lock()
		// Reap: long-lived systems (the service pool) spawn every job's
		// threads into one system, so finished threads must leave the
		// table.
		// Post-finish sends then drop like sends to any unknown thread.
		if s.threads[t.id] == t {
			delete(s.threads, t.id)
		}
		if err != nil && !errors.Is(err, ErrKilled) {
			s.errs = append(s.errs, fmt.Errorf("%s: %w", t.name, err))
		}
		reap := s.onReap
		s.mu.Unlock()
		if reap != nil {
			reap(t.id)
		}
	}()
}

// Kill destroys the thread: its blocking calls return ErrKilled and
// senders drop messages addressed to it.
func (s *RealSystem) Kill(id ThreadID) bool {
	s.mu.Lock()
	t, ok := s.threads[id]
	s.mu.Unlock()
	if !ok || t.killed.Load() {
		return false
	}
	t.killed.Store(true)
	t.once.Do(func() { close(t.kill) })
	return true
}

// Start launches every thread spawned so far without blocking; threads
// spawned afterwards start immediately. Long-lived systems (the service
// pool keeps one system alive across many jobs) pair it with Wait; Run
// remains the one-shot convenience.
func (s *RealSystem) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	for _, t := range s.threads {
		s.start(t)
	}
}

// Wait blocks until every thread has returned and reports their combined
// non-ErrKilled errors. Call once no further work will be spawned (after
// Stop, or after the application protocol has wound all threads down).
func (s *RealSystem) Wait() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}

// Stop kills every live thread; a pending Wait then returns promptly.
func (s *RealSystem) Stop() {
	s.mu.Lock()
	ids := make([]ThreadID, 0, len(s.threads))
	for id := range s.threads {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.Kill(id)
	}
}

// Live returns the number of threads currently registered (spawned and
// not yet finished).
func (s *RealSystem) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.threads)
}

// has reports whether id is currently a registered local thread (the
// cluster worker's local-vs-forward routing decision).
func (s *RealSystem) has(id ThreadID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.threads[id]
	return ok
}

// HasThreadsIn reports whether any registered thread has an ID in
// [lo, hi): one whose body has not returned yet. Killing a thread is
// asynchronous, so an ID range only becomes reusable once this turns
// false.
func (s *RealSystem) HasThreadsIn(lo, hi ThreadID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.threads {
		if lo <= id && id < hi {
			return true
		}
	}
	return false
}

// Run starts every spawned thread and blocks until all have finished.
func (s *RealSystem) Run() error {
	s.Start()
	return s.Wait()
}

// Now returns wall-clock seconds since the system was created.
func (s *RealSystem) Now() float64 { return time.Since(s.t0).Seconds() }

// Dropped returns the dropped-send counter.
func (s *RealSystem) Dropped() int64 { return s.dropped.Load() }

// BytesSent returns cumulative modeled wire bytes.
func (s *RealSystem) BytesSent() int64 { return s.bytesSent.Load() }

var _ System = (*RealSystem)(nil)

// --- realThread implements Env ---

func (t *realThread) Self() ThreadID { return t.id }
func (t *realThread) Now() float64   { return t.sys.Now() }

func (t *realThread) Send(to ThreadID, kind uint16, payload []byte) error {
	if t.killed.Load() {
		return ErrKilled
	}
	m := &Message{From: t.id, To: to, Kind: kind, Payload: payload}
	t.seq++
	m.Seq = t.seq
	t.sys.bytesSent.Add(m.WireSize())

	if t.sys.sendVia != nil {
		return t.sys.sendVia(m)
	}

	t.sys.mu.Lock()
	dst, ok := t.sys.threads[to]
	t.sys.mu.Unlock()
	if !ok || dst.killed.Load() {
		t.sys.dropped.Add(1)
		return nil
	}
	select {
	case dst.mbox <- m:
	case <-dst.kill:
		t.sys.dropped.Add(1)
	case <-t.kill:
		return ErrKilled
	}
	return nil
}

// deliverLocal routes a transport-received message into the destination
// thread's mailbox, dropping it if the destination is gone.
func (s *RealSystem) deliverLocal(m *Message) {
	s.mu.Lock()
	dst, ok := s.threads[m.To]
	s.mu.Unlock()
	if !ok || dst.killed.Load() {
		s.dropped.Add(1)
		return
	}
	select {
	case dst.mbox <- m:
	case <-dst.kill:
		s.dropped.Add(1)
	}
}

// pull blocks for the next incoming message.
func (t *realThread) pull(timeout *time.Timer) (*Message, error) {
	if t.killed.Load() {
		return nil, ErrKilled
	}
	if timeout == nil {
		select {
		case m := <-t.mbox:
			return m, nil
		case <-t.kill:
			return nil, ErrKilled
		}
	}
	select {
	case m := <-t.mbox:
		return m, nil
	case <-t.kill:
		return nil, ErrKilled
	case <-timeout.C:
		return nil, ErrTimeout
	}
}

func (t *realThread) Recv() (*Message, error) {
	return recvCommon(&t.stash, nil, func() (*Message, error) { return t.pull(nil) })
}

func (t *realThread) RecvTimeout(seconds float64) (*Message, error) {
	timer := time.NewTimer(time.Duration(seconds * float64(time.Second)))
	defer timer.Stop()
	return recvCommon(&t.stash, nil, func() (*Message, error) { return t.pull(timer) })
}

func (t *realThread) RecvMatch(match func(*Message) bool) (*Message, error) {
	return recvCommon(&t.stash, match, func() (*Message, error) { return t.pull(nil) })
}

func (t *realThread) RecvMatchTimeout(match func(*Message) bool, seconds float64) (*Message, error) {
	timer := time.NewTimer(time.Duration(seconds * float64(time.Second)))
	defer timer.Stop()
	return recvCommon(&t.stash, match, func() (*Message, error) { return t.pull(timer) })
}

// Compute is a no-op on the real runtime: the caller just performed the
// actual computation on the host CPU.
func (t *realThread) Compute(flops float64) error {
	if t.killed.Load() {
		return ErrKilled
	}
	return nil
}

func (t *realThread) Logf(format string, args ...any) {
	if t.sys.LogTo != nil {
		t.sys.LogTo("[%8.3fs %s] %s", t.Now(), t.name, fmt.Sprintf(format, args...))
	}
}

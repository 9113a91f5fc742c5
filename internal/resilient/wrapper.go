package resilient

import (
	"errors"

	"resilientfusion/internal/scplib"
)

// wrapper adapts a logical thread body to a physical scplib thread. It
// multicasts logical sends to the destination group's replicas, dedupes
// incoming application messages, interleaves heartbeats with computation,
// and applies view changes pushed by the guardian. One wrapper instance
// belongs to exactly one physical thread; no locking is needed.
type wrapper struct {
	lid     LogicalID
	name    string
	replica int
	body    RBody

	// The wrapper's coupling to its Runtime is these plain values, not a
	// pointer: a wrapper reconstructed in a worker process (remote.go) has
	// no Runtime, only the guardian's physical address and the timeouts.
	guardianPhys scplib.ThreadID
	failTimeout  float64

	monitored bool
	hbPeriod  float64
	// epoch is the group incarnation this replica sends under; bumped by
	// the guardian when a group is regenerated with no survivor.
	epoch uint32

	env scplib.Env // set by run

	// views maps logical IDs to live physical replica IDs.
	views   map[LogicalID][]scplib.ThreadID
	viewNum uint32

	ded   *dedupe
	lseq  map[LogicalID]uint64
	stash []*RMessage

	// awaitRestore makes run buffer application traffic until the state
	// snapshot from a surviving replica arrives (or a timeout passes).
	// Without this, a regenerated replica could number its first sends
	// before the restore rewinds its counters, leaving it permanently
	// misaligned with its peer and filtered out by receivers.
	awaitRestore bool
	restored     bool
	backlog      []*scplib.Message

	hbDue      float64
	chunkFlops float64
}

func newWrapper(rt *Runtime, g *group, slot int, view *viewTable) *wrapper {
	w := &wrapper{
		lid:          g.lid,
		name:         g.name,
		replica:      slot,
		body:         g.body,
		guardianPhys: rt.guardianPhys,
		failTimeout:  rt.cfg.FailTimeout,
		monitored:    g.monitored,
		hbPeriod:     rt.cfg.HeartbeatPeriod,
		epoch:        g.epoch,
		views:        make(map[LogicalID][]scplib.ThreadID),
		ded:          newDedupe(),
		lseq:         make(map[LogicalID]uint64),
		chunkFlops:   1e6,
	}
	w.applyViewTable(view)
	return w
}

// applyViewTable replaces the local routing table.
func (w *wrapper) applyViewTable(v *viewTable) {
	if v.View < w.viewNum {
		return // stale view — reconfiguration race guard
	}
	w.viewNum = v.View
	for lid := range w.views {
		delete(w.views, lid)
	}
	for _, g := range v.Groups {
		var alive []scplib.ThreadID
		for _, m := range g.Members {
			if m.Alive {
				alive = append(alive, m.Phys)
			}
		}
		w.views[g.LID] = alive
	}
}

// restoreState seeds protocol state from a snapshot (regeneration).
func (w *wrapper) restoreState(s *snapshot) {
	for lid, seq := range s.LSeq {
		w.lseq[lid] = seq
	}
	w.ded.restore(s)
}

// snapshotState exports protocol state for a regenerated peer.
func (w *wrapper) snapshotState() *snapshot {
	s := newSnapshot()
	for lid, seq := range w.lseq {
		s.LSeq[lid] = seq
	}
	w.ded.snapshotInto(s)
	return s
}

// run is the physical thread body.
func (w *wrapper) run(env scplib.Env) error {
	w.env = env
	w.hbDue = env.Now() // first heartbeat immediately
	w.maybeHeartbeat()
	if w.awaitRestore {
		if err := w.awaitState(); err != nil {
			if errors.Is(err, ErrKilled) {
				return scplib.ErrKilled
			}
			return err
		}
	}
	err := w.body(w)
	if err == nil && w.monitored {
		// Graceful exit: tell the guardian not to regenerate us.
		w.sendBye()
	}
	if errors.Is(err, ErrKilled) {
		// Map back to the transport's kill sentinel so the runtime does
		// not report injected failures as application errors.
		return scplib.ErrKilled
	}
	return err
}

func mapScplibErr(err error) error {
	switch {
	case errors.Is(err, scplib.ErrKilled):
		return ErrKilled
	case errors.Is(err, scplib.ErrTimeout):
		return ErrTimeout
	default:
		return err
	}
}

// --- heartbeats ---

func (w *wrapper) maybeHeartbeat() {
	if !w.monitored || w.env == nil {
		return
	}
	now := w.env.Now()
	if now < w.hbDue {
		return
	}
	w.hbDue = now + w.hbPeriod
	payload := append(encodeHeartbeat(w.lid, w.replica), 0)
	_ = w.env.Send(w.guardianPhys, kindHeartbeat, payload)
}

func (w *wrapper) sendBye() {
	payload := append(encodeHeartbeat(w.lid, w.replica), 1)
	_ = w.env.Send(w.guardianPhys, kindHeartbeat, payload)
}

// --- REnv implementation ---

func (w *wrapper) Self() LogicalID { return w.lid }
func (w *wrapper) Replica() int    { return w.replica }
func (w *wrapper) Now() float64    { return w.env.Now() }

func (w *wrapper) Logf(format string, args ...any) { w.env.Logf(format, args...) }

// Send copies payload into a fresh frame and sends that.
func (w *wrapper) Send(to LogicalID, kind uint16, payload []byte) error {
	return w.SendFrame(to, kind, FrameOf(payload))
}

// SendFrame multicasts to every live replica of the destination group. The
// logical sequence number advances once per logical send, so receivers
// can collapse the copies. The header is stamped into the frame's
// headroom and every replica is handed the same bytes.
func (w *wrapper) SendFrame(to LogicalID, kind uint16, frame []byte) error {
	if kind >= CtrlBase {
		return ErrBadConfig
	}
	w.lseq[to]++
	wire := frame[Headroom-rheaderBytes:]
	putAppHeader(wire, w.lid, w.replica, kind, w.lseq[to], w.viewNum, w.epoch)
	for _, phys := range w.views[to] {
		if err := w.env.Send(phys, kindApp, wire); err != nil {
			return mapScplibErr(err)
		}
	}
	w.maybeHeartbeat()
	return nil
}

// stashNext pops the oldest stashed message matching match.
func (w *wrapper) stashNext(match func(*RMessage) bool) *RMessage {
	for i, m := range w.stash {
		if match == nil || match(m) {
			w.stash = append(w.stash[:i], w.stash[i+1:]...)
			return m
		}
	}
	return nil
}

// awaitState buffers traffic until the regeneration state snapshot lands.
// If the survivor dies before answering, the timeout falls back to fresh
// protocol state — a documented degraded mode in which peers may filter
// this replica's early sends as duplicates; request/reply applications
// recover via reissue.
func (w *wrapper) awaitState() error {
	deadline := w.env.Now() + w.failTimeout
	for !w.restored {
		w.maybeHeartbeat()
		now := w.env.Now()
		if now >= deadline {
			w.env.Logf("resilient: %s/r%d state transfer timed out — starting fresh", w.name, w.replica)
			return nil
		}
		wait := deadline - now
		if w.monitored && w.hbDue-now < wait {
			wait = w.hbDue - now
		}
		if wait < 0 {
			wait = 0
		}
		m, err := w.env.RecvTimeout(wait)
		if err != nil {
			if errors.Is(err, scplib.ErrTimeout) {
				continue
			}
			return mapScplibErr(err)
		}
		switch m.Kind {
		case kindView:
			if v, err := decodeView(m.Payload); err == nil {
				w.applyViewTable(v)
			}
		case kindSnapResp:
			if _, snap, err := decodeSnapResp(m.Payload); err == nil {
				if s, err := decodeSnapshot(snap); err == nil {
					w.restoreState(s)
					w.restored = true
				}
			}
		default:
			// Application traffic (and unexpected control messages)
			// wait until the state is in place.
			w.backlog = append(w.backlog, m)
		}
	}
	return nil
}

// nextRaw returns the next raw transport message, draining the restore
// backlog before the live mailbox. deadline < 0 means no deadline.
func (w *wrapper) nextRaw(deadline float64) (*scplib.Message, error) {
	if len(w.backlog) > 0 {
		m := w.backlog[0]
		w.backlog = w.backlog[1:]
		return m, nil
	}
	now := w.env.Now()
	if !w.monitored && deadline < 0 {
		return w.env.Recv()
	}
	wait := 1e18
	if w.monitored {
		wait = w.hbDue - now
	}
	if deadline >= 0 && deadline-now < wait {
		wait = deadline - now
	}
	if wait < 0 {
		wait = 0
	}
	return w.env.RecvTimeout(wait)
}

// pump is the receive engine: it processes control traffic inline,
// dedupes application messages, and returns the first one matching match.
// deadline < 0 means no deadline.
func (w *wrapper) pump(match func(*RMessage) bool, deadline float64) (*RMessage, error) {
	if m := w.stashNext(match); m != nil {
		return m, nil
	}
	for {
		w.maybeHeartbeat()
		now := w.env.Now()
		if deadline >= 0 && now >= deadline {
			return nil, ErrTimeout
		}
		m, err := w.nextRaw(deadline)
		if err != nil {
			if errors.Is(err, scplib.ErrTimeout) {
				continue // heartbeat due or deadline reached; loop re-checks
			}
			return nil, mapScplibErr(err)
		}
		switch m.Kind {
		case kindView:
			if v, err := decodeView(m.Payload); err == nil {
				w.applyViewTable(v)
			}
		case kindSnapReq:
			w.handleSnapReq(m)
		case kindSnapResp:
			// State transfer for a regenerated replica (us).
			if _, snap, err := decodeSnapResp(m.Payload); err == nil {
				if s, err := decodeSnapshot(snap); err == nil {
					w.restoreState(s)
				}
			}
		case kindApp:
			rm, _, epoch, err := decodeApp(m.Payload)
			if err != nil {
				w.env.Logf("resilient: dropping malformed app message: %v", err)
				continue
			}
			if !w.ded.accept(rm.From, epoch, rm.LSeq) {
				continue // duplicate from a peer replica or stale epoch
			}
			if match == nil || match(rm) {
				return rm, nil
			}
			w.stash = append(w.stash, rm)
		default:
			// Unknown control kind: ignore (forward compatibility).
		}
	}
}

// handleSnapReq serves a state snapshot to the guardian for a
// regenerated peer replica.
func (w *wrapper) handleSnapReq(m *scplib.Message) {
	_, corr, err := decodeSnapReq(m.Payload)
	if err != nil {
		return
	}
	snap := encodeSnapshot(w.snapshotState())
	_ = w.env.Send(w.guardianPhys, kindSnapResp, encodeSnapResp(corr, snap))
}

func (w *wrapper) Recv() (*RMessage, error) { return w.pump(nil, -1) }

func (w *wrapper) RecvTimeout(seconds float64) (*RMessage, error) {
	return w.pump(nil, w.env.Now()+seconds)
}

func (w *wrapper) RecvMatch(match func(*RMessage) bool) (*RMessage, error) {
	return w.pump(match, -1)
}

func (w *wrapper) RecvMatchTimeout(match func(*RMessage) bool, seconds float64) (*RMessage, error) {
	return w.pump(match, w.env.Now()+seconds)
}

// Compute charges computation in heartbeat-sized slices so the failure
// detector is not starved during long kernels. The slice size adapts to
// the node's observed rate.
func (w *wrapper) Compute(flops float64) error {
	if !w.monitored {
		if err := w.env.Compute(flops); err != nil {
			return mapScplibErr(err)
		}
		return nil
	}
	for flops > 0 {
		c := w.chunkFlops
		if c > flops {
			c = flops
		}
		t0 := w.env.Now()
		if err := w.env.Compute(c); err != nil {
			return mapScplibErr(err)
		}
		flops -= c
		if dt := w.env.Now() - t0; dt > 0 {
			rate := c / dt
			w.chunkFlops = rate * w.hbPeriod / 2
			if w.chunkFlops < 1e4 {
				w.chunkFlops = 1e4
			}
		} else {
			// No virtual time passed (Real runtime): grow quickly so the
			// loop terminates without flooding heartbeats.
			w.chunkFlops *= 4
		}
		w.maybeHeartbeat()
	}
	return nil
}

var _ REnv = (*wrapper)(nil)

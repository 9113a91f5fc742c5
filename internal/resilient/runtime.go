package resilient

import (
	"errors"
	"fmt"
	"sync"

	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// Runtime layers resiliency over a scplib.System. Define the logical
// configuration with Add, call Start to spawn the guardian and all
// replicas, then drive the underlying system with Run.
type Runtime struct {
	sys scplib.System
	cfg Config

	mu       sync.Mutex
	started  bool
	stopped  bool
	groups   []*group // ordered for deterministic protocols
	byLID    map[LogicalID]*group
	nextPhys scplib.ThreadID
	viewNum  uint32
	deadNode map[int]bool

	guardianPhys scplib.ThreadID

	// Transport-level liveness intake (cluster runs). The guardian merges
	// these with heartbeat ages each poll: nodeSeen refreshes members on
	// nodes with recent connection activity (a worker deep in a kernel
	// still pings on its own goroutine), nodeLost force-expires members on
	// a severed node, exited force-expires a reaped physical thread after
	// a short hold (a graceful bye on the same FIFO connection precedes
	// the exit report and must win the race).
	nodeSeen map[int]float64
	nodeLost map[int]bool
	exited   map[scplib.ThreadID]float64

	stats Stats
	trace *telemetry.TraceRecorder
}

// Stats reports the resiliency layer's protocol activity.
type Stats struct {
	Detections    int // replica failures detected by heartbeat timeout
	Regenerations int // replacement replicas spawned
	ViewChanges   int // view broadcasts issued
	// DetectionLatency and RegenerationLatency record, per event, the
	// seconds between the (approximate) failure instant — last heartbeat
	// seen — and detection / replacement spawn.
	DetectionLatency    []float64
	RegenerationLatency []float64
}

type group struct {
	lid       LogicalID
	name      string
	body      RBody
	monitored bool
	// epoch is the group's incarnation number: bumped when the group is
	// regenerated with no surviving replica, so receivers reset the
	// group's logical sequence space instead of discarding the restarted
	// group's traffic as duplicates.
	epoch   uint32
	members []*member // slot-indexed; slots persist across regeneration
	// remoteKind/remoteArgs, when set, let replicas of this group spawn in
	// worker processes: the spec ships a resilient wrapper RemoteBody
	// whose params embed this inner body kind (see remote.go). body stays
	// the local form for node-0 placements and regeneration fallback.
	remoteKind string
	remoteArgs []byte
}

type member struct {
	phys  scplib.ThreadID
	node  int
	alive bool
	// restoring marks a regenerated replica whose state snapshot the
	// guardian has not yet relayed: it holds no state, so it cannot seed a
	// peer or stand for the group as a survivor.
	restoring bool
}

// holdsState reports whether m is alive with the group's protocol state.
func (m *member) holdsState() bool { return m.alive && !m.restoring }

// New creates a resiliency runtime over a system.
func New(sys scplib.System, cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("%w: Nodes=%d", ErrBadConfig, cfg.Nodes)
	}
	return &Runtime{
		sys:          sys,
		cfg:          cfg,
		byLID:        make(map[LogicalID]*group),
		guardianPhys: cfg.PhysBase,
		nextPhys:     cfg.PhysBase + 1,
		deadNode:     make(map[int]bool),
		nodeSeen:     make(map[int]float64),
		nodeLost:     make(map[int]bool),
		exited:       make(map[scplib.ThreadID]float64),
	}, nil
}

// NodeAlive records connection-level activity from a cluster node: any
// frame from the node's worker process proves the process lives, even
// while its replica threads are inside long compute kernels. Wire it to
// scplib.ClusterSystem.OnNodeAlive. A reconnecting node is also cleared
// from the dead-node set so it can host regenerations again.
func (rt *Runtime) NodeAlive(node int) {
	now := rt.sys.Now()
	rt.mu.Lock()
	rt.nodeSeen[node] = now
	delete(rt.deadNode, node)
	rt.mu.Unlock()
}

// NodeDown reports a severed cluster node connection; every member
// hosted there is force-expired at the guardian's next poll — detection
// at connection speed instead of heartbeat-timeout speed. Wire it to
// scplib.ClusterSystem.OnNodeDown.
func (rt *Runtime) NodeDown(node int) {
	rt.mu.Lock()
	rt.nodeLost[node] = true
	rt.mu.Unlock()
}

// ThreadExited reports a reaped physical thread (remote replica exit).
// Wire it to scplib.ClusterSystem.OnThreadExit.
func (rt *Runtime) ThreadExited(phys scplib.ThreadID) {
	now := rt.sys.Now()
	rt.mu.Lock()
	rt.exited[phys] = now
	rt.mu.Unlock()
}

// SetTrace attaches a span recorder: detection and regeneration events
// are stamped onto it alongside the Stats counters. A nil recorder (the
// default) records nothing.
func (rt *Runtime) SetTrace(tr *telemetry.TraceRecorder) {
	rt.mu.Lock()
	rt.trace = tr
	rt.mu.Unlock()
}

// Stats returns a copy of the protocol statistics.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.stats
	s.DetectionLatency = append([]float64(nil), rt.stats.DetectionLatency...)
	s.RegenerationLatency = append([]float64(nil), rt.stats.RegenerationLatency...)
	return s
}

// Add defines a logical thread with one replica per placement node.
// A monitored group heartbeats to the guardian, which detects and
// (with Config.Regenerate) replaces its failed replicas; an unmonitored
// one is a bare thread — the paper's manager ("the sensor itself was not
// replicated"). body is the local form; a non-empty kind names a
// registered inner body (args its parameters) so replicas placed on
// cluster worker nodes can be rebuilt in the worker process.
func (rt *Runtime) Add(lid LogicalID, name string, placements []int, monitored bool, body RBody, kind string, args []byte) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return ErrStarted
	}
	if body == nil || len(placements) == 0 {
		return fmt.Errorf("%w: group %q needs a body and placements", ErrBadConfig, name)
	}
	if _, dup := rt.byLID[lid]; dup {
		return fmt.Errorf("%w: duplicate logical id %d", ErrBadConfig, lid)
	}
	for _, n := range placements {
		if n < 0 || n >= rt.cfg.Nodes {
			return fmt.Errorf("%w: placement node %d of %d", ErrBadConfig, n, rt.cfg.Nodes)
		}
	}
	g := &group{
		lid:        lid,
		name:       name,
		body:       body,
		monitored:  monitored,
		epoch:      1,
		remoteKind: kind,
		remoteArgs: args,
	}
	for _, n := range placements {
		g.members = append(g.members, &member{phys: rt.allocPhysLocked(), node: n, alive: true})
	}
	rt.groups = append(rt.groups, g)
	rt.byLID[lid] = g
	return nil
}

func (rt *Runtime) allocPhysLocked() scplib.ThreadID {
	id := rt.nextPhys
	rt.nextPhys++
	return id
}

// currentViewLocked builds the view table from member state.
func (rt *Runtime) currentViewLocked() *viewTable {
	v := &viewTable{View: rt.viewNum}
	for _, g := range rt.groups {
		vg := viewGroup{LID: g.lid}
		for _, m := range g.members {
			vg.Members = append(vg.Members, viewMember{
				Phys: m.phys, Node: int32(m.node), Alive: m.alive,
			})
		}
		v.Groups = append(v.Groups, vg)
	}
	return v
}

// Start spawns the guardian and every configured replica. The caller then
// drives the underlying system (sys.Run or Runtime.Run).
func (rt *Runtime) Start() error {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return ErrStarted
	}
	rt.started = true
	rt.viewNum = 1
	view := rt.currentViewLocked()
	groups := append([]*group(nil), rt.groups...)
	rt.mu.Unlock()

	if err := rt.sys.Spawn(scplib.ThreadSpec{
		ID:   rt.guardianPhys, // PhysBase (0 unless offset)
		Name: "guardian",
		Node: rt.cfg.GuardianNode,
		Body: rt.guardianBody,
	}); err != nil {
		return err
	}
	lost := make(map[int]bool)
	for _, g := range groups {
		for slot, m := range g.members {
			if err := rt.spawnReplica(g, slot, m, view, false); err != nil {
				if g.monitored && rt.cfg.Regenerate && errors.Is(err, scplib.ErrNodeDown) {
					// The hosting worker died while we were still spawning.
					// Leave the member to the guardian, which regenerates it
					// on a surviving node — the same recovery as a worker
					// dying a moment after the spawn succeeded.
					lost[m.node] = true
					continue
				}
				return err
			}
		}
	}
	// Publish the losses only after the spawn loop: force-expiring a
	// member mid-loop would let the guardian replace its phys ID while we
	// still hold the old one, double-spawning the slot.
	if len(lost) > 0 {
		rt.mu.Lock()
		for n := range lost {
			rt.nodeLost[n] = true
			rt.deadNode[n] = true
		}
		rt.mu.Unlock()
	}
	return nil
}

// spawnReplica creates the wrapper and spawns the physical thread.
// view is the view table the replica starts from; awaitRestore makes the
// replica hold application traffic until the guardian relays a state
// snapshot from a surviving peer.
func (rt *Runtime) spawnReplica(g *group, slot int, m *member, view *viewTable, awaitRestore bool) error {
	w := newWrapper(rt, g, slot, view)
	w.awaitRestore = awaitRestore
	name := g.name
	if g.monitored {
		name = fmt.Sprintf("%s/r%d", g.name, slot)
	}
	spec := scplib.ThreadSpec{
		ID:   m.phys,
		Name: name,
		Node: m.node,
		Body: w.run,
	}
	if g.remoteKind != "" {
		// Shippable form: the whole wrapper state (identity, timers, view,
		// inner body kind) travels as params; a worker-side registry
		// rebuilds an equivalent wrapper around the reconstructed body.
		spec.Remote = &scplib.RemoteBody{
			Kind: WrapperBodyKind,
			Args: encodeWrapperParams(&wrapperParams{
				LID:          g.lid,
				Name:         g.name,
				Slot:         slot,
				Monitored:    g.monitored,
				AwaitRestore: awaitRestore,
				GuardianPhys: rt.guardianPhys,
				Epoch:        g.epoch,
				HbPeriod:     rt.cfg.HeartbeatPeriod,
				FailTimeout:  rt.cfg.FailTimeout,
				View:         view,
				InnerKind:    g.remoteKind,
				InnerArgs:    g.remoteArgs,
			}),
		}
	}
	return rt.sys.Spawn(spec)
}

// Run drives the underlying system to completion.
func (rt *Runtime) Run() error { return rt.sys.Run() }

// Shutdown terminates the resiliency control plane (and any replicas
// still alive). Application drivers call this once their protocol has
// completed so the guardian's monitoring loop stops.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	var phys []scplib.ThreadID
	for _, g := range rt.groups {
		for _, m := range g.members {
			if m.alive {
				phys = append(phys, m.phys)
			}
		}
	}
	rt.mu.Unlock()

	rt.sys.Kill(rt.guardianPhys)
	for _, id := range phys {
		rt.sys.Kill(id)
	}
}

// KillReplica destroys one replica of a logical thread — the failure /
// information-warfare-attack injection hook. It reports whether a live
// replica was killed.
func (rt *Runtime) KillReplica(lid LogicalID, slot int) bool {
	rt.mu.Lock()
	g := rt.byLID[lid]
	if g == nil || slot < 0 || slot >= len(g.members) {
		rt.mu.Unlock()
		return false
	}
	phys := g.members[slot].phys
	rt.mu.Unlock()
	return rt.sys.Kill(phys)
}

// physOf returns the live physical IDs for lid according to the
// guardian's authoritative state (used by tests).
func (rt *Runtime) physOf(lid LogicalID) []scplib.ThreadID {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	g := rt.byLID[lid]
	if g == nil {
		return nil
	}
	var out []scplib.ThreadID
	for _, m := range g.members {
		if m.alive {
			out = append(out, m.phys)
		}
	}
	return out
}

// allLivePhysLocked lists every live physical thread (view broadcast
// fan-out). Caller holds mu.
func (rt *Runtime) allLivePhysLocked() []scplib.ThreadID {
	var out []scplib.ThreadID
	for _, g := range rt.groups {
		for _, m := range g.members {
			if m.alive {
				out = append(out, m.phys)
			}
		}
	}
	return out
}

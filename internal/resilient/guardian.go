package resilient

import (
	"errors"
	"fmt"
	"slices"

	"resilientfusion/internal/scplib"
)

// guardianBody is the failure detector and regenerator: it tracks replica
// heartbeats, declares silent replicas dead, regenerates them at
// alternative nodes, and broadcasts reconfigured views. It runs as
// physical thread 0.
//
// The guardian is the paper's "attack assessment" component reduced to
// crash/kill detection; richer sensors would feed the same recovery path.
func (rt *Runtime) guardianBody(env scplib.Env) error {
	type key struct {
		lid  LogicalID
		slot int
	}
	lastSeen := make(map[key]float64)
	graceful := make(map[key]bool)

	rt.mu.Lock()
	monitoredAny := false
	for _, g := range rt.groups {
		if !g.monitored {
			continue
		}
		monitoredAny = true
		for slot := range g.members {
			// Grace: replicas get a full timeout from startup.
			lastSeen[key{g.lid, slot}] = env.Now()
		}
	}
	rt.mu.Unlock()
	if !monitoredAny {
		// Nothing to watch (no-resiliency configurations): exit rather
		// than poll forever.
		return nil
	}

	for {
		m, err := env.RecvTimeout(rt.cfg.GuardianPoll)
		now := env.Now()
		switch {
		case err == nil:
			switch m.Kind {
			case kindHeartbeat:
				lid, slot, derr := decodeHeartbeat(m.Payload)
				if derr != nil {
					continue
				}
				k := key{lid, slot}
				lastSeen[k] = now
				if len(m.Payload) >= 7 && m.Payload[6] == 1 {
					// Graceful exit: stop monitoring, no regeneration.
					graceful[k] = true
					rt.markDead(lid, slot)
				}
			case kindSnapResp:
				// Forward state to the regenerated replica.
				corr, snap, derr := decodeSnapResp(m.Payload)
				if derr != nil {
					continue
				}
				rt.markRestored(corr)
				_ = env.Send(corr, kindSnapResp, encodeSnapResp(corr, snap))
			}
		case errors.Is(err, scplib.ErrTimeout):
			// fall through to expiry checks
		default:
			return err // killed at shutdown
		}

		// Expiry scan, two-phase. Phase 1 marks every expired replica
		// dead before any recovery decisions are made: when an entire
		// group dies within one detection window, recovery must see that
		// there is no survivor (otherwise it would pick a corpse to
		// snapshot from and skip the epoch bump).
		//
		// Transport facts (cluster runs) merge in here. nodeSeen extends a
		// member's effective heartbeat age: worker pings run on their own
		// goroutine, so a replica deep in a multi-second kernel stays
		// fresh. nodeLost and ripe exit reports force-expire regardless of
		// heartbeat age: a severed connection or reaped thread is ground
		// truth. Exit reports are held for one poll before they ripen —
		// a graceful bye travels the same FIFO connection ahead of the
		// exit report, and the hold lets it be drained from the mailbox
		// first so finished replicas are not "regenerated".
		rt.mu.Lock()
		groups := append([]*group(nil), rt.groups...)
		nodeSeen := make(map[int]float64, len(rt.nodeSeen))
		for n, ts := range rt.nodeSeen {
			nodeSeen[n] = ts
		}
		var nodeLost map[int]bool // nil when nothing was lost (reads are safe)
		if len(rt.nodeLost) > 0 {
			nodeLost = rt.nodeLost
			rt.nodeLost = make(map[int]bool)
		}
		exitedRipe := make(map[scplib.ThreadID]bool)
		for phys, ts := range rt.exited {
			if now-ts >= rt.cfg.GuardianPoll {
				exitedRipe[phys] = true
				delete(rt.exited, phys)
			}
		}
		rt.mu.Unlock()
		var failures []lostMember
		for _, g := range groups {
			if !g.monitored {
				continue
			}
			for slot, mem := range g.members {
				k := key{g.lid, slot}
				if !mem.alive || graceful[k] {
					continue
				}
				seen := lastSeen[k]
				if ts, ok := nodeSeen[mem.node]; ok && ts > seen {
					seen = ts
				}
				forced := nodeLost[mem.node] || exitedRipe[mem.phys]
				if !forced && now-seen <= rt.cfg.FailTimeout {
					continue
				}
				failures = append(failures, lostMember{g, slot, seen})
				rt.mu.Lock()
				mem.alive = false
				rt.stats.Detections++
				rt.stats.DetectionLatency = append(rt.stats.DetectionLatency, now-seen)
				tr := rt.trace
				rt.mu.Unlock()
				tr.Event("detection", slot, int(g.epoch), g.name)
				rt.sys.Kill(mem.phys)
				env.Logf("guardian: %s replica %d silent for %.2fs — declaring failed",
					g.name, slot, now-seen)
			}
		}
		// Phase 2: regenerate and reconfigure.
		if len(failures) > 0 {
			regenerate := rt.cfg.Regenerate
			rt.mu.Lock()
			if rt.stopped {
				regenerate = false
			}
			rt.mu.Unlock()
			if regenerate {
				failures = append(failures, rt.orphans(env, failures, now)...)
				for _, f := range failures {
					rt.regenerate(env, f.g, f.slot, f.seen)
					lastSeen[key{f.g.lid, f.slot}] = now // fresh grace
				}
			}
			rt.broadcastView(env)
		}
	}
}

// lostMember is one replica the guardian has declared failed this scan;
// seen is its last sign of life.
type lostMember struct {
	g    *group
	slot int
	seen float64
}

// orphans fails the restoring replicas of each group in failures that
// has no member left holding state. The snapshot they wait for can never
// come, so they restart with the group under a new epoch rather than
// start fresh under the old one, whose sequence numbers receivers have
// already passed — a group lost across several scans is still lost whole.
func (rt *Runtime) orphans(env scplib.Env, failures []lostMember, now float64) []lostMember {
	var out []lostMember
	var phys []scplib.ThreadID
	rt.mu.Lock()
	for _, f := range failures {
		if slices.ContainsFunc(f.g.members, (*member).holdsState) {
			continue
		}
		for slot, mem := range f.g.members {
			if mem.alive {
				mem.alive = false
				out = append(out, lostMember{f.g, slot, now})
				phys = append(phys, mem.phys)
			}
		}
	}
	rt.mu.Unlock()
	for i, o := range out {
		rt.sys.Kill(phys[i])
		env.Logf("guardian: %s replica %d lost its state source — restarting it", o.g.name, o.slot)
	}
	return out
}

// markRestored records that the guardian relayed a state snapshot to the
// regenerated replica phys.
func (rt *Runtime) markRestored(phys scplib.ThreadID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, g := range rt.groups {
		for _, m := range g.members {
			if m.phys == phys {
				m.restoring = false
			}
		}
	}
}

// markDead flips a member's alive bit without regeneration (graceful
// exits and the no-regeneration baseline).
func (rt *Runtime) markDead(lid LogicalID, slot int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if g := rt.byLID[lid]; g != nil && slot >= 0 && slot < len(g.members) {
		g.members[slot].alive = false
	}
}

// regenerate spawns a replacement replica for (g, slot) on an alternative
// node and initiates state transfer from a surviving replica.
func (rt *Runtime) regenerate(env scplib.Env, g *group, slot int, failedAt float64) {
	rt.mu.Lock()
	// Nodes hosting live members of this group are excluded so a second
	// failure cannot take out both replicas (the paper's "mapped to an
	// alternative location in the network").
	exclude := make(map[int]bool)
	var survivor *member
	for _, m := range g.members {
		if m.alive {
			exclude[m.node] = true
		}
		if survivor == nil && m.holdsState() {
			survivor = m
		}
	}
	if survivor == nil {
		// Whole-group restart: new incarnation so receivers reset the
		// group's sequence space.
		g.epoch++
	}
	failedNode := g.members[slot].node
	candidates := make([]int, 0, rt.cfg.Nodes)
	for off := 1; off <= rt.cfg.Nodes; off++ {
		n := (failedNode + off) % rt.cfg.Nodes
		if rt.deadNode[n] || exclude[n] {
			continue
		}
		candidates = append(candidates, n)
	}
	view := rt.currentViewLocked()
	rt.mu.Unlock()

	for _, node := range candidates {
		rt.mu.Lock()
		phys := rt.allocPhysLocked()
		newMem := &member{phys: phys, node: node, alive: true, restoring: survivor != nil}
		rt.mu.Unlock()

		// The new replica must be in the view it starts from.
		view = patchView(view, g.lid, slot, newMem)
		err := rt.spawnReplica(g, slot, newMem, view, survivor != nil)
		if errors.Is(err, scplib.ErrNodeDown) {
			rt.mu.Lock()
			rt.deadNode[node] = true
			rt.mu.Unlock()
			continue
		}
		if err != nil {
			env.Logf("guardian: regeneration spawn failed: %v", err)
			return
		}
		rt.mu.Lock()
		g.members[slot] = newMem
		rt.stats.Regenerations++
		rt.stats.RegenerationLatency = append(rt.stats.RegenerationLatency, env.Now()-failedAt)
		tr := rt.trace
		rt.mu.Unlock()
		tr.Event("regeneration", slot, int(g.epoch), fmt.Sprintf("%s on node %d", g.name, node))
		env.Logf("guardian: regenerated %s replica %d on node %d as thread %d", g.name, slot, node, phys)

		// Asynchronous state transfer from a survivor, correlated by the
		// new physical ID. Stateless-by-design groups work without it.
		if survivor != nil {
			_ = env.Send(survivor.phys, kindSnapReq, encodeSnapReq(g.lid, phys))
		}
		return
	}
	env.Logf("guardian: no node available to regenerate %s replica %d — degraded", g.name, slot)
}

// patchView returns a copy of v with (lid, slot) replaced by m.
func patchView(v *viewTable, lid LogicalID, slot int, m *member) *viewTable {
	out := &viewTable{View: v.View, Groups: make([]viewGroup, len(v.Groups))}
	copy(out.Groups, v.Groups)
	for i := range out.Groups {
		if out.Groups[i].LID != lid {
			continue
		}
		members := append([]viewMember(nil), out.Groups[i].Members...)
		if slot < len(members) {
			members[slot] = viewMember{Phys: m.phys, Node: int32(m.node), Alive: m.alive}
		}
		out.Groups[i].Members = members
	}
	return out
}

// broadcastView increments the view number and pushes the new table to
// every live thread. Monotonic view numbers let receivers discard stale
// updates, resolving reconfiguration races.
func (rt *Runtime) broadcastView(env scplib.Env) {
	rt.mu.Lock()
	rt.viewNum++
	rt.stats.ViewChanges++
	v := rt.currentViewLocked()
	targets := rt.allLivePhysLocked()
	rt.mu.Unlock()

	payload := encodeView(v)
	for _, phys := range targets {
		_ = env.Send(phys, kindView, payload)
	}
}

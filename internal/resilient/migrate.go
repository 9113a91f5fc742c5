package resilient

import (
	"errors"
	"fmt"

	"resilientfusion/internal/scplib"
)

// MigrateReplica proactively moves one replica of a logical thread to a
// different node — the paper's thread *mobility* ("they are highly
// mobile, moving from one place in the network to another with speed and
// agility"), usable as a camouflage policy: periodically relocating
// replicas denies an attacker a stable target.
//
// The mechanics reuse the regeneration path deliberately: spawn the
// replacement at the destination (awaiting state transfer from a live
// peer when one exists), retire the old replica, bump the view and
// broadcast it. Migration must be initiated from outside the runtime's
// threads (tests, failure plans, or an application driver); it returns
// an error if the destination is invalid or the slot has no live replica.
func (rt *Runtime) MigrateReplica(lid LogicalID, slot int, toNode int) error {
	rt.mu.Lock()
	if !rt.started || rt.stopped {
		rt.mu.Unlock()
		return fmt.Errorf("%w: runtime not running", ErrBadConfig)
	}
	g := rt.byLID[lid]
	if g == nil {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownGroup, lid)
	}
	if slot < 0 || slot >= len(g.members) {
		rt.mu.Unlock()
		return fmt.Errorf("%w: slot %d", ErrBadConfig, slot)
	}
	if toNode < 0 || toNode >= rt.cfg.Nodes {
		rt.mu.Unlock()
		return fmt.Errorf("%w: node %d", ErrBadConfig, toNode)
	}
	old := g.members[slot]
	if !old.alive {
		rt.mu.Unlock()
		return fmt.Errorf("%w: replica %d/%d is not alive", ErrBadConfig, lid, slot)
	}
	if rt.deadNode[toNode] {
		rt.mu.Unlock()
		return fmt.Errorf("%w: node %d is down", ErrBadConfig, toNode)
	}

	// A surviving peer (not the migrating replica itself) can seed the
	// newcomer's protocol state.
	var survivor *member
	for i, m := range g.members {
		if i != slot && m.holdsState() {
			survivor = m
			break
		}
	}
	phys := rt.allocPhysLocked()
	newMem := &member{phys: phys, node: toNode, alive: true, restoring: survivor != nil}
	view := rt.currentViewLocked()
	rt.mu.Unlock()

	view = patchView(view, lid, slot, newMem)
	if err := rt.spawnReplica(g, slot, newMem, view, survivor != nil); err != nil {
		if errors.Is(err, scplib.ErrNodeDown) {
			rt.mu.Lock()
			rt.deadNode[toNode] = true
			rt.mu.Unlock()
		}
		return err
	}

	rt.mu.Lock()
	g.members[slot] = newMem
	rt.stats.Migrations++
	rt.mu.Unlock()

	// Retire the old incarnation and reconfigure. The old replica's
	// in-flight work is covered by its peers (or by application reissue,
	// exactly as for failures).
	rt.sys.Kill(old.phys)
	rt.broadcastViewExternal()

	// Seed state transfer via the guardian relay path: ask the survivor
	// directly (the guardian forwards the response to the newcomer).
	if survivor != nil {
		rt.requestSnapshot(survivor.phys, lid, phys)
	}
	return nil
}

// broadcastViewExternal is broadcastView for callers outside the guardian
// thread: it sends through a short-lived courier thread because view
// distribution requires a sending context.
func (rt *Runtime) broadcastViewExternal() {
	rt.mu.Lock()
	rt.viewNum++
	rt.stats.ViewChanges++
	v := rt.currentViewLocked()
	targets := rt.allLivePhysLocked()
	id := rt.nextCourier
	rt.nextCourier++
	rt.mu.Unlock()

	payload := encodeView(v)
	courier := scplib.ThreadSpec{
		ID:   rt.courierID(id),
		Name: fmt.Sprintf("courier%d", id),
		Node: rt.cfg.GuardianNode,
		Body: func(env scplib.Env) error {
			for _, phys := range targets {
				if err := env.Send(phys, kindView, payload); err != nil {
					return err
				}
			}
			return nil
		},
	}
	_ = rt.sys.Spawn(courier)
}

// requestSnapshot asks a survivor for protocol state on behalf of a
// regenerated/migrated replica, via a courier thread.
func (rt *Runtime) requestSnapshot(survivor scplib.ThreadID, lid LogicalID, corr scplib.ThreadID) {
	rt.mu.Lock()
	id := rt.nextCourier
	rt.nextCourier++
	rt.mu.Unlock()
	courier := scplib.ThreadSpec{
		ID:   rt.courierID(id),
		Name: fmt.Sprintf("courier%d", id),
		Node: rt.cfg.GuardianNode,
		Body: func(env scplib.Env) error {
			return env.Send(survivor, kindSnapReq, encodeSnapReq(lid, corr))
		},
	}
	_ = rt.sys.Spawn(courier)
}

// courierBase is the top of the physical-ID space, grown downward for
// ephemeral courier threads so they never collide with replica IDs.
const courierBase scplib.ThreadID = 1 << 30

// courierID offsets couriers by the runtime's PhysBase so several
// runtimes sharing one system (per-job cluster runtimes) mirror their
// replica-ID offsets at the top of the ID space without colliding.
func (rt *Runtime) courierID(id int32) scplib.ThreadID {
	return courierBase - rt.cfg.PhysBase - scplib.ThreadID(id)
}

package service

import (
	"slices"
	"sync"

	"resilientfusion/internal/scplib"
)

// Job ranges start at physBase0, each physStride wide: room for a job's
// guardian, replicas and regenerations. Bases stay below physMax, so no
// matter how many jobs have run the int32 ThreadID never overflows.
const (
	physBase0  = scplib.ThreadID(1 << 20)
	physStride = scplib.ThreadID(1 << 16)
	physMax    = scplib.ThreadID(1 << 29)
)

// threadTable is the part of a system the allocator consults:
// scplib.RealSystem and scplib.ClusterSystem both provide it.
type threadTable interface {
	HasThreadsIn(lo, hi scplib.ThreadID) bool
}

// physIDs hands each job a physical thread ID range disjoint from every
// other running job's on one shared system (the pool keeps one per
// system). Finished jobs' bases are reused oldest-first, so a long-lived
// daemon's ID space stays bounded — but only once the finished job's
// threads are gone: the manager returns while its own thread, the
// guardian and the killed workers are still being reaped (a slower
// replica may be mid-kernel), and spawning into their IDs fails with a
// duplicate thread id. A base whose range still has stragglers is passed
// over in favour of a fresh one; if fresh allocation ever reaches
// physMax it wraps, skipping bases still in use or waiting on the free
// list.
type physIDs struct {
	sys threadTable

	mu    sync.Mutex
	next  scplib.ThreadID
	free  []scplib.ThreadID            // finished jobs' bases, reused FIFO
	inUse map[scplib.ThreadID]struct{} // bases of running jobs
}

func newPhysIDs(sys threadTable) *physIDs {
	return &physIDs{sys: sys, next: physBase0, inUse: make(map[scplib.ThreadID]struct{})}
}

// alloc returns a base whose [base, base+physStride) range no running
// or draining job occupies.
func (a *physIDs) alloc() scplib.ThreadID {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, base := range a.free {
		if !a.sys.HasThreadsIn(base, base+physStride) {
			a.free = append(a.free[:i], a.free[i+1:]...)
			a.inUse[base] = struct{}{}
			return base
		}
	}
	// The scan terminates unless every base in [base0, max) is held by a
	// running or still-draining job — ~8k of them, far beyond what the
	// pool admits.
	for {
		if a.next+physStride > physMax {
			a.next = physBase0
		}
		base := a.next
		a.next += physStride
		if _, busy := a.inUse[base]; !busy && !slices.Contains(a.free, base) {
			a.inUse[base] = struct{}{}
			return base
		}
	}
}

// release returns a finished job's base to the free list.
func (a *physIDs) release(base scplib.ThreadID) {
	a.mu.Lock()
	if _, busy := a.inUse[base]; busy {
		delete(a.inUse, base)
		a.free = append(a.free, base)
	}
	a.mu.Unlock()
}

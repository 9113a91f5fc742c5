// Package resilient implements the paper's computational resiliency layer
// on top of scplib: logical threads are transparently replicated across
// nodes ("shadow threads", Figure 1 of the paper), replica health is
// tracked with heartbeats, and — beyond plain fault tolerance — lost
// replicas are *regenerated* at alternative locations and the
// communication structure is reconfigured on the fly, restoring the
// configured replication level subject only to available resources.
//
// Application code is written against REnv in terms of *logical* thread
// IDs. The layer multicasts each logical send to every replica of the
// destination group and deduplicates at the receiver with per-sender
// logical sequence numbers, so replication is invisible to the
// application — exactly the property the paper's library technology
// provides ("application independent ... hides the details of
// communication protocols required to achieve dynamic replication and
// reconfiguration").
//
// Determinism requirement: replicas of a group must behave identically
// given identical message streams. Messages are FIFO per sender, so this
// holds for applications (like manager/worker fusion) in which each
// group's input comes from a single logical peer at a time.
package resilient

import (
	"errors"

	"resilientfusion/internal/scplib"
)

// LogicalID names a logical thread (an unreplicated singleton or a
// replicated group).
type LogicalID int32

// Control-plane message kinds occupy the top of the kind space;
// application kinds must stay below CtrlBase.
const (
	CtrlBase uint16 = 0xFF00
	// kindApp wraps application traffic (the app kind travels in the
	// resilient header, scplib kind is kindApp).
	kindApp = CtrlBase + iota
	kindHeartbeat
	kindView
	kindSnapReq
	kindSnapResp
)

// Errors.
var (
	// ErrKilled mirrors scplib.ErrKilled at the resilient layer.
	ErrKilled = errors.New("resilient: thread killed")
	// ErrTimeout mirrors scplib.ErrTimeout.
	ErrTimeout = errors.New("resilient: receive timeout")
	// ErrBadConfig reports invalid Config or group definitions.
	ErrBadConfig = errors.New("resilient: bad configuration")
	// ErrUnknownGroup is returned for operations on undefined logical IDs.
	ErrUnknownGroup = errors.New("resilient: unknown logical thread")
	// ErrStarted is returned when mutating a runtime after Start.
	ErrStarted = errors.New("resilient: runtime already started")
)

// RMessage is an application message after dedupe: From is the *logical*
// sender; Kind is the application kind.
type RMessage struct {
	From LogicalID
	Kind uint16
	// Payload is a read-only view into the buffer the message arrived
	// in, which every replica of the receiving group may share.
	Payload []byte
	// Replica is the index of the replica that physically delivered the
	// accepted copy (diagnostics).
	Replica int
	// LSeq is the logical sequence number (diagnostics).
	LSeq uint64
}

// REnv is the environment handed to resilient thread bodies. It mirrors
// scplib.Env but in logical-thread space.
type REnv interface {
	// Self returns the logical identity.
	Self() LogicalID
	// Replica returns this replica's index within its group (0-based;
	// always 0 for singletons).
	Replica() int
	// Now returns the runtime clock in seconds.
	Now() float64
	// Send multicasts to every live replica of the destination group.
	// The payload is copied; the caller keeps it.
	Send(to LogicalID, kind uint16, payload []byte) error
	// SendFrame is Send without the copy. frame comes from NewFrame with
	// the payload appended behind its Headroom; the environment writes
	// its header into the headroom and sends that very buffer, so the
	// caller gives the frame up: it must not write to it — or send it
	// again — afterwards. Receivers see Payload as a view into it.
	SendFrame(to LogicalID, kind uint16, frame []byte) error
	// Recv returns the next deduplicated application message.
	Recv() (*RMessage, error)
	// RecvTimeout is Recv with a deadline in seconds.
	RecvTimeout(seconds float64) (*RMessage, error)
	// RecvMatch returns the next message matching the predicate,
	// stashing others (arrival order preserved for later calls).
	RecvMatch(match func(*RMessage) bool) (*RMessage, error)
	// RecvMatchTimeout is RecvMatch with a deadline.
	RecvMatchTimeout(match func(*RMessage) bool, seconds float64) (*RMessage, error)
	// Compute charges computation, interleaving heartbeats so long
	// kernels do not trip the failure detector.
	Compute(flops float64) error
	// Logf logs through the underlying system.
	Logf(format string, args ...any)
}

// RBody is a resilient thread's entry point. Group bodies must be
// deterministic functions of their message stream (see package comment).
type RBody func(env REnv) error

// Config tunes the resiliency protocols.
type Config struct {
	// Nodes is the number of cluster nodes available for placement.
	Nodes int
	// HeartbeatPeriod is the replica heartbeat interval in seconds.
	HeartbeatPeriod float64
	// FailTimeout declares a replica dead after this many seconds of
	// heartbeat silence.
	FailTimeout float64
	// Regenerate enables dynamic regeneration: replacements are spawned
	// for dead replicas and the communication structure reconfigured.
	// With Regenerate false the layer degrades gracefully, like the
	// plain replication baseline of the paper's Figure 1.
	Regenerate bool
	// GuardianNode places the failure detector (default node 0, beside
	// the manager).
	GuardianNode int
	// GuardianPoll is the detector's checking interval (default
	// HeartbeatPeriod/2).
	GuardianPoll float64
	// PhysBase offsets every physical thread ID this runtime allocates
	// (guardian = PhysBase, replicas from PhysBase+1). It lets several
	// runtimes — one per in-flight cluster job — share a single
	// long-lived scplib.System without colliding. Zero keeps the
	// historical layout.
	PhysBase scplib.ThreadID
}

func (c Config) withDefaults() Config {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 0.25
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 4 * c.HeartbeatPeriod
	}
	if c.GuardianPoll <= 0 {
		c.GuardianPoll = c.HeartbeatPeriod / 2
	}
	return c
}

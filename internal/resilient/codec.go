package resilient

import (
	"encoding/binary"
	"errors"
	"fmt"

	"resilientfusion/internal/scplib"
)

// Wire formats are hand-rolled little-endian so message sizes are exact
// and deterministic for the performance model. Every resilient-layer
// message is carried in a scplib payload.

// ErrBadWire reports a malformed resilient-layer payload.
var ErrBadWire = errors.New("resilient: malformed wire payload")

// rheader prefixes every application message.
//
//	logicalFrom int32
//	replica     uint16
//	appKind     uint16
//	lseq        uint64
//	view        uint32
//	epoch       uint32
const rheaderBytes = 24

// Headroom is the spare space a frame reserves in front of its payload
// (see NewFrame): exactly this layer's application header.
const Headroom = rheaderBytes

// NewFrame returns an empty frame for REnv.SendFrame: Headroom reserved
// bytes, then capacity for size payload bytes. The caller appends the
// payload behind the headroom (the slice it gets back from append is the
// frame) and hands the frame to SendFrame, which writes its header into
// the headroom in place — the payload is never copied again.
func NewFrame(size int) []byte { return make([]byte, Headroom, Headroom+size) }

// FrameOf copies payload into a fresh frame.
func FrameOf(payload []byte) []byte { return append(NewFrame(len(payload)), payload...) }

// putAppHeader stamps the application header into wire[:rheaderBytes];
// the payload already sits behind it.
func putAppHeader(wire []byte, from LogicalID, replica int, appKind uint16, lseq uint64, view, epoch uint32) {
	_ = wire[:rheaderBytes]
	binary.LittleEndian.PutUint32(wire[0:], uint32(from))
	binary.LittleEndian.PutUint16(wire[4:], uint16(replica))
	binary.LittleEndian.PutUint16(wire[6:], appKind)
	binary.LittleEndian.PutUint64(wire[8:], lseq)
	binary.LittleEndian.PutUint32(wire[16:], view)
	binary.LittleEndian.PutUint32(wire[20:], epoch)
}

// decodeApp parses an application message. The returned payload aliases b
// (message payloads are immutable after Send; see docs/invariants.md).
func decodeApp(b []byte) (*RMessage, uint32, uint32, error) {
	if len(b) < rheaderBytes {
		return nil, 0, 0, fmt.Errorf("%w: app message %d bytes", ErrBadWire, len(b))
	}
	m := &RMessage{
		From:    LogicalID(int32(binary.LittleEndian.Uint32(b[0:]))),
		Replica: int(binary.LittleEndian.Uint16(b[4:])),
		Kind:    binary.LittleEndian.Uint16(b[6:]),
		LSeq:    binary.LittleEndian.Uint64(b[8:]),
		Payload: b[rheaderBytes:],
	}
	view := binary.LittleEndian.Uint32(b[16:])
	epoch := binary.LittleEndian.Uint32(b[20:])
	return m, view, epoch, nil
}

// heartbeat payload: logicalID int32, replica uint16.
func encodeHeartbeat(lid LogicalID, replica int) []byte {
	buf := make([]byte, 6)
	binary.LittleEndian.PutUint32(buf[0:], uint32(lid))
	binary.LittleEndian.PutUint16(buf[4:], uint16(replica))
	return buf
}

func decodeHeartbeat(b []byte) (LogicalID, int, error) {
	if len(b) < 6 {
		return 0, 0, fmt.Errorf("%w: heartbeat %d bytes", ErrBadWire, len(b))
	}
	return LogicalID(int32(binary.LittleEndian.Uint32(b[0:]))), int(binary.LittleEndian.Uint16(b[4:])), nil
}

// view table payload:
//
//	view    uint32
//	groups  uint16
//	per group: logicalID int32, members uint16,
//	           per member: physID int32, node int32, alive uint8
type viewTable struct {
	View   uint32
	Groups []viewGroup
}

type viewGroup struct {
	LID     LogicalID
	Members []viewMember
}

type viewMember struct {
	Phys  scplib.ThreadID
	Node  int32
	Alive bool
}

func encodeView(v *viewTable) []byte {
	size := 6
	for _, g := range v.Groups {
		size += 6 + 9*len(g.Members)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], v.View)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(v.Groups)))
	off := 6
	for _, g := range v.Groups {
		binary.LittleEndian.PutUint32(buf[off:], uint32(g.LID))
		binary.LittleEndian.PutUint16(buf[off+4:], uint16(len(g.Members)))
		off += 6
		for _, m := range g.Members {
			binary.LittleEndian.PutUint32(buf[off:], uint32(m.Phys))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(m.Node))
			if m.Alive {
				buf[off+8] = 1
			}
			off += 9
		}
	}
	return buf
}

func decodeView(b []byte) (*viewTable, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: view %d bytes", ErrBadWire, len(b))
	}
	v := &viewTable{View: binary.LittleEndian.Uint32(b[0:])}
	groups := int(binary.LittleEndian.Uint16(b[4:]))
	off := 6
	for i := 0; i < groups; i++ {
		if off+6 > len(b) {
			return nil, fmt.Errorf("%w: truncated view group", ErrBadWire)
		}
		g := viewGroup{LID: LogicalID(int32(binary.LittleEndian.Uint32(b[off:])))}
		members := int(binary.LittleEndian.Uint16(b[off+4:]))
		off += 6
		for j := 0; j < members; j++ {
			if off+9 > len(b) {
				return nil, fmt.Errorf("%w: truncated view member", ErrBadWire)
			}
			g.Members = append(g.Members, viewMember{
				Phys:  scplib.ThreadID(int32(binary.LittleEndian.Uint32(b[off:]))),
				Node:  int32(binary.LittleEndian.Uint32(b[off+4:])),
				Alive: b[off+8] == 1,
			})
			off += 9
		}
		v.Groups = append(v.Groups, g)
	}
	return v, nil
}

// snapshot payload: wrapper protocol state — outbound lseq counters and
// inbound dedupe high-waters/epochs, all keyed by logical peer.
//
//	entries uint16, per entry:
//	  peer int32, lseq uint64, highwater uint64, peerEpoch uint32
type snapshot struct {
	LSeq      map[LogicalID]uint64
	HighWater map[LogicalID]uint64
	PeerEpoch map[LogicalID]uint32
}

func newSnapshot() *snapshot {
	return &snapshot{
		LSeq:      make(map[LogicalID]uint64),
		HighWater: make(map[LogicalID]uint64),
		PeerEpoch: make(map[LogicalID]uint32),
	}
}

const snapEntryBytes = 24

func encodeSnapshot(s *snapshot) []byte {
	keys := make(map[LogicalID]struct{})
	for k := range s.LSeq {
		keys[k] = struct{}{}
	}
	for k := range s.HighWater {
		keys[k] = struct{}{}
	}
	ordered := make([]LogicalID, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	// Deterministic order.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j] < ordered[j-1]; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	buf := make([]byte, 2+snapEntryBytes*len(ordered))
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(ordered)))
	off := 2
	for _, k := range ordered {
		binary.LittleEndian.PutUint32(buf[off:], uint32(k))
		binary.LittleEndian.PutUint64(buf[off+4:], s.LSeq[k])
		binary.LittleEndian.PutUint64(buf[off+12:], s.HighWater[k])
		binary.LittleEndian.PutUint32(buf[off+20:], s.PeerEpoch[k])
		off += snapEntryBytes
	}
	return buf
}

func decodeSnapshot(b []byte) (*snapshot, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: snapshot %d bytes", ErrBadWire, len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[0:]))
	if len(b) < 2+snapEntryBytes*n {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrBadWire)
	}
	s := newSnapshot()
	off := 2
	for i := 0; i < n; i++ {
		k := LogicalID(int32(binary.LittleEndian.Uint32(b[off:])))
		s.LSeq[k] = binary.LittleEndian.Uint64(b[off+4:])
		s.HighWater[k] = binary.LittleEndian.Uint64(b[off+12:])
		s.PeerEpoch[k] = binary.LittleEndian.Uint32(b[off+20:])
		off += snapEntryBytes
	}
	return s, nil
}

// snapReq payload: the group being snapshotted (int32) plus the phys id
// of the regenerated replica (int32) for correlation.
func encodeSnapReq(lid LogicalID, corr scplib.ThreadID) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(lid))
	binary.LittleEndian.PutUint32(buf[4:], uint32(corr))
	return buf
}

func decodeSnapReq(b []byte) (LogicalID, scplib.ThreadID, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("%w: snapreq %d bytes", ErrBadWire, len(b))
	}
	return LogicalID(int32(binary.LittleEndian.Uint32(b[0:]))),
		scplib.ThreadID(int32(binary.LittleEndian.Uint32(b[4:]))), nil
}

// snapResp payload: correlation id then snapshot bytes.
func encodeSnapResp(corr scplib.ThreadID, snap []byte) []byte {
	buf := make([]byte, 4+len(snap))
	binary.LittleEndian.PutUint32(buf[0:], uint32(corr))
	copy(buf[4:], snap)
	return buf
}

func decodeSnapResp(b []byte) (scplib.ThreadID, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: snapresp %d bytes", ErrBadWire, len(b))
	}
	return scplib.ThreadID(int32(binary.LittleEndian.Uint32(b[0:]))), b[4:], nil
}

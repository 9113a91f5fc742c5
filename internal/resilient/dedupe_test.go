package resilient

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDedupeBasic(t *testing.T) {
	d := newDedupe()
	if !d.accept(1, 1, 1) {
		t.Fatal("first lseq rejected")
	}
	if d.accept(1, 1, 1) {
		t.Fatal("duplicate accepted")
	}
	if !d.accept(1, 1, 2) {
		t.Fatal("next lseq rejected")
	}
	// Different peer, same lseq: independent space.
	if !d.accept(2, 1, 1) {
		t.Fatal("other peer rejected")
	}
}

func TestDedupeOutOfOrder(t *testing.T) {
	d := newDedupe()
	// Replica interleaving: 3 arrives before 2.
	if !d.accept(1, 1, 1) || !d.accept(1, 1, 3) {
		t.Fatal("out-of-order first copies rejected")
	}
	if d.accept(1, 1, 3) || d.accept(1, 1, 1) {
		t.Fatal("duplicates accepted")
	}
	if !d.accept(1, 1, 2) {
		t.Fatal("gap fill rejected")
	}
	if d.accept(1, 1, 2) {
		t.Fatal("gap fill duplicate accepted")
	}
	// High-water must have compacted to 3: the sparse set is empty.
	p := d.peers[1]
	if p.highWater != 3 || len(p.above) != 0 {
		t.Fatalf("highWater=%d above=%v", p.highWater, p.above)
	}
}

func TestDedupeEpochs(t *testing.T) {
	d := newDedupe()
	for s := uint64(1); s <= 5; s++ {
		if !d.accept(1, 1, s) {
			t.Fatalf("epoch 1 lseq %d rejected", s)
		}
	}
	// Whole-group restart: epoch 2 resets the sequence space.
	if !d.accept(1, 2, 1) {
		t.Fatal("restarted group's lseq 1 rejected")
	}
	// Zombie traffic from the old incarnation is discarded.
	if d.accept(1, 1, 6) {
		t.Fatal("stale epoch accepted")
	}
	// New epoch continues normally.
	if !d.accept(1, 2, 2) || d.accept(1, 2, 2) {
		t.Fatal("epoch 2 sequencing broken")
	}
}

func TestDedupeExactlyOnceProperty(t *testing.T) {
	// Any shuffled multiset of duplicated sequence numbers is accepted
	// exactly once each.
	f := func(seed int64, nRaw uint8, copiesRaw uint8) bool {
		n := int(nRaw%50) + 1
		copies := int(copiesRaw%3) + 2
		rng := rand.New(rand.NewSource(seed))
		var stream []uint64
		for s := 1; s <= n; s++ {
			for c := 0; c < copies; c++ {
				stream = append(stream, uint64(s))
			}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		d := newDedupe()
		accepted := 0
		for _, s := range stream {
			if d.accept(7, 1, s) {
				accepted++
			}
		}
		return accepted == n && d.peers[7].highWater == uint64(n) && len(d.peers[7].above) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupeSnapshotRestore(t *testing.T) {
	d := newDedupe()
	for s := uint64(1); s <= 10; s++ {
		d.accept(3, 2, s)
	}
	d.accept(3, 2, 15) // sparse entry above high-water

	s := newSnapshot()
	d.snapshotInto(s)
	if s.HighWater[3] != 10 || s.PeerEpoch[3] != 2 {
		t.Fatalf("snapshot hw=%d epoch=%d", s.HighWater[3], s.PeerEpoch[3])
	}

	d2 := newDedupe()
	d2.restore(s)
	if d2.accept(3, 2, 5) {
		t.Fatal("restored state accepted old lseq")
	}
	if !d2.accept(3, 2, 11) {
		t.Fatal("restored state rejected fresh lseq")
	}
	if d2.accept(3, 1, 99) {
		t.Fatal("restored state accepted stale epoch")
	}
	// Sparse entries above the mark are intentionally not transferred:
	// 15 is re-accepted by the new replica (idempotent at app level).
	if !d2.accept(3, 2, 15) {
		t.Fatal("sparse entry unexpectedly transferred")
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := &snapshot{
		LSeq:      map[LogicalID]uint64{1: 10, 9: 2, 4: 7},
		HighWater: map[LogicalID]uint64{1: 8, 4: 7},
		PeerEpoch: map[LogicalID]uint32{1: 3, 4: 1},
	}
	b := encodeSnapshot(s)
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range s.LSeq {
		if got.LSeq[k] != v {
			t.Fatalf("LSeq[%d] = %d, want %d", k, got.LSeq[k], v)
		}
	}
	for k, v := range s.HighWater {
		if got.HighWater[k] != v {
			t.Fatalf("HighWater[%d] = %d, want %d", k, got.HighWater[k], v)
		}
	}
	for k, v := range s.PeerEpoch {
		if got.PeerEpoch[k] != v {
			t.Fatalf("PeerEpoch[%d] = %d, want %d", k, got.PeerEpoch[k], v)
		}
	}
	if _, err := decodeSnapshot([]byte{1}); err == nil {
		t.Fatal("short snapshot accepted")
	}
	if _, err := decodeSnapshot([]byte{5, 0, 1, 2}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestWireCodecs(t *testing.T) {
	// App header.
	b := append(NewFrame(7), "payload"...)[Headroom-rheaderBytes:]
	putAppHeader(b, 7, 1, 42, 99, 3, 2)
	m, view, epoch, err := decodeApp(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 7 || m.Replica != 1 || m.Kind != 42 || m.LSeq != 99 ||
		view != 3 || epoch != 2 || string(m.Payload) != "payload" {
		t.Fatalf("decoded %+v view=%d epoch=%d", m, view, epoch)
	}
	if _, _, _, err := decodeApp([]byte{1, 2}); err == nil {
		t.Fatal("short app message accepted")
	}

	// Heartbeat.
	hb := encodeHeartbeat(5, 2)
	lid, rep, err := decodeHeartbeat(hb)
	if err != nil || lid != 5 || rep != 2 {
		t.Fatalf("heartbeat: %d %d %v", lid, rep, err)
	}
	if _, _, err := decodeHeartbeat([]byte{1}); err == nil {
		t.Fatal("short heartbeat accepted")
	}

	// View table.
	v := &viewTable{
		View: 9,
		Groups: []viewGroup{
			{LID: 1, Members: []viewMember{{Phys: 11, Node: 0, Alive: true}, {Phys: 12, Node: 1, Alive: false}}},
			{LID: 2, Members: []viewMember{{Phys: 13, Node: 2, Alive: true}}},
		},
	}
	vb := encodeView(v)
	got, err := decodeView(vb)
	if err != nil {
		t.Fatal(err)
	}
	if got.View != 9 || len(got.Groups) != 2 {
		t.Fatalf("view decode: %+v", got)
	}
	if got.Groups[0].Members[1].Alive || !got.Groups[0].Members[0].Alive {
		t.Fatal("alive bits lost")
	}
	if got.Groups[1].Members[0].Phys != 13 {
		t.Fatal("phys id lost")
	}
	if _, err := decodeView([]byte{1}); err == nil {
		t.Fatal("short view accepted")
	}
	if _, err := decodeView(vb[:8]); err == nil {
		t.Fatal("truncated view accepted")
	}

	// Snap req/resp.
	rq := encodeSnapReq(3, 44)
	lid2, corr, err := decodeSnapReq(rq)
	if err != nil || lid2 != 3 || corr != 44 {
		t.Fatalf("snapreq: %d %d %v", lid2, corr, err)
	}
	if _, _, err := decodeSnapReq(nil); err == nil {
		t.Fatal("short snapreq accepted")
	}
	rp := encodeSnapResp(44, []byte{9, 9})
	corr2, body, err := decodeSnapResp(rp)
	if err != nil || corr2 != 44 || len(body) != 2 {
		t.Fatalf("snapresp: %d %v %v", corr2, body, err)
	}
	if _, _, err := decodeSnapResp([]byte{1}); err == nil {
		t.Fatal("short snapresp accepted")
	}
}

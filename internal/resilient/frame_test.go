package resilient

import (
	"bytes"
	"testing"

	"resilientfusion/internal/scplib"
)

// TestSendFrameSharesOneBuffer sends one frame to a two-replica group on
// the real runtime and checks the zero-copy contract end to end: both
// replicas' Payload is a view of the sender's own buffer — same backing
// array, no copy at any layer — and both read all of it concurrently,
// which the race detector accepts only because nobody writes a payload
// after it is sent.
func TestSendFrameSharesOneBuffer(t *testing.T) {
	sys := scplib.NewRealSystem()
	rt, err := New(sys, Config{Nodes: 3, HeartbeatPeriod: 0.05, FailTimeout: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("tile"), 1<<16)
	frame := FrameOf(want)

	type seen struct {
		first *byte
		same  bool
	}
	got := make(chan seen, 2)
	worker := func(env REnv) error {
		m, err := env.Recv()
		if err != nil {
			return err
		}
		got <- seen{first: &m.Payload[0], same: bytes.Equal(m.Payload, want)}
		return nil
	}
	manager := func(env REnv) error {
		if err := env.SendFrame(1, kindReq, frame); err != nil {
			return err
		}
		// Every replica has its copy in hand before the control plane is
		// torn down (which kills whatever is still running).
		for i := 0; i < 2; i++ {
			s := <-got
			if s.first != &frame[Headroom] {
				t.Errorf("a replica's payload starts at %p, the sender's at %p", s.first, &frame[Headroom])
			}
			if !s.same {
				t.Error("a replica read different bytes than were sent")
			}
		}
		rt.Shutdown()
		return nil
	}
	if err := rt.Add(mgrLID, "manager", []int{0}, false, manager, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, "worker", []int{1, 2}, true, worker, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

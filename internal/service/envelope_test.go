package service

import (
	"bytes"
	"runtime"
	"testing"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// sendRecorder is a scplib.Env that records what Send was handed.
type sendRecorder struct {
	scplib.Env // nil: jobEnv.SendFrame touches only Send
	sent       []byte
}

func (r *sendRecorder) Send(_ scplib.ThreadID, _ uint16, payload []byte) error {
	r.sent = payload
	return nil
}

// TestJobEnvEnvelopesInPlace pins the pool's share of the tile copy
// budget: framing a tile and wrapping it in the job envelope allocates one
// payload-sized buffer in total, the message handed to the transport is
// that buffer (envelope stamped into its headroom, payload untouched), and
// the worker's decodeEnvelope views the same bytes again.
func TestJobEnvEnvelopesInPlace(t *testing.T) {
	cube := hsi.MustNewCube(64, 64, 64) // 1 MiB: the budget's slack dwarfs bookkeeping
	for i := range cube.Data {
		cube.Data[i] = float32(i % 251)
	}
	rec := &sendRecorder{}
	je := newJobEnv(rec, 42, 0.07, 3, 1, []scplib.ThreadID{100, 101})
	size := uint64(cube.EncodedSize())

	var frame []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, err := core.AppendScreenReq(resilient.NewFrame(0), &core.ScreenReq{Cube: cube})
	if err != nil {
		t.Fatal(err)
	}
	if err := je.SendFrame(2, core.KindScreenReq, frame); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/8 {
		t.Errorf("framing and enveloping a %d-byte tile allocated %d bytes", size, got)
	}

	if &rec.sent[0] != &frame[resilient.Headroom-envelopeBytes] {
		t.Fatal("the enveloped message is not the caller's frame")
	}
	jobID, threshold, parallelism, alg, inner, err := decodeEnvelope(rec.sent)
	if err != nil || jobID != 42 || threshold != 0.07 || parallelism != 3 || alg != 1 {
		t.Fatalf("envelope decoded to job %d thr %g par %d alg %d: %v", jobID, threshold, parallelism, alg, err)
	}
	if &inner[0] != &frame[resilient.Headroom] {
		t.Error("decodeEnvelope copied the payload instead of viewing it")
	}
	want, err := core.EncodeScreenReq(&core.ScreenReq{Cube: cube})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, want) {
		t.Error("stamping the envelope disturbed the payload")
	}
}

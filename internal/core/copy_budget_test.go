package core

import (
	"runtime"
	"testing"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// allocatedBytes reports how many heap bytes f allocates (cumulative, not
// live: a buffer that is allocated and dropped still counts).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// budgetScene is a 4 MiB cube: large enough that bookkeeping allocations
// vanish inside the budgets' slack.
func budgetScene(t *testing.T) *hsi.Cube {
	t.Helper()
	s, err := hsi.GenerateScene(hsi.SceneSpec{Width: 128, Height: 128, Bands: 64, Seed: 5, NoiseSigma: 3, Illumination: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cube
}

// TestTileCopyBudget pins the tile data path's allocation budget: framing
// one tile for the wire allocates one payload-sized buffer, decoding it
// one more (the float32 samples the worker keeps), and nothing else of
// that order. A reintroduced staging buffer or defensive copy doubles one
// of the two numbers.
func TestTileCopyBudget(t *testing.T) {
	sub, err := hsi.Extract(budgetScene(t), hsi.RowRange{Y0: 0, Y1: 64})
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(sub.Cube.EncodedSize())
	budget := size + size/8

	var frame []byte
	if got := allocatedBytes(func() {
		var err error
		frame, err = AppendScreenReq(resilient.NewFrame(0), &ScreenReq{Range: sub.Range, Cube: sub.Cube})
		if err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("framing a %d-byte tile allocated %d bytes, budget %d", size, got, budget)
	}

	var req *ScreenReq
	if got := allocatedBytes(func() {
		var err error
		req, err = DecodeScreenReq(frame[resilient.Headroom:])
		if err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("decoding a %d-byte tile allocated %d bytes, budget %d", size, got, budget)
	}
	if !req.Cube.Equal(sub.Cube, 0) {
		t.Fatal("tile changed in transit")
	}

	// The reply leg: the slab is allocated once, inside the frame, and the
	// decoded view is the frame's own bytes.
	var reply, rgb []byte
	pixels := sub.Cube.Pixels()
	if got := allocatedBytes(func() { reply, rgb = newSlabFrame(sub.Range, sub.Cube.Width, pixels) }); got > uint64(3*pixels+3*pixels/4) {
		t.Errorf("a %d-pixel slab frame allocated %d bytes", pixels, got)
	}
	resp, err := DecodeTransformResp(reply[resilient.Headroom:])
	if err != nil {
		t.Fatal(err)
	}
	if &resp.RGB[0] != &rgb[0] {
		t.Error("DecodeTransformResp copied the slab instead of viewing it")
	}
}

// TestFusionCopyBudget runs whole fusions on the real runtime and bounds
// everything they allocate, in units of the cube's encoded size C — as a
// one-shot Fuse, and as the service runs every in-process job: StartJob
// at replication 1 on a live, shared RealSystem. Each
// tile is legitimately materialized four times — extracted from the
// source (1 C in total), framed (1 C), decoded to float32 by the worker
// (1 C per replica) and, for pct, staged to float64 for the kernels (2 C
// per replica) — so a pct run costs a little over 5 C, a replicated one
// a little over 8 C, and a tile-kernel run 3 C plus the kernel's own
// planes. One extra pass anywhere in core, resilient or scplib costs a
// whole C (the tree before the one-pass data path measured 7.6, 12.0 and
// 7.6 C here) and breaks the bound.
func TestFusionCopyBudget(t *testing.T) {
	cube := budgetScene(t)
	c := float64(cube.EncodedSize())
	live := scplib.NewRealSystem()
	live.Start()
	defer func() {
		live.Stop()
		live.Wait()
	}()
	for _, tc := range []struct {
		name   string
		opts   Options
		live   bool    // StartJob on the live system instead of Fuse
		budget float64 // in C
	}{
		{"pct", Options{Workers: 2, Granularity: 2, Parallelism: 1}, false, 6},
		{"pct/replicated", Options{Workers: 2, Granularity: 2, Parallelism: 1,
			Replication: 2, HeartbeatPeriod: 0.05, FailTimeout: 1}, false, 9.25},
		{"dwt", Options{Workers: 2, Granularity: 2, Parallelism: 1, Algorithm: "dwt"}, false, 6},
		{"pct/started", Options{Workers: 2, Granularity: 2, Parallelism: 1}, true, 6},
	} {
		got := float64(allocatedBytes(func() {
			var err error
			if tc.live {
				var job *RunningJob
				if job, err = StartJob(live, MemSource(cube), tc.opts, 1<<20); err == nil {
					_, err = job.Wait()
				}
			} else {
				_, err = Fuse(scplib.NewRealSystem(), cube, tc.opts)
			}
			if err != nil {
				t.Fatal(err)
			}
		}))
		t.Logf("%s: allocated %.2f C", tc.name, got/c)
		if got > tc.budget*c {
			t.Errorf("%s: fusing a %.0f-byte cube allocated %.2f C, budget %.2f C", tc.name, c, got/c, tc.budget)
		}
	}
}

package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
)

// testCube synthesizes a small distinct scene per seed.
func testCube(t testing.TB, seed int64) *hsi.Cube {
	t.Helper()
	s, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 24, Height: 24, Bands: 8, Seed: seed,
		NoiseSigma: 3, Illumination: 0.1,
		OpenVehicles: 1, CamouflagedVehicles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cube
}

func sameResult(t *testing.T, got, want *core.Result, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", label)
	}
	if got.UniqueSetSize != want.UniqueSetSize {
		t.Errorf("%s: unique set %d, want %d", label, got.UniqueSetSize, want.UniqueSetSize)
	}
	for i := range want.Eigenvalues {
		if got.Eigenvalues[i] != want.Eigenvalues[i] {
			t.Errorf("%s: eigenvalue %d differs", label, i)
			break
		}
	}
	if !bytes.Equal(got.Image.Pix, want.Image.Pix) {
		t.Errorf("%s: composite image differs from sequential reference", label)
	}
}

// TestConcurrentJobsSharedPool pushes 32 concurrent, distinct jobs
// through one pooled system and checks every result bit-for-bit against
// the sequential oracle — per-job isolation on one shared system.
func TestConcurrentJobsSharedPool(t *testing.T) {
	const jobs = 32
	pool, err := NewPool(Config{Workers: 4, MaxConcurrent: 8, QueueDepth: jobs})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	opts := core.Options{Threshold: 0.05}
	refOpts := core.Options{Workers: 4, Threshold: 0.05}

	cubes := make([]*hsi.Cube, jobs)
	want := make([]*core.Result, jobs)
	for i := range cubes {
		cubes[i] = testCube(t, int64(1000+i))
		ref, err := core.Sequential(cubes[i], refOpts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}

	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := pool.Submit(cubes[i], opts)
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, id := range ids {
		st, err := pool.Wait(id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d state %s (err %v)", i, st.State, st.Err)
		}
		if st.CacheHit {
			t.Errorf("job %d: unexpected cache hit for a distinct cube", i)
		}
		sameResult(t, st.Result, want[i], fmt.Sprintf("job %d", i))
	}

	s := pool.Stats()
	if s.Submitted != jobs || s.Completed != jobs || s.Failed != 0 {
		t.Errorf("stats after run: %+v", s)
	}
	if s.CacheHits != 0 {
		t.Errorf("distinct cubes produced %d cache hits", s.CacheHits)
	}
}

// TestResultCacheHit checks content-addressed serving: a repeated cube +
// options submission is answered from the cache, and changed options are
// not.
func TestResultCacheHit(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cube := testCube(t, 7)
	opts := core.Options{Threshold: 0.05}

	first, err := pool.Submit(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := pool.Wait(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first run: state=%s cacheHit=%v err=%v", st1.State, st1.CacheHit, st1.Err)
	}

	second, err := pool.Submit(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := pool.Wait(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("repeat run not served from cache: state=%s cacheHit=%v", st2.State, st2.CacheHit)
	}
	sameResult(t, st2.Result, st1.Result, "cached")

	if s := pool.Stats(); s.CacheHits != 1 {
		t.Errorf("cache hit counter = %d, want 1", s.CacheHits)
	}

	// A different screening threshold is a different computation.
	third, err := pool.Submit(cube, core.Options{Threshold: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := pool.Wait(third.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Error("changed options still hit the cache")
	}
	if s := pool.Stats(); s.CacheHits != 1 {
		t.Errorf("cache hits after changed options = %d, want 1", s.CacheHits)
	}
}

// TestAdmissionControl checks that the queue bounds hold: with one slot
// running and one queued, further submissions are rejected.
func TestAdmissionControl(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// A scene big enough to keep the single slot busy while we fill the
	// queue behind it.
	s, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 160, Height: 160, Bands: 48, Seed: 3,
		NoiseSigma: 4, Illumination: 0.1, OpenVehicles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := pool.Submit(s.Cube, core.Options{Algorithm: "pyramid"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := pool.Status(slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := pool.Submit(testCube(t, 1), core.Options{}); err != nil {
		t.Fatalf("queueing within capacity: %v", err)
	}
	if _, err := pool.Submit(testCube(t, 2), core.Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err=%v, want ErrQueueFull", err)
	}
	if s := pool.Stats(); s.Rejected < 1 {
		t.Errorf("rejected counter = %d", s.Rejected)
	}
}

// TestSubmitValidation covers option and cube validation plus closed-pool
// rejection.
func TestSubmitValidation(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(testCube(t, 5), core.Options{Components: 2}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("components=2 err = %v", err)
	}
	if _, err := pool.Submit(&hsi.Cube{}, core.Options{}); err == nil {
		t.Error("empty cube accepted")
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := pool.Submit(testCube(t, 5), core.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close err = %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestCloseDrainsQueuedJobs checks graceful shutdown: jobs accepted
// before Close still complete.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := pool.Submit(testCube(t, int64(40+i)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range ids {
		st, err := pool.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s after close: state=%s err=%v", id, st.State, st.Err)
		}
	}
}

// TestCacheDisabled checks that a negative CacheEntries config really
// disables content addressing: repeats recompute and no counters move.
func TestCacheDisabled(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cube := testCube(t, 9)
	for i := 0; i < 2; i++ {
		st, err := pool.Submit(cube, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = pool.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.CacheHit {
			t.Fatalf("run %d: state=%s cacheHit=%v err=%v", i, st.State, st.CacheHit, st.Err)
		}
	}
	if s := pool.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheSize != 0 {
		t.Errorf("disabled cache still counting: %+v", s)
	}
}

// TestSubmitRejectsBadGranularity pins submit-time option validation for
// the knob HTTP clients control directly.
func TestSubmitRejectsBadGranularity(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Submit(testCube(t, 5), core.Options{Granularity: -1}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("granularity=-1 err = %v", err)
	}
}

// TestFinishedJobReleasesCube pins the memory bound: a completed job must
// not keep its input cube alive while it stays queryable.
func TestFinishedJobReleasesCube(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	st, err := pool.Submit(testCube(t, 11), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	cube := pool.jobs[st.ID].cube
	pool.mu.Unlock()
	if cube != nil {
		t.Error("finished job still references its input cube")
	}
}

// TestSubmitBoundsDecomposition pins the sub-cube cap that protects the
// fixed-depth mailboxes from client-chosen granularity.
func TestSubmitBoundsDecomposition(t *testing.T) {
	pool, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Submit(testCube(t, 5), core.Options{Granularity: 100000}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("huge granularity err = %v", err)
	}
	st, err := pool.Submit(testCube(t, 5), core.Options{Granularity: 4})
	if err != nil {
		t.Fatalf("reasonable granularity rejected: %v", err)
	}
	if st, err = pool.Wait(st.ID); err != nil || st.State != StateDone {
		t.Fatalf("granularity-4 job: %v / %+v", err, st)
	}
}

// TestSubmitRejectsBadThreshold pins synchronous rejection of thresholds
// the screening kernel would refuse at run time.
func TestSubmitRejectsBadThreshold(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, thr := range []float64{-1, 4, math.NaN()} {
		if _, err := pool.Submit(testCube(t, 5), core.Options{Threshold: thr}); !errors.Is(err, core.ErrBadOptions) {
			t.Errorf("threshold=%g err = %v", thr, err)
		}
	}
}

// TestResultRetentionWindow pins the composite-retention bound: old
// finished jobs keep scalar results but drop the image.
func TestResultRetentionWindow(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, RetainResults: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := pool.Submit(testCube(t, int64(60+i)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = pool.Wait(st.ID); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %v %+v", i, err, st)
		}
		ids = append(ids, st.ID)
	}
	// Oldest job: scalar results remain, image gone.
	st, err := pool.Status(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.UniqueSetSize == 0 {
		t.Fatal("stripped job lost its scalar results")
	}
	if st.Result.Image != nil {
		t.Error("old job still holds its composite image")
	}
	if _, err := pool.ImagePNG(ids[0]); err == nil {
		t.Error("ImagePNG served an aged-out composite")
	}
	// Newest job keeps its image.
	if data, err := pool.ImagePNG(ids[2]); err != nil || len(data) == 0 {
		t.Errorf("recent job image: %v (%d bytes)", err, len(data))
	}
}

// TestSubmitGranularityOverflow pins the overflow guard on the
// decomposition bound.
func TestSubmitGranularityOverflow(t *testing.T) {
	pool, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	huge := int(^uint(0) >> 1) // max int: Granularity*Workers overflows
	if _, err := pool.Submit(testCube(t, 5), core.Options{Granularity: huge}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("max-int granularity err = %v", err)
	}
}

// TestSubmittedCountsAcceptedOnly pins the counter semantics: rejected
// submissions must not inflate Submitted.
func TestSubmittedCountsAcceptedOnly(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 96, Height: 96, Bands: 24, Seed: 3,
		NoiseSigma: 4, Illumination: 0.1, OpenVehicles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(s.Cube, core.Options{Threshold: 0.02}); err != nil {
		t.Fatal(err)
	}
	accepted, rejected := int64(1), int64(0)
	for i := 0; i < 6; i++ {
		_, err := pool.Submit(testCube(t, int64(70+i)), core.Options{})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Submitted != accepted || st.Rejected != rejected {
		t.Errorf("stats submitted=%d rejected=%d, want %d/%d", st.Submitted, st.Rejected, accepted, rejected)
	}
}

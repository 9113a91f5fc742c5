package fusionclient_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image/png"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/service"
)

// startService spins up a real pool behind an httptest server and
// returns a client for it — every test drives the SDK against the
// actual wire contract, not a mock.
func startService(t *testing.T, cfg service.Config) (*fusionclient.Client, *service.Pool) {
	t.Helper()
	pool, err := service.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return fusionclient.New(srv.URL, fusionclient.WithHTTPClient(srv.Client())), pool
}

func testCube(t *testing.T, seed int64) *hsi.Cube {
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

// TestSubmitWaitResult is the SDK happy path: submit, wait via
// server-side long-poll, inspect canonical options, fetch both result
// forms, list jobs, read stats.
func TestSubmitWaitResult(t *testing.T) {
	client, _ := startService(t, service.Config{Workers: 2, MaxConcurrent: 2})
	ctx := context.Background()
	cube := testCube(t, 11)

	job, err := client.SubmitCube(ctx, cube, &fusionclient.Options{Threshold: fusionclient.Float(0.05), Granularity: fusionclient.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatal("no job id")
	}
	job, err = client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != fusionclient.StateDone {
		t.Fatalf("state %s (error %q)", job.State, job.Error)
	}
	if job.Result == nil || job.Result.UniqueSetSize == 0 || job.Result.PhaseTimes.Total <= 0 {
		t.Fatalf("result summary: %+v", job.Result)
	}
	if o := job.Options; o == nil || o.Threshold != 0.05 || o.Granularity != 3 || o.Workers != 2 {
		t.Fatalf("canonical options echo: %+v", o)
	}

	sum, err := client.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.UniqueSetSize != job.Result.UniqueSetSize || len(sum.Eigenvalues) == 0 {
		t.Fatalf("summary %+v vs job result %+v", sum, job.Result)
	}

	data, err := client.ResultPNG(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != cube.Width || b.Dy() != cube.Height {
		t.Errorf("composite %dx%d, cube %dx%d", b.Dx(), b.Dy(), cube.Width, cube.Height)
	}

	jobs, err := client.Jobs(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("jobs list: %+v", jobs)
	}
	if jobs, err = client.Jobs(ctx, fusionclient.StateFailed, 0); err != nil || len(jobs) != 0 {
		t.Errorf("failed filter: %v jobs, err=%v", len(jobs), err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Workers != 2 {
		t.Errorf("stats: %+v", st)
	}

	// Resubmission of the identical cube + options is a cache hit,
	// terminal straight from SubmitCube — no Wait needed. SubmitHSIC
	// hits the same cache entry: the two entrypoints send the same bytes.
	repeat, err := client.SubmitCube(ctx, cube, &fusionclient.Options{Threshold: fusionclient.Float(0.05), Granularity: fusionclient.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.CacheHit || repeat.State != fusionclient.StateDone {
		t.Errorf("repeat: state=%s hit=%v", repeat.State, repeat.CacheHit)
	}
	var hsic bytes.Buffer
	if _, err := cube.WriteTo(&hsic); err != nil {
		t.Fatal(err)
	}
	rawRepeat, err := client.SubmitHSIC(ctx, &hsic, &fusionclient.Options{Threshold: fusionclient.Float(0.05), Granularity: fusionclient.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !rawRepeat.CacheHit || rawRepeat.State != fusionclient.StateDone {
		t.Errorf("SubmitHSIC repeat: state=%s hit=%v", rawRepeat.State, rawRepeat.CacheHit)
	}

	// An explicit zero knob means "pool default": the echo shows the
	// default, not zero.
	zeroed, err := client.SubmitCube(ctx, cube, &fusionclient.Options{Threshold: fusionclient.Float(0.05), Granularity: fusionclient.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if zeroed.Options == nil || zeroed.Options.Granularity != 2 {
		t.Errorf("granularity=0 echo: %+v, want default 2", zeroed.Options)
	}
	if _, err := client.Wait(ctx, zeroed.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSceneFlow covers the streaming scene lifecycle through the SDK,
// ending with the scene composite byte-identical to the in-memory
// submission of the same cube (shared content-addressed cache).
func TestSceneFlow(t *testing.T) {
	client, _ := startService(t, service.Config{Workers: 2, MaxConcurrent: 2})
	ctx := context.Background()
	cube := testCube(t, 12)

	// Write the cube as an ENVI BIL scene and upload it streaming.
	dir := t.TempDir()
	rawPath := filepath.Join(dir, "scene.raw")
	if err := scene.Write(rawPath, cube, scene.BIL); err != nil {
		t.Fatal(err)
	}
	hdrText, err := os.ReadFile(rawPath + ".hdr")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.Open(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	info, err := client.RegisterScene(ctx, string(hdrText), raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Width != cube.Width || info.Height != cube.Height || info.Bands != cube.Bands {
		t.Fatalf("scene info %+v vs cube %v", info, cube)
	}
	scenes, err := client.Scenes(ctx)
	if err != nil || len(scenes) != 1 || scenes[0].ID != info.ID {
		t.Fatalf("scenes list: %+v err=%v", scenes, err)
	}
	if got, err := client.Scene(ctx, info.ID); err != nil || got.Digest != info.Digest {
		t.Fatalf("scene info: %+v err=%v", got, err)
	}

	job, err := client.FuseScene(ctx, info.ID, &fusionclient.Options{Threshold: fusionclient.Float(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if job.SceneID != info.ID {
		t.Fatalf("scene job not tagged: %+v", job)
	}
	job, err = client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != fusionclient.StateDone {
		t.Fatalf("scene fuse: state %s (error %q)", job.State, job.Error)
	}
	if job.Progress == nil || job.Progress.Transformed != job.Progress.Total || job.Progress.Total == 0 {
		t.Errorf("scene progress: %+v", job.Progress)
	}
	scenePNG, err := client.ResultPNG(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The identical cube through the in-memory path: digest-matched
	// cache hit, byte-identical composite.
	memJob, err := client.SubmitCube(ctx, cube, &fusionclient.Options{Threshold: fusionclient.Float(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if !memJob.Terminal() {
		if memJob, err = client.Wait(ctx, memJob.ID); err != nil {
			t.Fatal(err)
		}
	}
	if !memJob.CacheHit {
		t.Error("in-memory resubmission missed the scene's cache entry")
	}
	memPNG, err := client.ResultPNG(ctx, memJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scenePNG, memPNG) {
		t.Error("scene composite differs from in-memory composite")
	}

	if err := client.RemoveScene(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Scene(ctx, info.ID); fusionclient.ErrorCode(err) != fusionclient.CodeUnknownScene {
		t.Errorf("removed scene lookup: %v", err)
	}
}

// TestTypedErrors pins the satellite guarantee: service failures
// round-trip the HTTP boundary as *APIError with the stable codes.
func TestTypedErrors(t *testing.T) {
	client, _ := startService(t, service.Config{Workers: 2, MaxSceneBytes: 1024})
	ctx := context.Background()

	// Unknown job, via every accessor.
	for name, call := range map[string]func() error{
		"Job":       func() error { _, err := client.Job(ctx, "job-999"); return err },
		"Wait":      func() error { _, err := client.Wait(ctx, "job-999"); return err },
		"Result":    func() error { _, err := client.Result(ctx, "job-999"); return err },
		"ResultPNG": func() error { _, err := client.ResultPNG(ctx, "job-999"); return err },
	} {
		err := call()
		var ae *fusionclient.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("%s: error %v is not an *APIError", name, err)
		}
		if ae.Code != fusionclient.CodeUnknownJob || ae.HTTPStatus != 404 || ae.Message == "" {
			t.Errorf("%s: %+v", name, ae)
		}
	}

	// Bad option value.
	_, err := client.SubmitCube(ctx, testCube(t, 13), &fusionclient.Options{Threshold: fusionclient.Float(7)})
	if fusionclient.ErrorCode(err) != fusionclient.CodeBadOption {
		t.Errorf("threshold=7: %v (code %q)", err, fusionclient.ErrorCode(err))
	}
	_, err = client.SubmitCube(ctx, testCube(t, 13), &fusionclient.Options{Components: fusionclient.Int(2)})
	if fusionclient.ErrorCode(err) != fusionclient.CodeBadOption {
		t.Errorf("components=2: %v (code %q)", err, fusionclient.ErrorCode(err))
	}

	// Unknown scene.
	if _, err := client.FuseScene(ctx, "scene-999", nil); fusionclient.ErrorCode(err) != fusionclient.CodeUnknownScene {
		t.Errorf("fuse unknown scene: %v", err)
	}
	if err := client.RemoveScene(ctx, "scene-999"); fusionclient.ErrorCode(err) != fusionclient.CodeUnknownScene {
		t.Errorf("remove unknown scene: %v", err)
	}

	// Scene over the pool's byte budget → payload_too_large.
	cube := testCube(t, 14) // 24*24*8*4 = 18432 bytes > 1024
	dir := t.TempDir()
	rawPath := filepath.Join(dir, "big.raw")
	if err := scene.Write(rawPath, cube, scene.BIP); err != nil {
		t.Fatal(err)
	}
	hdrText, err := os.ReadFile(rawPath + ".hdr")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.Open(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_, err = client.RegisterScene(ctx, string(hdrText), raw)
	var ae *fusionclient.APIError
	if !errors.As(err, &ae) || ae.Code != fusionclient.CodePayloadTooLarge || ae.HTTPStatus != 413 {
		t.Errorf("oversized scene: %v", err)
	}

	// Truncated payload → bad_payload (a scene small enough to clear
	// the byte budget, cut short on the wire).
	small := &hsi.Cube{Width: 4, Height: 4, Bands: 2, Data: make([]float32, 32)}
	smallPath := filepath.Join(dir, "small.raw")
	if err := scene.Write(smallPath, small, scene.BIP); err != nil {
		t.Fatal(err)
	}
	smallHdr, err := os.ReadFile(smallPath + ".hdr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RegisterScene(ctx, string(smallHdr), bytes.NewReader(make([]byte, 64))); fusionclient.ErrorCode(err) != fusionclient.CodeBadPayload {
		t.Errorf("truncated scene: %v", err)
	}

	// Garbage header → bad_payload (client-caused, not internal).
	if _, err := client.RegisterScene(ctx, "not an envi header", bytes.NewReader(nil)); fusionclient.ErrorCode(err) != fusionclient.CodeBadPayload {
		t.Errorf("garbage header: %v", err)
	}
}

// TestWaitDeadline bounds Wait by the caller's context: waiting on a job
// that cannot finish yet returns the context error, promptly.
func TestWaitDeadline(t *testing.T) {
	client, pool := startService(t, service.Config{
		Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1,
	})
	ctx := context.Background()

	// Wedge the single dispatcher, then queue a second job behind it.
	big, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 256, Height: 256, Bands: 96, Seed: 3,
		NoiseSigma: 6, Illumination: 0.15, OpenVehicles: 3, CamouflagedVehicles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := client.SubmitCube(ctx, big.Cube, &fusionclient.Options{Threshold: fusionclient.Float(0.008)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.SubmitCube(ctx, testCube(t, 15), nil)
	if err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Wait(short, queued.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short wait err=%v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("50ms-bounded wait took %v", elapsed)
	}

	// An already-lapsed deadline must surface as an error even before
	// the context's timer fires — never (nil, nil).
	past, cancelPast := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancelPast()
	if job, err := client.Wait(past, queued.ID); err == nil {
		t.Fatalf("lapsed-deadline wait returned job=%v with nil error", job)
	}

	// Both jobs still complete under a patient wait.
	for _, id := range []string{slow.ID, queued.ID} {
		job, err := client.Wait(ctx, id)
		if err != nil || job.State != fusionclient.StateDone {
			t.Fatalf("%s: state=%v err=%v", id, job, err)
		}
	}
	_ = pool
}

// TestAlgorithmAndCancel exercises the two newest SDK surfaces end to
// end: submitting with a non-default fusion algorithm (echoed back in
// canonical form) and canceling a queued job with the typed conflict
// errors on every non-cancelable state.
func TestAlgorithmAndCancel(t *testing.T) {
	client, pool := startService(t, service.Config{
		Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1,
	})
	ctx := context.Background()

	if _, err := client.Cancel(ctx, "job-999"); fusionclient.ErrorCode(err) != fusionclient.CodeUnknownJob {
		t.Errorf("cancel unknown job: %v", err)
	}
	if _, err := client.SubmitCube(ctx, testCube(t, 16), &fusionclient.Options{Algorithm: fusionclient.String("median")}); fusionclient.ErrorCode(err) != fusionclient.CodeBadOption {
		t.Errorf("unknown algorithm: %v", err)
	}

	// Wedge the single dispatcher so the pyramid job queues behind it,
	// observable long enough to cancel over HTTP.
	big, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 256, Height: 256, Bands: 96, Seed: 3,
		NoiseSigma: 6, Illumination: 0.15, OpenVehicles: 3, CamouflagedVehicles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := client.SubmitCube(ctx, big.Cube, &fusionclient.Options{Threshold: fusionclient.Float(0.008)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.SubmitCube(ctx, testCube(t, 17), nil)
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != fusionclient.StateQueued {
		t.Fatalf("expected a queued job behind the wedge, got %s", queued.State)
	}

	canceled, err := client.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != fusionclient.StateCanceled || !canceled.Terminal() || canceled.Finished == nil {
		t.Fatalf("canceled job: %+v", canceled)
	}
	var ae *fusionclient.APIError
	if _, err := client.Cancel(ctx, queued.ID); !errors.As(err, &ae) ||
		ae.Code != fusionclient.CodeJobNotCancelable || ae.HTTPStatus != http.StatusConflict {
		t.Errorf("re-cancel: %v", err)
	}

	// The wedge finishes untouched and is then past canceling too.
	if job, err := client.Wait(ctx, slow.ID); err != nil || job.State != fusionclient.StateDone {
		t.Fatalf("slow job: %+v err=%v", job, err)
	}
	if _, err := client.Cancel(ctx, slow.ID); fusionclient.ErrorCode(err) != fusionclient.CodeJobNotCancelable {
		t.Errorf("cancel done job: %v", err)
	}
	if jobs, err := client.Jobs(ctx, fusionclient.StateCanceled, 0); err != nil || len(jobs) != 1 || jobs[0].ID != queued.ID {
		t.Errorf("canceled filter: %+v err=%v", jobs, err)
	}

	// A non-default algorithm rides the same submit path: canonical echo,
	// terminal completion, and a composite of the cube's dimensions.
	cube := testCube(t, 18)
	job, err := client.SubmitCube(ctx, cube, &fusionclient.Options{Algorithm: fusionclient.String("Pyramid")})
	if err != nil {
		t.Fatal(err)
	}
	if job.Options == nil || job.Options.Algorithm != "pyramid" {
		t.Fatalf("algorithm echo: %+v", job.Options)
	}
	if job, err = client.Wait(ctx, job.ID); err != nil || job.State != fusionclient.StateDone {
		t.Fatalf("pyramid job: %+v err=%v", job, err)
	}
	data, err := client.ResultPNG(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != cube.Width || b.Dy() != cube.Height {
		t.Errorf("pyramid composite %dx%d, cube %dx%d", b.Dx(), b.Dy(), cube.Width, cube.Height)
	}
	_ = pool
}

// TestRetryAfterSurfaced pins the queue_full backoff contract: the
// server's Retry-After header arrives as APIError.RetryAfter.
func TestRetryAfterSurfaced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"queue_full","message":"job queue full"}}`)
	}))
	defer srv.Close()
	client := fusionclient.New(srv.URL, fusionclient.WithHTTPClient(srv.Client()))

	_, err := client.Job(context.Background(), "job-1")
	var ae *fusionclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if ae.Code != fusionclient.CodeQueueFull || ae.RetryAfter != time.Second {
		t.Fatalf("queue_full envelope: %+v", ae)
	}
}

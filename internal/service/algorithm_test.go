package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// TestAlgorithmCacheIsolation is the cache-key regression for the
// algorithm knob: the same cube fused with different algorithms must
// occupy distinct cache entries (never cross-hit the LRU), while every
// spelling of the default — absent, "pct", "PCT" — shares one entry.
func TestAlgorithmCacheIsolation(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cube := testCube(t, 41)

	run := func(alg string) JobStatus {
		t.Helper()
		st, err := pool.Submit(cube, core.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("submit %q: %v", alg, err)
		}
		if st, err = pool.Wait(st.ID); err != nil {
			t.Fatalf("wait %q: %v", alg, err)
		}
		if st.State != StateDone {
			t.Fatalf("algorithm %q: state %s (err %v)", alg, st.State, st.Err)
		}
		return st
	}

	pct := run("")
	if pct.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}

	// A different algorithm on the identical cube is a different result
	// key: it must miss the cache and produce a different composite.
	pyr := run("pyramid")
	if pyr.CacheHit {
		t.Error("pyramid submission cross-hit the pct cache entry")
	}
	if bytes.Equal(pyr.Result.Image.Pix, pct.Result.Image.Pix) {
		t.Error("pyramid composite identical to pct composite")
	}

	// Default spellings all resolve to the pct entry...
	for _, alg := range []string{"pct", "PCT", "  pct "} {
		st := run(alg)
		if !st.CacheHit {
			t.Errorf("algorithm %q missed the pct cache entry", alg)
		}
		if !bytes.Equal(st.Result.Image.Pix, pct.Result.Image.Pix) {
			t.Errorf("algorithm %q served a different composite", alg)
		}
	}
	// ...and the pyramid entry still answers its own spelling.
	if st := run("Pyramid"); !st.CacheHit || !bytes.Equal(st.Result.Image.Pix, pyr.Result.Image.Pix) {
		t.Errorf("pyramid resubmission: hit=%v", st.CacheHit)
	}
}

// TestCancelLifecycle drives Pool.Cancel through every branch: a queued
// job cancels into the terminal canceled state, while unknown, running,
// done, and already-canceled jobs are rejected with the typed errors.
func TestCancelLifecycle(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, err := pool.Cancel("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown job: %v", err)
	}

	// Wedge the single dispatcher so the next submission stays queued.
	slow := submitSlow(t, pool)
	queued, err := pool.Submit(testCube(t, 42), core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := pool.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if st.State != StateCanceled || st.Finished.IsZero() {
		t.Fatalf("canceled snapshot: %+v", st)
	}
	// The transition is terminal: waiters return immediately with the
	// canceled state, and a second cancel is a conflict, not a repeat.
	if st, err = pool.Wait(queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("wait after cancel: %+v err=%v", st, err)
	}
	if _, err := pool.Cancel(queued.ID); !errors.Is(err, ErrJobNotCancelable) {
		t.Fatalf("re-cancel: %v", err)
	}

	// The wedge job was never queued-or-canceled: it runs to completion
	// untouched, and a done job cannot be canceled either.
	if st, err = pool.Wait(slow.ID); err != nil || st.State != StateDone {
		t.Fatalf("slow job after cancel: %+v err=%v", st, err)
	}
	if _, err := pool.Cancel(slow.ID); !errors.Is(err, ErrJobNotCancelable) {
		t.Fatalf("cancel done job: %v", err)
	}

	canceled := pool.Jobs(StateCanceled, 0)
	if len(canceled) != 1 || canceled[0].ID != queued.ID {
		t.Errorf("canceled listing: %+v", canceled)
	}
	if s := pool.Stats(); s.Completed != 1 || s.Failed != 0 {
		t.Errorf("stats after cancel: %+v", s)
	}
}

// TestV2CancelEndpoint covers DELETE /v2/jobs/{id}: 200 with the
// canceled resource for a queued job, 409 job_not_cancelable once
// terminal, 404 unknown_job for absent ids.
func TestV2CancelEndpoint(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	del := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	wantEnvelope(t, del("job-999"), http.StatusNotFound, fusionclient.CodeUnknownJob)

	submitSlow(t, pool)
	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 43), "")
	queued := decodeJob(t, resp)
	if queued.State != StateQueued {
		t.Fatalf("expected a queued job behind the wedge, got %s", queued.State)
	}

	resp = del(queued.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	if job := decodeJob(t, resp); job.State != StateCanceled || job.Finished == nil {
		t.Fatalf("canceled resource: %+v", job)
	}
	wantEnvelope(t, del(queued.ID), http.StatusConflict, fusionclient.CodeJobNotCancelable)

	// The canceled state is visible through the list filter.
	r, err := client.Get(srv.URL + "/v2/jobs?state=canceled")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("canceled filter status %d", r.StatusCode)
	}
}

// TestV2AlgorithmOption threads the algorithm knob across the v2 wire:
// the JSON option selects the kernel, the canonical echo reports it, and
// unknown names are rejected with bad_option before admission.
func TestV2AlgorithmOption(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 44), `{"algorithm":"DWT"}`)
	job := decodeJob(t, resp)
	if job.Options == nil || job.Options.Algorithm != "dwt" {
		t.Fatalf("canonical echo: %+v", job.Options)
	}
	st, err := pool.Wait(job.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("dwt job: %+v err=%v", st, err)
	}
	if st.Options.Algorithm != "dwt" {
		t.Errorf("final snapshot algorithm %q", st.Options.Algorithm)
	}

	resp = postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 44), `{"algorithm":"median"}`)
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)

	// The scene fuse decodes the same options body: a pyramid fusion
	// of a registered scene echoes the canonical name too.
	hdr, data := enviPayload(t, testCube(t, 45), scene.BIL)
	info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.Post(srv.URL+"/v2/scenes/"+info.ID+"/fuse", "application/json",
		strings.NewReader(`{"algorithm":"Pyramid"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("scene fuse status %d", r.StatusCode)
	}
	if job := decodeJob(t, r); job.Options == nil || job.Options.Algorithm != "pyramid" {
		t.Fatalf("scene fuse echo: %+v", job.Options)
	}
	r, err = client.Post(srv.URL+"/v2/scenes/"+info.ID+"/fuse", "application/json",
		strings.NewReader(`{"algorithm":"median"}`))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadOption)
}

// TestPCTNeedsComponentBands: pct keeps Components principal components,
// so a cube with fewer bands than that can never fuse. Both submission
// routes reject it synchronously as bad_option instead of accepting a
// job that fails after holding a queue slot; the tile algorithms fuse
// any band count and keep accepting such cubes.
func TestPCTNeedsComponentBands(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	for _, tc := range []struct {
		bands   int
		options string
		reject  bool
	}{
		{1, `{"algorithm": "pct"}`, true},
		{2, `{}`, true},
		{3, `{"algorithm": "pct", "components": 4}`, true},
		{3, `{"algorithm": "pct"}`, false},
		{4, `{"components": 4}`, false},
		{1, `{"algorithm": "pyramid"}`, false},
		{2, `{"algorithm": "pyramid"}`, false},
		{1, `{"algorithm": "dwt"}`, false},
		{2, `{"algorithm": "dwt"}`, false},
	} {
		cube := hsi.MustNewCube(16, 16, tc.bands)
		for i := range cube.Data {
			cube.Data[i] = float32((i*7919)%251) + 1
		}
		hdr, data := enviPayload(t, cube, scene.BIL)
		info := registerScene(t, client, srv.URL, hdr, data)
		for _, route := range []string{"jobs", "scene"} {
			var resp *http.Response
			if route == "jobs" {
				resp = postCubeV2(t, client, srv.URL+"/v2/jobs", cube, tc.options)
			} else {
				resp = fuseScene(t, client, srv.URL, info.ID, tc.options)
			}
			if tc.reject {
				wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)
				continue
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%d bands %s via %s: status %d", tc.bands, tc.options, route, resp.StatusCode)
			}
			if job := pollJob(t, client, srv.URL, decodeJob(t, resp).ID); job.State != StateDone {
				t.Fatalf("%d bands %s via %s: state %s (error %q)", tc.bands, tc.options, route, job.State, job.Error)
			}
		}
	}
}

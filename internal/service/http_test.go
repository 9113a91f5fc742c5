package service

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"image/png"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// postCubeV2 submits a cube through the v2 multipart form, with an
// optional options JSON document.
func postCubeV2(t *testing.T, client *http.Client, url string, cube *hsi.Cube, optionsJSON string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if optionsJSON != "" {
		ow, err := mw.CreateFormField("options")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(ow, optionsJSON); err != nil {
			t.Fatal(err)
		}
	}
	cw, err := mw.CreateFormFile("cube", "cube.hsic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.WriteTo(cw); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := client.Post(url, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) fusionclient.Job {
	t.Helper()
	defer resp.Body.Close()
	var out fusionclient.Job
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantEnvelope asserts the response is a structured error envelope with
// the wanted status and code.
func wantEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("code %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty message for code %q", env.Error.Code)
	}
}

// TestV2SubmitLongPollResult drives the v2 surface end to end: multipart
// submit with a JSON options body, one long-poll request straight to the
// terminal state (no client-side polling loop), canonical options echoed
// with defaults filled, and the result artifact under both content
// negotiations.
func TestV2SubmitLongPollResult(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	cube := testCube(t, 21)
	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", cube, `{"threshold": 0.05, "granularity": 3}`)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	job := decodeJob(t, resp)
	if job.ID == "" {
		t.Fatal("no job id")
	}
	if job.Options == nil {
		t.Fatal("submission response missing canonical options echo")
	}

	// One long-poll returns the terminal state.
	r, err := client.Get(srv.URL + "/v2/jobs/" + job.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status %d", r.StatusCode)
	}
	job = decodeJob(t, r)
	if job.State != StateDone {
		t.Fatalf("long-poll state %s, want done (error %q)", job.State, job.Error)
	}
	if job.Result == nil || job.Result.UniqueSetSize == 0 {
		t.Fatalf("missing result summary: %+v", job.Result)
	}

	// Canonical options: explicit knobs kept, defaults filled, pool
	// policy (workers) visible.
	o := job.Options
	if o == nil {
		t.Fatal("job status missing options echo")
	}
	if o.Threshold != 0.05 || o.Granularity != 3 {
		t.Errorf("explicit options not echoed: %+v", o)
	}
	if o.Workers != 2 || o.Components != 3 || o.Prefetch != 1 {
		t.Errorf("defaults not canonicalized in echo: %+v", o)
	}

	// JSON summary by default.
	r, err = client.Get(srv.URL + "/v2/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default result content type %q", ct)
	}
	var sum fusionclient.ResultSummary
	if err := json.NewDecoder(r.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if sum.UniqueSetSize != job.Result.UniqueSetSize {
		t.Errorf("summary K=%d, status K=%d", sum.UniqueSetSize, job.Result.UniqueSetSize)
	}

	// PNG when asked for.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/jobs/"+job.ID+"/result", nil)
	req.Header.Set("Accept", "image/png")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("negotiated content type %q", ct)
	}
	img, err := png.Decode(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != cube.Width || b.Dy() != cube.Height {
		t.Errorf("composite %dx%d, cube %dx%d", b.Dx(), b.Dy(), cube.Width, cube.Height)
	}

	// image/png;q=0 explicitly refuses the image (RFC 9110): JSON wins.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v2/jobs/"+job.ID+"/result", nil)
	req.Header.Set("Accept", "image/png;q=0, application/json")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("q=0 refusal served content type %q, want JSON", ct)
	}
}

// TestV2ErrorEnvelope walks the v2 failure paths and asserts each one's
// stable machine-readable code.
func TestV2ErrorEnvelope(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()
	cube := testCube(t, 2)

	// Unknown option key in the JSON body.
	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", cube, `{"granularty": 8}`)
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)

	// Malformed options JSON.
	resp = postCubeV2(t, client, srv.URL+"/v2/jobs", cube, `{"granularity": }`)
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)

	// Trailing junk after the options object.
	resp = postCubeV2(t, client, srv.URL+"/v2/jobs", cube, `{"granularity": 2} {"x": 1}`)
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)

	// Out-of-range option value (validated at submit).
	resp = postCubeV2(t, client, srv.URL+"/v2/jobs", cube, `{"threshold": 7}`)
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)

	// Non-multipart body.
	r, err := client.Post(srv.URL+"/v2/jobs", "application/octet-stream", strings.NewReader("raw"))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadPayload)

	// Garbage cube part.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	cw, _ := mw.CreateFormFile("cube", "cube.hsic")
	io.WriteString(cw, "not a cube")
	mw.Close()
	r, err = client.Post(srv.URL+"/v2/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadPayload)

	// A part trailing the cube (here: options in the wrong order) must
	// be rejected, not silently dropped.
	body.Reset()
	mw = multipart.NewWriter(&body)
	cw, _ = mw.CreateFormFile("cube", "cube.hsic")
	if _, err := cube.WriteTo(cw); err != nil {
		t.Fatal(err)
	}
	ow, _ := mw.CreateFormField("options")
	io.WriteString(ow, `{"threshold": 0.5}`)
	mw.Close()
	r, err = client.Post(srv.URL+"/v2/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadPayload)

	// Unknown job: status, long-poll, and result all 404 with the code.
	for _, path := range []string{"/v2/jobs/job-999999", "/v2/jobs/job-999999?wait=1s", "/v2/jobs/job-999999/result"} {
		r, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, r, http.StatusNotFound, fusionclient.CodeUnknownJob)
	}

	// Bad wait duration and unknown query keys.
	st, err := pool.Submit(cube, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"wait=nope", "wait=-3s", "wait=", "image=1", "wait=1s&wait=2s"} {
		r, err := client.Get(srv.URL + "/v2/jobs/" + st.ID + "?" + q)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadOption)
	}

	// Unknown scene on fuse and info.
	r, err = client.Post(srv.URL+"/v2/scenes/scene-999/fuse", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusNotFound, fusionclient.CodeUnknownScene)
	r, err = client.Get(srv.URL + "/v2/scenes/scene-999")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusNotFound, fusionclient.CodeUnknownScene)

	// Bad list filters.
	for _, q := range []string{"state=bogus", "limit=0", "limit=x", "foo=1", "state=done&state=failed"} {
		r, err := client.Get(srv.URL + "/v2/jobs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadOption)
	}

	// Endpoints that take no query parameters reject stray ones too —
	// a typo must never be silently ignored anywhere on v2.
	for _, path := range []string{
		"/v2/jobs/" + st.ID + "/result?wait=30s",
		"/v2/scenes?limit=5",
		"/v2/scenes/scene-999?verbose=1",
		"/v2/stats?workers=8",
	} {
		r, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadOption)
	}

	// Same on the mutating endpoints: v1-style query options on a v2
	// URL must fail loudly, not silently run the defaults.
	r, err = client.Post(srv.URL+"/v2/scenes/scene-999/fuse?threshold=0.05", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadOption)
	resp = postCubeV2(t, client, srv.URL+"/v2/jobs?granularity=3", cube, "")
	wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)
}

// TestV2OversizedCube maps an over-limit upload to payload_too_large.
func TestV2OversizedCube(t *testing.T) {
	old := maxCubeBytes
	maxCubeBytes = 64
	defer func() { maxCubeBytes = old }()

	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	resp := postCubeV2(t, srv.Client(), srv.URL+"/v2/jobs", testCube(t, 2), "")
	wantEnvelope(t, resp, http.StatusRequestEntityTooLarge, fusionclient.CodePayloadTooLarge)
}

// TestV2QueueFullAndNotFinished exercises admission rejection and the
// not-finished result conflict against a deliberately wedged pool: the
// single dispatcher is busy with a slow job, so later submissions stack
// up in a depth-1 queue.
func TestV2QueueFullAndNotFinished(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	// A fusion big enough to keep the single slot busy while the queue
	// fills behind it over HTTP round trips.
	submitSlow(t, pool)

	// One job fits the depth-1 queue; the next is rejected with the code.
	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 300), "")
	queued := decodeJob(t, resp)
	if queued.State != StateQueued {
		t.Fatalf("expected a queued job behind the slow one, got %s", queued.State)
	}
	resp = postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 301), "")
	if got := resp.Header.Get("Retry-After"); got != queueFullRetryAfter {
		t.Fatalf("queue_full Retry-After = %q, want %q", got, queueFullRetryAfter)
	}
	wantEnvelope(t, resp, http.StatusServiceUnavailable, fusionclient.CodeQueueFull)

	// A queued job has no result yet: the conflict code, not a 404.
	r, err := client.Get(srv.URL + "/v2/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := pool.Status(queued.ID); err == nil && st.State != StateDone && st.State != StateFailed {
		wantEnvelope(t, r, http.StatusConflict, fusionclient.CodeJobNotFinished)
	} else {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
}

// TestV2ExpiredImage maps an aged-out composite to image_expired under
// the PNG negotiation while the JSON summary keeps serving.
func TestV2ExpiredImage(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, RetainResults: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	var first string
	for i := 0; i < 3; i++ {
		st, err := pool.Submit(testCube(t, int64(80+i)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.ID
		}
		if _, err := pool.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/jobs/"+first+"/result", nil)
	req.Header.Set("Accept", "image/png")
	r, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusGone, fusionclient.CodeImageExpired)

	// The scalar summary is retained past the image window.
	r, err = srv.Client().Get(srv.URL + "/v2/jobs/" + first + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("summary after image expiry: status %d", r.StatusCode)
	}
}

// TestV2JobsList covers the listing: newest first, state filter, limit,
// and scene jobs appearing in the same unified resource.
func TestV2JobsList(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	const jobs = 4
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		st, err := pool.Submit(testCube(t, int64(500+i)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		if _, err := pool.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
	}

	list := func(query string) []fusionclient.Job {
		t.Helper()
		r, err := client.Get(srv.URL + "/v2/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("list%s status %d", query, r.StatusCode)
		}
		var out struct {
			Jobs []fusionclient.Job `json:"jobs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}

	all := list("")
	if len(all) != jobs {
		t.Fatalf("listed %d jobs, want %d", len(all), jobs)
	}
	for i := range all {
		if want := ids[jobs-1-i]; all[i].ID != want {
			t.Errorf("list[%d] = %s, want %s (newest first)", i, all[i].ID, want)
		}
		if all[i].Options == nil {
			t.Errorf("list[%d] missing options echo", i)
		}
	}
	if got := list("?limit=2"); len(got) != 2 || got[0].ID != ids[jobs-1] {
		t.Errorf("limit=2: %d jobs, first %s", len(got), got[0].ID)
	}
	if got := list("?state=done"); len(got) != jobs {
		t.Errorf("state=done: %d jobs, want %d", len(got), jobs)
	}
	if got := list("?state=failed"); len(got) != 0 {
		t.Errorf("state=failed: %d jobs, want 0", len(got))
	}
}

// TestV2SceneFlow runs the scene lifecycle through v2: register, fuse
// with a JSON options body, long-poll to done, fetch the composite, and
// remove — plus the scene-specific failure codes.
func TestV2SceneFlow(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxScenes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	cube := testCube(t, 33)
	hdr, payload := enviPayload(t, cube, scene.BIL)

	post := func(hdrText string, data []byte) *http.Response {
		t.Helper()
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		hw, _ := mw.CreateFormField("header")
		io.WriteString(hw, hdrText)
		dw, _ := mw.CreateFormFile("data", "scene.raw")
		dw.Write(data)
		mw.Close()
		r, err := client.Post(srv.URL+"/v2/scenes", mw.FormDataContentType(), &body)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Truncated payload → bad_payload.
	wantEnvelope(t, post(hdr, payload[:len(payload)-4]), http.StatusBadRequest, fusionclient.CodeBadPayload)

	r := post(hdr, payload)
	if r.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(r.Body)
		t.Fatalf("register status %d: %s", r.StatusCode, body)
	}
	var info fusionclient.SceneInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// Registry at capacity (MaxScenes: 1) → scene_limit.
	wantEnvelope(t, post(hdr, payload), http.StatusServiceUnavailable, fusionclient.CodeSceneLimit)

	// Fuse with options in the JSON body, long-poll to done.
	r, err = client.Post(srv.URL+"/v2/scenes/"+info.ID+"/fuse", "application/json",
		strings.NewReader(`{"threshold": 0.05, "granularity": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, r)
	if job.SceneID != info.ID {
		t.Fatalf("scene job not tagged: %+v", job)
	}
	r, err = client.Get(srv.URL + "/v2/jobs/" + job.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	job = decodeJob(t, r)
	if job.State != StateDone {
		t.Fatalf("scene fuse state %s (error %q)", job.State, job.Error)
	}
	if job.Progress == nil || job.Progress.Transformed != job.Progress.Total {
		t.Errorf("scene progress not complete: %+v", job.Progress)
	}
	if job.Options == nil || job.Options.Threshold != 0.05 {
		t.Errorf("scene job options echo: %+v", job.Options)
	}

	// The unified job resource serves the scene composite too.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/jobs/"+job.ID+"/result", nil)
	req.Header.Set("Accept", "image/png")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != cube.Width || b.Dy() != cube.Height {
		t.Errorf("scene composite %dx%d, cube %dx%d", b.Dx(), b.Dy(), cube.Width, cube.Height)
	}

	// Remove, then the ID is gone with the code.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v2/scenes/"+info.ID, nil)
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", r.StatusCode)
	}
	r, err = client.Get(srv.URL + "/v2/scenes/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusNotFound, fusionclient.CodeUnknownScene)
}

// TestV2SceneTooLarge maps a header claiming more than the pool's scene
// budget to payload_too_large.
func TestV2SceneTooLarge(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxSceneBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	cube := testCube(t, 55) // 24x24x8 float32 = 18432 bytes > MaxSceneBytes
	hdr, payload := enviPayload(t, cube, scene.BIP)
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	hw, _ := mw.CreateFormField("header")
	io.WriteString(hw, hdr)
	dw, _ := mw.CreateFormFile("data", "scene.raw")
	dw.Write(payload)
	mw.Close()
	r, err := srv.Client().Post(srv.URL+"/v2/scenes", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusRequestEntityTooLarge, fusionclient.CodePayloadTooLarge)
}

// TestV2LongPollNonTerminal pins the wait-elapsed contract: when the
// wait runs out before the job finishes, the long-poll returns the
// current snapshot with 200 (the client re-issues), not an error.
func TestV2LongPollNonTerminal(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	// The second job sits queued behind the slow one on the single
	// dispatcher, so a short wait on it must come back non-terminal.
	first := submitSlow(t, pool)
	second, err := pool.Submit(testCube(t, 71), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := srv.Client().Get(srv.URL + "/v2/jobs/" + second.ID + "?wait=30ms")
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, r)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("30ms wait took %v", elapsed)
	}
	if job.ID != second.ID {
		t.Errorf("long-poll returned %q, want %q", job.ID, second.ID)
	}
	if job.State == StateDone || job.State == StateFailed {
		t.Errorf("wait-elapsed long-poll returned terminal state %s for a queued job", job.State)
	}
	if _, err := pool.Wait(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Wait(second.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPBadRequests pins that option typos and repeats fail loudly on
// both options-bearing endpoints — job submit and scene fuse — instead
// of silently running the defaults or letting the last value win.
func TestHTTPBadRequests(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	cube := testCube(t, 2)
	hdr, data := enviPayload(t, cube, scene.BIL)
	info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"granularity": "abc"}`,
		`{"granularty": 8}`,
		`{"treshold": 0.05}`,
		`{"granularity": 3, "foo": 1}`,
		`{"granularity": 2, "granularity": 16}`,
		// encoding/json matches field names case-insensitively, so
		// these are repeats of one knob too.
		`{"granularity": 2, "Granularity": 16}`,
		`{"threshold": 0.05, "prefetch": 1, "THRESHOLD": 0.05}`,
		`{"parallelism": 1, "paralleliſm": 2}`,
	} {
		resp := postCubeV2(t, client, srv.URL+"/v2/jobs", cube, body)
		wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)
		wantEnvelope(t, fuseScene(t, client, srv.URL, info.ID, body), http.StatusBadRequest, fusionclient.CodeBadOption)
	}
}

// TestHTTPNaNThreshold pins the edge validation: a threshold that is no
// finite float must be rejected before it reaches the screening kernel.
func TestHTTPNaNThreshold(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	for _, v := range []string{"NaN", `"NaN"`, "1e999", "-1e999", `"+Inf"`} {
		resp := postCubeV2(t, srv.Client(), srv.URL+"/v2/jobs", testCube(t, 2), `{"threshold": `+v+`}`)
		wantEnvelope(t, resp, http.StatusBadRequest, fusionclient.CodeBadOption)
	}
}

// TestLongPollCanceledJobNotParked pins the park counter to its
// definition — long-polls that parked on a non-terminal job. A canceled
// job is terminal, so a long-poll on it returns at once and is no park.
func TestLongPollCanceledJobNotParked(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	// The slow job holds the single dispatcher, so the second one is
	// still queued — and cancelable — when Cancel runs.
	slow := submitSlow(t, pool)
	queued, err := pool.Submit(testCube(t, 72), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	before := sampleValue(t, scrape(t, client, srv.URL), "fusion_longpoll_parks_total")
	r, err := client.Get(srv.URL + "/v2/jobs/" + queued.ID + "?wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	if job := decodeJob(t, r); job.State != StateCanceled {
		t.Fatalf("long-poll state %s, want canceled", job.State)
	}
	if after := sampleValue(t, scrape(t, client, srv.URL), "fusion_longpoll_parks_total"); after != before {
		t.Errorf("long-poll on a canceled job counted a park: %v -> %v", before, after)
	}
	if _, err := pool.Wait(slow.ID); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAPIMatchesMux keeps the API contract and the router in step:
// every operation docs/openapi.yaml declares must reach a registered
// handler on Pool.Handler(), and no /v1/ path may. The mux answers
// unrouted requests itself with a plain-text 404 or 405; every handler
// answers errors with the JSON envelope.
func TestOpenAPIMatchesMux(t *testing.T) {
	spec, err := os.ReadFile("../../docs/openapi.yaml")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	h := pool.Handler()

	routed := func(method, path string) (bool, int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		muxOwn := (rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed) &&
			!strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json")
		return !muxOwn, rec.Code
	}

	pathLine := regexp.MustCompile(`^  (/\S*):\s*$`)
	opLine := regexp.MustCompile(`^    (get|post|delete):\s*$`)
	wildcard := regexp.MustCompile(`\{[^}]+\}`)
	var path string
	ops := 0
	for _, line := range strings.Split(string(spec), "\n") {
		if m := pathLine.FindStringSubmatch(line); m != nil {
			path = wildcard.ReplaceAllString(m[1], "x-0")
			continue
		}
		m := opLine.FindStringSubmatch(line)
		if m == nil || path == "" {
			continue
		}
		ops++
		method := strings.ToUpper(m[1])
		if ok, code := routed(method, path); !ok {
			t.Errorf("%s %s: spec operation not routed (mux %d)", method, path, code)
		}
		if v1 := strings.Replace(path, "/v2/", "/v1/", 1); v1 != path {
			if ok, code := routed(method, v1); ok {
				t.Errorf("%s %s: v1 path reached a handler (status %d)", method, v1, code)
			}
		}
	}
	if ops == 0 {
		t.Fatal("no operations found in docs/openapi.yaml")
	}
}

// wireSchemas names the Go type each docs/openapi.yaml component schema
// describes. Every schema in the spec must appear here.
var wireSchemas = map[string]reflect.Type{
	"ErrorEnvelope": reflect.TypeFor[errorEnvelope](),
	"Options":       reflect.TypeFor[fusionclient.Options](),
	"JobOptions":    reflect.TypeFor[fusionclient.JobOptions](),
	"TileProgress":  reflect.TypeFor[fusionclient.TileProgress](),
	"ResultSummary": reflect.TypeFor[fusionclient.ResultSummary](),
	"Job":           reflect.TypeFor[fusionclient.Job](),
	"Span":          reflect.TypeFor[fusionclient.Span](),
	"JobTrace":      reflect.TypeFor[fusionclient.JobTrace](),
	"SceneInfo":     reflect.TypeFor[fusionclient.SceneInfo](),
	"Stats":         reflect.TypeFor[fusionclient.Stats](),
}

// TestOpenAPISchemasMatchClient holds docs/openapi.yaml's
// components.schemas to the one wire schema, fusionclient's types: each
// schema's property names equal the JSON keys of its Go type in both
// directions, recursing into nested objects (Stats.cluster and .store,
// ResultSummary.phase_times, Job.trace's per-stage summaries) and
// checking that every $ref names the field's type. The error-code enum
// equals fusionclient's Code* constants and the job state enums equal
// its State* constants.
func TestOpenAPISchemasMatchClient(t *testing.T) {
	spec, err := os.ReadFile("../../docs/openapi.yaml")
	if err != nil {
		t.Fatal(err)
	}
	schemas := parseYAMLBlocks(string(spec)).child("components").child("schemas")
	if schemas == nil || len(schemas.kids) == 0 {
		t.Fatal("no components.schemas in docs/openapi.yaml")
	}
	for _, s := range schemas.kids {
		typ, ok := wireSchemas[s.key]
		if !ok {
			t.Errorf("schema %s has no Go type in wireSchemas", s.key)
			continue
		}
		checkSchemaKeys(t, s.key, s, typ)
	}
	for name := range wireSchemas {
		if schemas.child(name) == nil {
			t.Errorf("wireSchemas names %s, which docs/openapi.yaml does not declare", name)
		}
	}

	codes := clientConsts(t, "Code")
	enum := func(path ...string) []string {
		n := schemas
		for _, k := range path {
			n = n.child(k)
		}
		return n.enum()
	}
	if got := enum("ErrorEnvelope", "properties", "error", "properties", "code", "enum"); !sameSet(got, codes) {
		t.Errorf("ErrorEnvelope code enum %v, fusionclient Code* constants %v", got, codes)
	}
	states := clientConsts(t, "State")
	for _, schema := range []string{"Job", "JobTrace"} {
		if got := enum(schema, "properties", "state", "enum"); !sameSet(got, states) {
			t.Errorf("%s state enum %v, fusionclient State* constants %v", schema, got, states)
		}
	}
}

// checkSchemaKeys compares a schema node's properties with typ's JSON
// keys, both ways, and recurses into nested objects.
func checkSchemaKeys(t *testing.T, path string, node *yamlNode, typ reflect.Type) {
	t.Helper()
	props := node.child("properties")
	if props == nil {
		t.Errorf("%s: spec lists no properties for %s", path, typ)
		return
	}
	fields := map[string]reflect.Type{}
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		fields[name] = f.Type
	}
	for _, p := range props.kids {
		ft, ok := fields[p.key]
		if !ok {
			t.Errorf("%s.%s: spec property is not a JSON key of %s", path, p.key, typ)
			continue
		}
		checkPropertyKeys(t, path+"."+p.key, p, ft)
	}
	for key := range fields {
		if props.child(key) == nil {
			t.Errorf("%s.%s: JSON key of %s is missing from the spec", path, key, typ)
		}
	}
}

func checkPropertyKeys(t *testing.T, path string, p *yamlNode, ft reflect.Type) {
	t.Helper()
	for ft.Kind() == reflect.Pointer {
		ft = ft.Elem()
	}
	switch {
	case p.ref() != "":
		if want := wireSchemas[p.ref()]; want != ft {
			t.Errorf("%s: spec refers to %s (%v), Go field is %v", path, p.ref(), want, ft)
		}
	case p.child("properties") != nil:
		checkSchemaKeys(t, path, p, ft)
	case p.child("additionalProperties") != nil && ft.Kind() == reflect.Map:
		checkPropertyKeys(t, path+"[*]", p.child("additionalProperties"), ft.Elem())
	case p.child("items") != nil && ft.Kind() == reflect.Slice:
		checkPropertyKeys(t, path+"[]", p.child("items"), ft.Elem())
	default:
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Map {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && ft != reflect.TypeFor[time.Time]() {
			t.Errorf("%s: %v is an object whose keys the spec does not list", path, ft)
		}
	}
}

// clientConsts returns the values of fusionclient's string constants
// whose names start with prefix, read from its source.
func clientConsts(t *testing.T, prefix string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("../../fusionclient/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, prefix) || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						out = append(out, v)
					}
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no %s* constants found in fusionclient", prefix)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	return slices.Equal(a, b)
}

// yamlNode is one mapping key of a block-style YAML document: its
// inline value, nested keys, and "- item" list entries. It covers the
// subset docs/openapi.yaml uses; folded scalars (">") are skipped.
type yamlNode struct {
	key, value string
	indent     int
	kids       []*yamlNode
	items      []string
}

func (n *yamlNode) child(key string) *yamlNode {
	if n == nil {
		return nil
	}
	for _, k := range n.kids {
		if k.key == key {
			return k
		}
	}
	return nil
}

var yamlRef = regexp.MustCompile(`\$ref:\s*"#/components/schemas/(\w+)"`)

// ref is the schema a node refers to by an inline { $ref: "..." }.
func (n *yamlNode) ref() string {
	if m := yamlRef.FindStringSubmatch(n.value); m != nil {
		return m[1]
	}
	return ""
}

// enum is a node's list: a flow sequence ([a, b]) or "- item" lines.
func (n *yamlNode) enum() []string {
	if n == nil {
		return nil
	}
	if v, ok := strings.CutPrefix(n.value, "["); ok {
		var out []string
		for _, item := range strings.Split(strings.TrimSuffix(v, "]"), ",") {
			out = append(out, strings.TrimSpace(item))
		}
		return out
	}
	return n.items
}

func parseYAMLBlocks(text string) *yamlNode {
	keyLine := regexp.MustCompile(`^( *)([A-Za-z_$][\w$-]*):(?:\s+(.*))?$`)
	itemLine := regexp.MustCompile(`^( *)- (.*)$`)
	root := &yamlNode{indent: -1}
	stack := []*yamlNode{root}
	folded := -1 // indent of a key whose folded scalar is being skipped
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if folded >= 0 && indent > folded {
			continue
		}
		folded = -1
		for stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		parent := stack[len(stack)-1]
		if m := itemLine.FindStringSubmatch(line); m != nil {
			parent.items = append(parent.items, strings.TrimSpace(m[2]))
			continue
		}
		m := keyLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n := &yamlNode{key: m[2], value: strings.TrimSpace(m[3]), indent: indent}
		parent.kids = append(parent.kids, n)
		stack = append(stack, n)
		if n.value == ">" || n.value == "|" {
			folded = indent
		}
	}
	return root
}

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// enviPayload renders a cube as ENVI header text + raw payload bytes in
// the given interleave (via the scene writer, so the payload is exactly
// what a real scene file holds).
func enviPayload(t *testing.T, cube *hsi.Cube, il scene.Interleave) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scene.raw")
	if err := scene.Write(path, cube, il); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(path + ".hdr")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(hdr), data
}

// postScene uploads header+data as the multipart form POST /v2/scenes
// expects.
func postScene(t *testing.T, client *http.Client, url, hdr string, data []byte) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	hw, err := mw.CreateFormField("header")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(hw, hdr); err != nil {
		t.Fatal(err)
	}
	dw, err := mw.CreateFormFile("data", "scene.raw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// pollJob long-polls a job over HTTP until it reaches a terminal state.
func pollJob(t *testing.T, client *http.Client, base, id string) fusionclient.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := client.Get(base + "/v2/jobs/" + id + "?wait=10s")
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJob(t, r)
		if job.State.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, job.State)
		}
	}
}

// fuseScene posts a scene fuse with an options JSON body.
func fuseScene(t *testing.T, client *http.Client, base, id, optionsJSON string) *http.Response {
	t.Helper()
	r, err := client.Post(base+"/v2/scenes/"+id+"/fuse", "application/json", strings.NewReader(optionsJSON))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// registerScene uploads a scene and decodes the 201 scene info.
func registerScene(t *testing.T, client *http.Client, base, hdr string, data []byte) fusionclient.SceneInfo {
	t.Helper()
	resp := postScene(t, client, base+"/v2/scenes", hdr, data)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("scene register status %d: %s", resp.StatusCode, body)
	}
	var info fusionclient.SceneInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// sceneResultPNG fetches the composite of a scene's latest completed
// fusion: the scene resource names the job, the job resource serves
// the image.
func sceneResultPNG(t *testing.T, client *http.Client, base, sceneID string) []byte {
	t.Helper()
	r, err := client.Get(base + "/v2/scenes/" + sceneID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var info fusionclient.SceneInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.LastDoneJob == "" {
		t.Fatalf("scene %s has no completed fusion", sceneID)
	}
	return jobResultPNG(t, client, base, info.LastDoneJob)
}

// jobResultPNG fetches a finished job's composite as image/png.
func jobResultPNG(t *testing.T, client *http.Client, base, jobID string) []byte {
	t.Helper()
	req := mustReq(t, http.MethodGet, base+"/v2/jobs/"+jobID+"/result")
	req.Header.Set("Accept", "image/png")
	r, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("result status %d type %s", r.StatusCode, r.Header.Get("Content-Type"))
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSceneHTTPEndToEnd exercises the whole-scene flow over HTTP —
// register an ENVI upload, fuse it with per-tile progress, fetch the
// mosaic — and pins the acceptance criterion: the streamed scene fusion
// is bit-identical to fusing the same cube uploaded in memory (the two
// jobs' PNG composites are byte-equal, and they share one result-cache
// entry because the scene digest equals the cube digest).
func TestSceneHTTPEndToEnd(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	cube := testCube(t, 33)
	const options = `{"threshold": 0.05, "granularity": 3}`

	// In-memory reference: upload the cube as a job.
	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", cube, options)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cube submit status %d", resp.StatusCode)
	}
	ref := pollJob(t, client, srv.URL, decodeJob(t, resp).ID)
	if ref.State != StateDone {
		t.Fatalf("reference job failed: %s", ref.Error)
	}
	refPNG := jobResultPNG(t, client, srv.URL, ref.ID)

	// Register the same samples as a streamed BIL scene.
	hdr, data := enviPayload(t, cube, scene.BIL)
	info := registerScene(t, client, srv.URL, hdr, data)
	if info.Width != cube.Width || info.Height != cube.Height || info.Bands != cube.Bands {
		t.Fatalf("scene info %+v", info)
	}
	wantDigest, err := cube.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != wantDigest {
		t.Fatalf("scene digest %s, want cube digest %s", info.Digest, wantDigest)
	}

	// Fuse the scene. The digest matches the in-memory upload, so this
	// must be served from the result cache — the strongest possible
	// equality statement — but the composite must also match byte-wise.
	resp = fuseScene(t, client, srv.URL, info.ID, options)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fuse status %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.SceneID != info.ID {
		t.Fatalf("job scene_id %q", job.SceneID)
	}
	job = pollJob(t, client, srv.URL, job.ID)
	if job.State != StateDone {
		t.Fatalf("scene job failed: %s", job.Error)
	}
	if !job.CacheHit {
		t.Fatal("scene fuse of identical samples+options missed the shared cache")
	}
	if job.Progress == nil || job.Progress.Total == 0 ||
		job.Progress.Screened != job.Progress.Total ||
		job.Progress.Transformed != job.Progress.Total {
		t.Fatalf("progress %+v", job.Progress)
	}

	// Fetch the mosaic and compare bytes with the in-memory composite.
	if !bytes.Equal(sceneResultPNG(t, client, srv.URL, info.ID), refPNG) {
		t.Fatal("scene mosaic differs from in-memory composite")
	}
}

// TestSceneHTTPStreamedComputation disables the cache so the scene job
// must actually stream tiles through the workers, then compares the
// composite with a direct in-memory run — bit-identical output without
// cache assistance, exercised end to end through the endpoints.
func TestSceneHTTPStreamedComputation(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, CacheEntries: -1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	cube := testCube(t, 44)
	hdr, data := enviPayload(t, cube, scene.BSQ)
	info := registerScene(t, client, srv.URL, hdr, data)
	if info.Digest != "" {
		t.Fatalf("digest computed with caching disabled: %s", info.Digest)
	}

	resp := fuseScene(t, client, srv.URL, info.ID, `{"threshold": 0.05, "granularity": 5}`)
	job := pollJob(t, client, srv.URL, decodeJob(t, resp).ID)
	if job.State != StateDone {
		t.Fatalf("scene job failed: %s", job.Error)
	}
	if job.CacheHit {
		t.Fatal("cache hit with caching disabled")
	}
	if job.Progress == nil || job.Progress.Transformed != job.Progress.Total || job.Progress.Total == 0 {
		t.Fatalf("progress %+v", job.Progress)
	}

	// Reference: the same options through the pool's in-memory path.
	opts := core.Options{Threshold: 0.05, Granularity: 5}
	st, err := pool.Submit(cube.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err = pool.Wait(st.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("reference: %v %s", err, st.State)
	}
	refPNG, err := pool.ImagePNG(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sceneResultPNG(t, client, srv.URL, info.ID), refPNG) {
		t.Fatal("streamed scene composite differs from in-memory composite")
	}
}

// TestSceneHTTPErrors covers the upload and fuse failure surfaces:
// malformed headers, truncated/oversized payloads, unknown scenes, bad
// fuse options, and no composite before the first fuse.
func TestSceneHTTPErrors(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()
	base := srv.URL + "/v2/scenes"

	small := hsi.MustNewCube(8, 8, 4)
	for i := range small.Data {
		small.Data[i] = float32(i%97) - 48
	}
	hdr, data := enviPayload(t, small, scene.BIL)

	// Truncated payload, oversized payload, malformed header.
	wantEnvelope(t, postScene(t, client, base, hdr, data[:len(data)-5]), http.StatusBadRequest, fusionclient.CodeBadPayload)
	wantEnvelope(t, postScene(t, client, base, hdr, append(append([]byte(nil), data...), 1, 2, 3)),
		http.StatusBadRequest, fusionclient.CodeBadPayload)
	wantEnvelope(t, postScene(t, client, base, "not an envi header", data), http.StatusBadRequest, fusionclient.CodeBadPayload)

	// Non-multipart body.
	r, err := client.Post(base, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, r, http.StatusBadRequest, fusionclient.CodeBadPayload)

	// Unknown scene: fuse, info, delete.
	for _, req := range []*http.Request{
		mustReq(t, http.MethodPost, base+"/scene-99/fuse"),
		mustReq(t, http.MethodGet, base+"/scene-99"),
		mustReq(t, http.MethodDelete, base+"/scene-99"),
	} {
		r, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, r, http.StatusNotFound, fusionclient.CodeUnknownScene)
	}

	// Valid registration, then: no composite before any fuse; bad fuse
	// options → bad_option; delete → 204; fuse after delete → 404.
	info := registerScene(t, client, srv.URL, hdr, data)
	if info.LastDoneJob != "" {
		t.Fatalf("fresh scene names a completed fusion: %+v", info)
	}
	wantEnvelope(t, fuseScene(t, client, srv.URL, info.ID, `{"threshold": 9}`), http.StatusBadRequest, fusionclient.CodeBadOption)

	r5, err := client.Do(mustReq(t, http.MethodDelete, base+"/"+info.ID))
	if err != nil {
		t.Fatal(err)
	}
	if r5.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", r5.StatusCode)
	}
	r5.Body.Close()
	wantEnvelope(t, fuseScene(t, client, srv.URL, info.ID, ""), http.StatusNotFound, fusionclient.CodeUnknownScene)
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestSceneRegistryLimits pins MaxScenes admission and the list/remove
// lifecycle through the Go API.
func TestSceneRegistryLimits(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, MaxScenes: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	small := hsi.MustNewCube(4, 4, 2)
	hdr, data := enviPayloadRaw(t, small)
	var ids []string
	for i := 0; i < 2; i++ {
		info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if _, err := pool.RegisterScene(hdr, bytes.NewReader(data)); !errors.Is(err, ErrSceneLimit) {
		t.Fatalf("over-limit registration: %v", err)
	}
	if got := pool.Scenes(); len(got) != 2 || got[0].ID != ids[0] || got[1].ID != ids[1] {
		t.Fatalf("scene list %+v", got)
	}
	if err := pool.RemoveScene(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RegisterScene(hdr, bytes.NewReader(data)); err != nil {
		t.Fatalf("registration after removal: %v", err)
	}
}

// stutterSurplusReader serves the claimed payload, then returns a
// single (0, nil) — legal under the io.Reader contract — before
// revealing its surplus bytes. A one-shot Read probe accepts this
// oversized payload; the spool's overrun check must keep reading until
// a byte or EOF.
type stutterSurplusReader struct {
	payload   []byte
	surplus   []byte
	stuttered bool
}

func (r *stutterSurplusReader) Read(p []byte) (int, error) {
	if len(r.payload) > 0 {
		n := copy(p, r.payload)
		r.payload = r.payload[n:]
		return n, nil
	}
	if !r.stuttered {
		r.stuttered = true
		return 0, nil
	}
	if len(r.surplus) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.surplus)
	r.surplus = r.surplus[n:]
	return n, nil
}

// TestRegisterSceneStutteringOverrun pins the spoolExact overrun probe:
// a reader that returns (0, nil) before its surplus data must still be
// rejected as oversized, and one that stutters before EOF must still be
// accepted.
func TestRegisterSceneStutteringOverrun(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	small := hsi.MustNewCube(4, 4, 2)
	hdr, data := enviPayloadRaw(t, small)

	overrun := &stutterSurplusReader{payload: append([]byte(nil), data...), surplus: []byte{1, 2, 3}}
	if _, err := pool.RegisterScene(hdr, overrun); !errors.Is(err, ErrScenePayload) {
		t.Fatalf("stuttering oversized payload accepted: err = %v", err)
	}

	exact := &stutterSurplusReader{payload: append([]byte(nil), data...)}
	if _, err := pool.RegisterScene(hdr, exact); err != nil {
		t.Fatalf("stuttering exact payload rejected: %v", err)
	}
}

// TestRegisterSceneFile registers a scene by local path (no spool copy)
// and fuses it through the Go API.
func TestRegisterSceneFile(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cube := testCube(t, 66)
	path := filepath.Join(t.TempDir(), "local.raw")
	if err := scene.Write(path, cube, scene.BIL); err != nil {
		t.Fatal(err)
	}
	info, err := pool.RegisterSceneFile(path + ".hdr")
	if err != nil {
		t.Fatal(err)
	}
	st, err := pool.FuseScene(info.ID, core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st, err = pool.Wait(st.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("fuse: %v %s", err, st.State)
	}
	// The registered files must survive removal of a non-owned entry.
	if err := pool.RemoveScene(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("local scene file deleted: %v", err)
	}
}

// enviPayloadRaw is enviPayload for cubes without a testing geometry
// helper (BIP, no wavelengths).
func enviPayloadRaw(t *testing.T, cube *hsi.Cube) (string, []byte) {
	t.Helper()
	return enviPayload(t, cube, scene.BIP)
}

// Removing a scene while an accepted fusion of it is still queued must
// not strand the job: the job holds its own handle from submit time, so
// the unlink is invisible to it.
func TestRemoveSceneWithQueuedFuse(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1, CacheEntries: -1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cube := testCube(t, 77)
	hdr, data := enviPayload(t, cube, scene.BIL)
	info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single dispatcher so the scene fuse sits in the queue.
	blocker, err := pool.Submit(testCube(t, 78), core.Options{Threshold: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pool.FuseScene(info.ID, core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Unlink the spool while the fuse is (most likely) still queued.
	if err := pool.RemoveScene(info.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = pool.Wait(st.ID); err != nil || st.State != StateDone {
		t.Fatalf("queued fuse after scene removal: %v %s (%v)", err, st.State, st.Err)
	}
	if _, err := pool.Wait(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

package service

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/store"
	"resilientfusion/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire.golden")

// goldenT0 is the fixed clock every synthetic job and scene reads.
var goldenT0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// clockFloat matches the two /v2/stats values derived from the pool's
// wall-clock uptime, which no fixture can pin.
var clockFloat = regexp.MustCompile(`"(uptime_seconds|throughput_jobs_per_s)":([^,}]+)`)

// TestWireGolden pins the exact bytes of every v2 response body the
// service encodes — job resources (running scene job with progress and
// trace summary, failed and done cube jobs with result and options
// echo), the job and scene listings, /v2/stats plain and with its
// cluster and store sections, a trace, error envelopes with their
// headers — and the journal's submit record, a persisted format that
// must keep replaying. Jobs and scenes are injected with fixed clocks
// and IDs and served through Pool.Handler, so the golden holds the
// handlers' own encoding, key order and omitempty choices. Only the
// uptime-derived stats floats are masked (after checking they are
// numbers).
func TestWireGolden(t *testing.T) {
	var out strings.Builder
	section := func(name string) { fmt.Fprintf(&out, "=== %s\n", name) }

	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	injectGoldenState(t, pool)
	h := pool.Handler()
	for _, path := range []string{
		"/v2/jobs/job-7",
		"/v2/jobs/job-5",
		"/v2/jobs/job-3",
		"/v2/jobs",
		"/v2/jobs?state=done",
		"/v2/jobs/job-3/result",
		"/v2/jobs/job-7/trace",
		"/v2/jobs/job-3/trace",
		"/v2/scenes",
		"/v2/scenes/scene-1",
		"/v2/jobs/job-99",
		"/v2/jobs?limit=0",
		"/v2/jobs/job-7/result",
	} {
		section("GET " + path)
		out.WriteString(goldenResponse(t, h, path))
	}
	section("queue_full envelope")
	rec := httptest.NewRecorder()
	writeAPIError(rec, ErrQueueFull)
	out.WriteString(recordedResponse(rec))
	const badOption = `{"granularity":"abc"}`
	section("POST /v2/scenes/scene-1/fuse " + badOption)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/scenes/scene-1/fuse", strings.NewReader(badOption)))
	out.WriteString(recordedResponse(rec))

	pool.metrics.jobsSubmitted.Add(6)
	pool.metrics.jobsCompleted.Add(4)
	pool.metrics.jobsFailed.Add(1)
	pool.metrics.jobsRejected.Add(2)
	section("GET /v2/stats")
	out.WriteString(goldenResponse(t, h, "/v2/stats"))

	full, err := NewPool(Config{Workers: 2, JournalDir: t.TempDir(),
		Cluster: &ClusterConfig{Workers: 2, Replication: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	full.cluster.addr = "127.0.0.1:7946"
	full.cluster.jobs.Add(4)
	full.cluster.fallbacks.Add(1)
	full.cluster.detections.Add(2)
	full.cluster.regenerations.Add(2)
	full.cluster.viewChanges.Add(3)
	full.metrics.journalRecords.Add(9)
	full.metrics.recoveredJobs.Add(1)
	full.metrics.cacheSpillHits.Add(2)
	full.metrics.cacheSpillMisses.Add(1)
	section("GET /v2/stats (cluster, store)")
	out.WriteString(goldenResponse(t, full.Handler(), "/v2/stats"))

	section("journal submit record")
	dataPath := filepath.Join(t.TempDir(), "scene.raw")
	if err := os.WriteFile(dataPath, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	full.mu.Lock()
	full.scenes["scene-1"] = &sceneEntry{id: "scene-1", seq: 1, h: goldenHeader(),
		dataPath: dataPath, digest: "d1ce", registered: goldenT0}
	full.mu.Unlock()
	job := &Job{id: "job-7", num: 7, sceneID: "scene-1", digest: "d1ce", opts: goldenOptions(t, full)}
	if err := full.journalSubmit(job); err != nil {
		t.Fatal(err)
	}
	pending := full.journal.Pending()
	if len(pending) != 1 {
		t.Fatalf("journal pending = %d records, want 1", len(pending))
	}
	record, err := json.Marshal(pending[0].Rec)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(record)
	out.WriteString("\n")

	got := out.String()
	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	want := string(wantBytes)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire bytes drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}

	// Replay the recorded submit record — the bytes an earlier build
	// wrote — through the recovery path: it must rebuild the same job,
	// and its canonical options must re-encode to the recorded bytes.
	_, recorded, ok := strings.Cut(want, "=== journal submit record\n")
	if !ok {
		t.Fatal("golden has no journal section")
	}
	var jr store.JobRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(recorded)), &jr); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := full.rebuildJob(jr)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.sceneFile.Close()
	if rebuilt.id != "job-7" || rebuilt.num != 7 || rebuilt.sceneID != "scene-1" || rebuilt.digest != "d1ce" {
		t.Fatalf("rebuilt job %s/%d scene %q digest %q", rebuilt.id, rebuilt.num, rebuilt.sceneID, rebuilt.digest)
	}
	reenc, err := json.Marshal(jobOptions(rebuilt.opts))
	if err != nil {
		t.Fatal(err)
	}
	if string(reenc) != string(jr.Options) {
		t.Fatalf("replayed options re-encode as %s, recorded %s", reenc, jr.Options)
	}
}

func goldenHeader() scene.Header {
	return scene.Header{Samples: 4, Lines: 4, Bands: 2, Interleave: scene.BIL, DataType: scene.Float32}
}

func goldenOptions(t *testing.T, p *Pool) core.Options {
	t.Helper()
	opts, err := p.canonicalOptions(core.Options{Threshold: 0.05, Granularity: 3, Algorithm: "PCT"})
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// injectGoldenState registers two scenes and three jobs with fixed
// clocks, IDs, progress, trace spans and results.
func injectGoldenState(t *testing.T, p *Pool) {
	t.Helper()
	at := func(ms int) time.Time { return goldenT0.Add(time.Duration(ms) * time.Millisecond) }
	opts := goldenOptions(t, p)

	tr := telemetry.NewTraceRecorder(0)
	tr.Stage("ingest", -1, 0.001, 0.004)
	tr.Stage("screen", 0, 0.004, 0.0125)
	tr.Stage("screen", 1, 0.005, 0.02)
	tr.Record(telemetry.Span{Name: "regeneration", Index: 1, Start: 0.03, End: 0.03, Epoch: 2, Note: "worker 1 on node 2"})
	running := &Job{id: "job-7", num: 7, sceneID: "scene-1", tilesTotal: 8, trace: tr,
		opts: opts, state: StateRunning, submitted: at(0), started: at(250), done: make(chan struct{})}
	running.tilesScreened.Store(5)
	running.tilesTransformed.Store(3)

	failed := &Job{id: "job-5", num: 5, state: StateFailed, err: errors.New("core: worker 1 lost"),
		submitted: at(-900), started: at(-850), finished: at(-700), done: make(chan struct{})}
	close(failed.done)

	done := &Job{id: "job-3", num: 3, opts: opts, state: StateDone,
		result: &core.Result{UniqueSetSize: 42, SubCubes: 6, Reissues: 1, CacheMisses: 2,
			Eigenvalues: []float64{12.5, 3.25, 0.75},
			Times:       core.PhaseTimes{Screen: 0.5, Statistics: 0.75, Eigen: 0.8125, Transform: 1.25, Total: 1.5}},
		submitted: at(-2000), started: at(-1990), finished: at(-500), done: make(chan struct{})}
	close(done.done)

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, j := range []*Job{running, failed, done} {
		p.jobs[j.id] = j
	}
	p.scenes["scene-1"] = &sceneEntry{id: "scene-1", seq: 1, h: goldenHeader(),
		digest: "d1ce", registered: at(-5000), lastDone: "job-3"}
	p.scenes["scene-2"] = &sceneEntry{id: "scene-2", seq: 2,
		h:          scene.Header{Samples: 8, Lines: 2, Bands: 3, Interleave: scene.BSQ, DataType: scene.Int16},
		registered: at(-4000)}
}

func goldenResponse(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return recordedResponse(rec)
}

// recordedResponse renders status, the headers a client reads, and the
// body, with the uptime-derived stats floats masked.
func recordedResponse(rec *httptest.ResponseRecorder) string {
	head := fmt.Sprintf("%d %s", rec.Code, rec.Header().Get("Content-Type"))
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		head += " Retry-After: " + ra
	}
	body := clockFloat.ReplaceAllStringFunc(rec.Body.String(), func(m string) string {
		sub := clockFloat.FindStringSubmatch(m)
		var v float64
		if err := json.Unmarshal([]byte(sub[2]), &v); err != nil || v < 0 {
			return m // left unmasked, so the golden comparison fails
		}
		return fmt.Sprintf("%q:<clock>", sub[1])
	})
	return head + "\n" + body
}

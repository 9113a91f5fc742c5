package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/telemetry"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q, want text/plain exposition", ct)
	}
	return string(body)
}

// sampleValue extracts an unlabeled sample's value from an exposition.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	return 0
}

// TestMetricsEndpoint runs one cube fusion and asserts the /metrics
// exposition reflects it: service counters agree with Stats() (both read
// the same registry), the HTTP route histogram saw the submit, and the
// worker stage histograms saw one sample per work item of the job.
func TestMetricsEndpoint(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	resp := postCubeV2(t, client, srv.URL+"/v2/jobs", testCube(t, 27), `{"threshold": 0.05}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	job := pollJob(t, client, srv.URL, decodeJob(t, resp).ID)
	if job.State != StateDone {
		t.Fatalf("job state %s (error %q)", job.State, job.Error)
	}

	body := scrape(t, client, srv.URL)
	for _, want := range []string{
		"# HELP fusion_jobs_submitted_total ",
		"# TYPE fusion_jobs_submitted_total counter",
		"# TYPE fusion_jobs_duration_seconds histogram",
		"# TYPE fusion_queue_depth gauge",
		`fusion_http_request_duration_seconds_count{route="POST /v2/jobs",status="202"} 1`,
		"fusion_jobs_duration_seconds_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Default granularity 2 over 2 workers: 4 sub-cubes, each screened
	// and transformed once, and one covariance part per worker.
	for stage, want := range map[string]float64{"screen": 4, "transform": 4, "covariance": 2, "fuse": 0} {
		if got := sampleValue(t, body, `fusion_worker_stage_seconds_count{stage="`+stage+`"}`); got != want {
			t.Errorf("stage %s observed %v times, want %v", stage, got, want)
		}
	}

	st := pool.Stats()
	if got := int64(sampleValue(t, body, "fusion_jobs_submitted_total")); got != st.Submitted {
		t.Errorf("metrics submitted=%d, stats %d", got, st.Submitted)
	}
	if got := int64(sampleValue(t, body, "fusion_jobs_completed_total")); got != st.Completed || got != 1 {
		t.Errorf("metrics completed=%d, stats %d, want 1", got, st.Completed)
	}
	if got := int64(sampleValue(t, body, "fusion_cache_misses_total")); got != st.CacheMisses {
		t.Errorf("metrics cache_misses=%d, stats %d", got, st.CacheMisses)
	}
}

// TestMetricsSharedRegistry verifies Config.Metrics plugs an external
// registry into the pool, for daemons mounting one exposition across
// subsystems.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	extra := reg.Counter("fusion_embedder_ticks_total", "Embedder-side counter.")
	pool, err := NewPool(Config{Workers: 1, MaxConcurrent: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Metrics() != reg {
		t.Fatal("pool.Metrics() is not the supplied registry")
	}
	extra.Inc()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	body := scrape(t, srv.Client(), srv.URL)
	if got := sampleValue(t, body, "fusion_embedder_ticks_total"); got != 1 {
		t.Fatalf("embedder counter = %v, want 1", got)
	}
}

// TestSceneJobTraceEndpoint pins the acceptance criterion for the trace
// surface: a completed scene fusion serves a non-empty stage timeline on
// GET /v2/jobs/{id}/trace, the status resource summarizes the same spans,
// and the scene metrics count the tile reads.
func TestSceneJobTraceEndpoint(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := srv.Client()

	hdr, data := enviPayload(t, testCube(t, 29), scene.BIL)
	info := registerScene(t, client, srv.URL, hdr, data)
	r := fuseScene(t, client, srv.URL, info.ID, `{"threshold": 0.05, "granularity": 2}`)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("fuse status %d", r.StatusCode)
	}
	job := pollJob(t, client, srv.URL, decodeJob(t, r).ID)
	if job.State != StateDone {
		t.Fatalf("scene job state %s (error %q)", job.State, job.Error)
	}

	tr, err := client.Get(srv.URL + "/v2/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tr.StatusCode)
	}
	var timeline fusionclient.JobTrace
	if err := json.NewDecoder(tr.Body).Decode(&timeline); err != nil {
		t.Fatal(err)
	}
	if timeline.JobID != job.ID || timeline.State != StateDone {
		t.Fatalf("trace header %+v, want job %s done", timeline, job.ID)
	}
	if len(timeline.Spans) == 0 {
		t.Fatal("completed scene fusion has an empty trace timeline")
	}
	seen := map[string]int{}
	for _, s := range timeline.Spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		seen[s.Name]++
	}
	for _, stage := range []string{"ingest", "screen", "covariance", "eigen", "transform", "merge"} {
		if seen[stage] == 0 {
			t.Errorf("timeline missing stage %q (got %v)", stage, seen)
		}
	}

	// The status resource carries the per-stage summary of the same spans.
	st, err := pool.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) == 0 || st.Trace["screen"].Count != seen["screen"] {
		t.Fatalf("status trace summary %+v disagrees with timeline %v", st.Trace, seen)
	}

	// Scene tile reads surfaced in the exposition.
	body := scrape(t, client, srv.URL)
	if got := sampleValue(t, body, "fusion_scene_tiles_read_total"); got < 1 {
		t.Fatalf("fusion_scene_tiles_read_total = %v, want >= 1", got)
	}
	if got := sampleValue(t, body, "fusion_scene_spool_bytes_total"); got < float64(len(data)) {
		t.Fatalf("fusion_scene_spool_bytes_total = %v, want >= %d", got, len(data))
	}
	// The stage histograms are fed from this same timeline.
	for _, stage := range []string{"screen", "covariance", "transform"} {
		if got := sampleValue(t, body, `fusion_worker_stage_seconds_count{stage="`+stage+`"}`); got != float64(seen[stage]) {
			t.Errorf("stage %s metric count %v, timeline has %d spans", stage, got, seen[stage])
		}
	}

	// Unknown job ids keep the structured error envelope.
	bad, err := client.Get(srv.URL + "/v2/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, bad, http.StatusNotFound, fusionclient.CodeUnknownJob)
}

package service

import (
	"net/http"
	"strconv"
	"time"

	"resilientfusion/internal/telemetry"
)

// poolMetrics holds every service-layer instrument on one registry. The
// counters are the pool's single source of truth — Stats() and the
// Prometheus exposition read the same atomics, so the two surfaces can
// never disagree. Gauges over mu-guarded state (running jobs, queue
// depth, cache entries) are registered as GaugeFuncs that read the live
// structures at scrape time.
type poolMetrics struct {
	reg *telemetry.Registry

	jobsSubmitted   *telemetry.Counter
	jobsCompleted   *telemetry.Counter
	jobsFailed      *telemetry.Counter
	jobsRejected    *telemetry.Counter
	jobsCanceled    *telemetry.Counter
	jobsDuration    *telemetry.Histogram
	jobsByAlgorithm *telemetry.CounterVec
	longpollParks   *telemetry.Counter

	cacheHits        *telemetry.Counter
	cacheMisses      *telemetry.Counter
	cacheEvictions   *telemetry.Counter
	cacheSpillHits   *telemetry.Counter
	cacheSpillMisses *telemetry.Counter

	journalRecords *telemetry.Counter
	recoveredJobs  *telemetry.Counter

	sceneTilesRead    *telemetry.Counter
	scenePrefetchHits *telemetry.Counter
	sceneSpoolBytes   *telemetry.Counter

	httpDuration *telemetry.HistogramVec

	// stages holds fusion_worker_stage_seconds' children by trace stage
	// name (see observeStages).
	stages map[string]*telemetry.Histogram
}

// stageBuckets resolve work items from sub-millisecond screens of tiny
// tiles up to multi-second statistics passes.
var stageBuckets = []float64{.0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5}

// newPoolMetrics registers the service instruments on reg. The GaugeFunc
// closures capture p before NewPool finishes wiring it (p.cache and the
// queue may still be nil); that is safe because nothing can scrape the
// registry until NewPool has returned it.
func newPoolMetrics(reg *telemetry.Registry, p *Pool) *poolMetrics {
	m := &poolMetrics{
		reg: reg,
		jobsSubmitted: reg.Counter("fusion_jobs_submitted_total",
			"Jobs admitted to the pool (cache fast-path included)."),
		jobsCompleted: reg.Counter("fusion_jobs_completed_total",
			"Jobs finished successfully."),
		jobsFailed: reg.Counter("fusion_jobs_failed_total",
			"Jobs that reached the failed state."),
		jobsRejected: reg.Counter("fusion_jobs_rejected_total",
			"Submissions refused by admission control (queue full)."),
		jobsCanceled: reg.Counter("fusion_jobs_canceled_total",
			"Queued jobs withdrawn by DELETE /v2/jobs/{id} before running."),
		jobsDuration: reg.Histogram("fusion_jobs_duration_seconds",
			"End-to-end job latency, submission to terminal state (cache hits excluded).",
			telemetry.DefBuckets),
		jobsByAlgorithm: reg.CounterVec("fusion_jobs_by_algorithm_total",
			"Jobs admitted to the pool by fusion algorithm (cache fast-path included).",
			"algorithm"),
		longpollParks: reg.Counter("fusion_longpoll_parks_total",
			"Long-poll requests that parked waiting for a non-terminal job."),
		cacheHits: reg.Counter("fusion_cache_hits_total",
			"Result-cache lookups served without recomputation."),
		cacheMisses: reg.Counter("fusion_cache_misses_total",
			"Result-cache lookups that required a fusion run."),
		cacheEvictions: reg.Counter("fusion_cache_evictions_total",
			"Result-cache entries evicted by the LRU capacity bound."),
		cacheSpillHits: reg.Counter("fusion_cache_spill_hits_total",
			"RAM-missed cache lookups served from the disk-spill tier."),
		cacheSpillMisses: reg.Counter("fusion_cache_spill_misses_total",
			"RAM-missed cache lookups the disk-spill tier could not serve."),
		journalRecords: reg.Counter("fusion_store_journal_records_total",
			"Lifecycle records appended (and fsync'd) to the job journal."),
		recoveredJobs: reg.Counter("fusion_store_recovered_jobs_total",
			"Journaled jobs re-admitted at boot (requeued or cache-resolved)."),
		sceneTilesRead: reg.Counter("fusion_scene_tiles_read_total",
			"Row tiles pulled from spooled scenes by job managers."),
		scenePrefetchHits: reg.Counter("fusion_scene_prefetch_hits_total",
			"Tile reads satisfied by the in-flight read-ahead."),
		sceneSpoolBytes: reg.Counter("fusion_scene_spool_bytes_total",
			"Scene payload bytes spooled to disk at registration."),
		httpDuration: reg.HistogramVec("fusion_http_request_duration_seconds",
			"HTTP request latency by mux route pattern and status code.",
			telemetry.DefBuckets, "route", "status"),
	}
	stages := reg.HistogramVec("fusion_worker_stage_seconds",
		"Per-item worker stage latency, first dispatch to accepted reply, from each run job's trace.",
		stageBuckets, "stage")
	m.stages = make(map[string]*telemetry.Histogram)
	for _, stage := range []string{"screen", "covariance", "transform", "fuse"} {
		m.stages[stage] = stages.With(stage)
	}

	reg.GaugeFunc("fusion_jobs_running", "Jobs currently executing.", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.running)
	})
	reg.GaugeFunc("fusion_queue_depth", "Jobs parked in the admission queue.", func() int64 {
		return int64(len(p.queue))
	})
	reg.GaugeFunc("fusion_cache_entries", "Result-cache entries resident.", func() int64 {
		if p.cache == nil {
			return 0
		}
		_, _, size := p.cache.counters()
		return int64(size)
	})
	reg.GaugeFunc("fusion_cache_spilled_bytes", "Bytes resident in the result cache's disk-spill tier.", func() int64 {
		if p.cache == nil {
			return 0
		}
		_, bytes := p.cache.spillStats()
		return bytes
	})
	reg.GaugeFunc("fusion_scenes_registered", "Scenes currently registered.", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(len(p.scenes))
	})
	return m
}

// observeStages feeds fusion_worker_stage_seconds from a job that ran:
// one sample per screen, covariance, transform or fuse span in its trace,
// each one work item from first dispatch to accepted reply. The job's
// trace is the metric's only source, whether its workers ran in process
// or on the cluster.
func (m *poolMetrics) observeStages(tr *telemetry.TraceRecorder) {
	spans, _ := tr.Snapshot()
	for _, s := range spans {
		if h := m.stages[s.Name]; h != nil {
			h.Observe(s.End - s.Start)
		}
	}
}

// sceneTileRead is the scene.PrefetchTiler.OnRead hook: every tile read
// counts, prediction hits additionally.
func (m *poolMetrics) sceneTileRead(prefetchHit bool) {
	m.sceneTilesRead.Inc()
	if prefetchHit {
		m.scenePrefetchHits.Inc()
	}
}

// Metrics exposes the pool's telemetry registry (the one Config.Metrics
// supplied, or the pool-private default) so embedders — fusiond's ops
// listener, tests — can mount additional scrape endpoints over it.
func (p *Pool) Metrics() *telemetry.Registry { return p.metrics.reg }

// statusWriter captures the response code for the route/status latency
// histogram; WriteHeader may never be called (implicit 200).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps streaming handlers working behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// httpMiddleware wraps the service mux with the route×status latency
// histogram. The route label is the mux pattern (e.g. "GET
// /v2/jobs/{id}"), resolved before serving so path wildcards never
// explode the label space; unmatched requests share one label.
func (p *Pool) httpMiddleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		mux.ServeHTTP(sw, r)
		p.metrics.httpDuration.With(route, strconv.Itoa(sw.code)).Observe(time.Since(t0).Seconds())
	})
}

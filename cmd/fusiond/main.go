// fusiond serves the resilient fusion pipeline as a long-running,
// multi-job HTTP service: one long-lived pool runs many concurrent jobs,
// each decomposed over -workers workers of its own, with admission
// control and a content-addressed result cache (see internal/service).
//
//	go run ./cmd/fusiond -addr :8080 -workers 8 -concurrency 4
//
//	POST   /v2/jobs             multipart: optional "options" (JSON)
//	                            then "cube" (HSIC bytes)
//	GET    /v2/jobs[/{id}]      job listing / job; ?wait=30s long-polls
//	DELETE /v2/jobs/{id}        cancel a queued job
//	GET    /v2/jobs/{id}/result composite as image/png (by Accept) or
//	                            the JSON result summary
//	GET    /v2/jobs/{id}/trace  stage-span timeline
//	GET    /v2/stats            queue depth, cache hit rate, throughput
//	GET    /metrics             Prometheus text exposition (also on
//	                            -ops-addr)
//
// Whole-scene streaming fusion (ENVI BIL/BSQ/BIP rasters, spooled to
// disk and fused tile-by-tile — see internal/scene):
//
//	POST   /v2/scenes           multipart upload: "header" (.hdr text)
//	                            then "data" (raw payload)
//	GET    /v2/scenes[/{id}]    registry listing / scene info
//	POST   /v2/scenes/{id}/fuse JSON options body; the job reports
//	                            per-tile progress
//	DELETE /v2/scenes/{id}      unregister and delete the spool
//
// Errors travel in a structured {"error": {"code", "message"}}
// envelope. The API is documented in docs/openapi.yaml and wrapped by
// the fusionclient SDK and the fusionctl CLI.
//
// Durable mode (-spool /var/fusion/spool -journal /var/fusion/journal)
// persists the scene catalog and a write-ahead job journal so scenes
// and in-flight jobs survive a crash: on restart, queued jobs re-enter
// the queue, running jobs re-run (or resolve from the result cache),
// and job IDs keep counting from where they left off.
// -cache-spill-mb spills evicted result-cache entries to
// content-addressed files under the journal dir instead of dropping
// them. See the README's "durability" section.
//
// Cluster mode (-cluster :9310 -cluster-workers 3) runs each job's
// worker replicas in remote fusionworkerd processes instead of local
// goroutines, with the resilient guardian regenerating replicas lost to
// killed workers; below quorum, jobs silently degrade to the in-process
// pool with a bit-identical mosaic. See the README's "cluster mode"
// section for topology and failure semantics.
//
// Logs are structured (log/slog): -log-format text|json, -log-level
// debug|info|warn|error. -ops-addr opens a separate operations listener
// with net/http/pprof under /debug/pprof/ and a second /metrics mount,
// so profiling and scraping can stay off the public API port.
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resilientfusion/internal/linalg"
	"resilientfusion/internal/service"
	"resilientfusion/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	opsAddr := flag.String("ops-addr", "", "operations listener (pprof + /metrics) address; empty disables")
	workers := flag.Int("workers", linalg.MaxWorkers(), "workers each job is decomposed over")
	concurrency := flag.Int("concurrency", 0, "jobs running at once (0: workers/2, min 1)")
	queue := flag.Int("queue", 64, "queued jobs beyond the running ones")
	cacheEntries := flag.Int("cache", 128, "result cache capacity (negative disables)")
	spool := flag.String("spool", "", "scene spool directory (default: a fresh temp dir, removed on exit)")
	journal := flag.String("journal", "", "durable control plane directory (job journal + cube spool + cache spill); requires -spool")
	cacheSpillMB := flag.Int64("cache-spill-mb", 0, "disk budget in MiB for evicted result-cache entries (0 disables; requires -journal)")
	maxSceneMB := flag.Int64("max-scene-mb", 512, "largest registrable scene payload in MiB")
	maxScenes := flag.Int("max-scenes", 64, "concurrently registered scenes")
	maxWait := flag.Duration("max-wait", 60*time.Second, "cap on one v2 long-poll request")
	clusterListen := flag.String("cluster", "", "cluster mode: listen address for fusionworkerd connections (e.g. :9310)")
	clusterWorkers := flag.Int("cluster-workers", 2, "expected fusionworkerd processes (overrides -workers in cluster mode)")
	clusterReplication := flag.Int("cluster-replication", 2, "replicas per logical worker in cluster mode")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 250*time.Millisecond, "replica heartbeat period in cluster mode")
	clusterFail := flag.Duration("cluster-fail-timeout", time.Second, "silence window before a replica is declared failed")
	clusterReissue := flag.Duration("cluster-reissue", 5*time.Second, "manager per-request timeout before lost work is reissued")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	verbose := flag.Bool("v", false, "log thread diagnostics (alias for -log-level debug)")
	flag.Parse()

	if *verbose {
		*logLevel = "debug"
	}
	logger := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)

	// A journal without a pinned spool would persist the catalog inside a
	// temp dir that Close removes — every restart would boot empty and
	// sweep nothing, silently defeating the durability the flag promises.
	if *journal != "" && *spool == "" {
		logger.Error("-journal requires -spool (a temp spool is removed on exit, taking the scene catalog with it)")
		os.Exit(2)
	}

	if *clusterListen != "" {
		// Cluster mode pins the pool width to the fleet size (the service
		// would force it anyway); reflecting it here keeps the startup log
		// and the derived concurrency default consistent.
		*workers = *clusterWorkers
	}
	if *concurrency <= 0 {
		*concurrency = max(1, *workers/2)
	}
	cfg := service.Config{
		Workers:       *workers,
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		CacheEntries:  *cacheEntries,
		SpoolDir:      *spool,
		JournalDir:    *journal,
		CacheSpillBytes: func() int64 {
			if *cacheSpillMB < 0 {
				return 0
			}
			return *cacheSpillMB << 20
		}(),
		MaxSceneBytes: *maxSceneMB << 20,
		MaxScenes:     *maxScenes,
		MaxLongPoll:   *maxWait,
		Logger:        logger,
	}
	if *clusterListen != "" {
		cfg.Cluster = &service.ClusterConfig{
			Listen:          *clusterListen,
			Workers:         *clusterWorkers,
			Replication:     *clusterReplication,
			HeartbeatPeriod: clusterHeartbeat.Seconds(),
			FailTimeout:     clusterFail.Seconds(),
			ReissueTimeout:  clusterReissue.Seconds(),
		}
	}
	pool, err := service.NewPool(cfg)
	if err != nil {
		logger.Error("pool construction failed", "err", err)
		os.Exit(1)
	}
	if rep := pool.Recovery(); rep != nil {
		logger.Info("durable control plane recovered", "journal", *journal, "report", rep.String())
	}

	if *opsAddr != "" {
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("GET /debug/pprof/", pprof.Index)
		opsMux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		opsMux.Handle("GET /metrics", pool.Metrics().Handler())
		go func() {
			logger.Info("ops listener serving", "addr", *opsAddr)
			if err := http.ListenAndServe(*opsAddr, opsMux); err != nil {
				logger.Error("ops listener failed", "addr", *opsAddr, "err", err)
			}
		}()
	}

	// Request contexts derive from baseCtx so shutdown can release
	// handlers parked in v2 long-polls: they return the current job
	// snapshot immediately instead of holding the drain open for up to
	// -max-wait.
	baseCtx, releaseWaiters := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:        *addr,
		Handler:     pool.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	go func() {
		logger.Info("serving",
			"addr", *addr, "workers", *workers,
			"concurrency", *concurrency, "queue", *queue)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			logger.Error("http server failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("draining")
	releaseWaiters()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := pool.Close(); err != nil {
		logger.Warn("pool close", "err", err)
	}
	logger.Info("stopped")
}

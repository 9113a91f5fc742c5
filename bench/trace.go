package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// stages are the span names the manager records per job, as served by
// GET /v2/jobs/{id}/trace; core.stage.<name>_s sums them over the probes.
var stages = []string{"ingest", "screen", "merge", "mean", "covariance", "eigen", "transform", "fuse"}

// scrape fetches and parses the daemon's /metrics exposition.
func (d *deployment) scrape(ctx context.Context) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(string(body)), nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceRun is the separate traced run behind the per-layer metrics. It
// never feeds an end-to-end number. Against one live deployment it runs
// a plain phase and a traced phase of the workload's ops (their p50s
// give the tracing overhead), then one probe op per algorithm whose
// daemon-side stage spans it sums; then, with the daemons stopped, it
// replays the sample input through every layer in process.
func (e *env) traceRun(ctx context.Context, w *workload, seed int64, seconds int) (*report, error) {
	dir, err := os.MkdirTemp(e.work, "inputs-")
	if err != nil {
		return nil, err
	}
	e.jan.addDir(dir)
	t0 := time.Now()
	in, err := generateInputs(w, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	v := values{"bench.inputgen_s": time.Since(t0).Seconds()}

	// The sample in the two encodings the layers read.
	sample := in.sample()
	var hsic bytes.Buffer
	if _, err := sample.WriteTo(&hsic); err != nil {
		return nil, err
	}
	scenePath, sceneHdr := in.scenePath, in.sceneHdr
	if !w.scene {
		if scenePath, sceneHdr, err = writeScene(dir, sample); err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	d, err := e.setUp(ctx, w, in, seed)
	if err != nil {
		return nil, err
	}
	defer d.dep.shutdown()
	c := d.dep.client
	// Job workloads register no scene in set-up; here they register the
	// sample so the upload path has a number on every workload.
	v["scene.register_ms"] = d.regSecs * 1000
	probeScene := d.drv.sceneID
	if !w.scene {
		secs, _, err := rec.call("fusionclient.register_scene", -1, func() error {
			info, err := registerScene(ctx, c, sceneHdr, scenePath)
			if err == nil {
				probeScene = info.ID
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("register scene: %w", err)
		}
		v["scene.register_ms"] = secs * 1000
	}

	before, err := d.read(ctx)
	if err != nil {
		return nil, err
	}
	framesBefore, err := d.dep.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// Each phase lasts a third of the window, and at least ten ops, so
	// the slowest workload still puts twenty ops behind the two medians.
	const phaseMinOps = 10
	phase := time.Duration(seconds) * time.Second / 3
	plain := d.drv.run(ctx, d.st, w.clients, timed(phase, phaseMinOps))
	d.drv.rec = rec
	traced := d.drv.run(ctx, d.st, w.clients, timed(phase, phaseMinOps))
	live := append(append(d.warm, plain...), traced...)

	// Probes: the sample once per algorithm, so every stage the manager
	// records has a span whatever the workload's own mix.
	stageSecs := map[string]float64{}
	for _, alg := range []string{"pct", "pyramid", "dwt"} {
		r := (&driver{dep: d.dep, in: in, sceneID: probeScene}).do(ctx, op{idx: -1, cube: -1, alg: alg, orig: -1})
		if r.err != nil {
			return nil, fmt.Errorf("probe %s: %w", alg, r.err)
		}
		tr, err := c.Trace(ctx, r.job.ID)
		if err != nil {
			return nil, fmt.Errorf("probe %s trace: %w", alg, err)
		}
		for _, s := range tr.Spans {
			stageSecs[s.Name] += s.End - s.Start
		}
	}
	for _, s := range stages {
		v["core.stage."+s+"_s"] = stageSecs[s]
	}

	after, err := d.read(ctx)
	if err != nil {
		return nil, err
	}
	framesAfter, err := d.dep.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if v["fusiond.peak_rss_mb"], err = d.dep.peakRSSMB(); err != nil {
		return nil, err
	}
	d.dep.shutdown()

	for metric, span := range map[string]string{
		"service.http_submit_ms": "fusionclient.submit",
		"service.http_wait_ms":   "fusionclient.wait",
		"service.http_result_ms": "fusionclient.result_png",
	} {
		v[metric] = median(rec.durations(span)) * 1000
	}
	p50 := func(rs []result) float64 {
		var lat []float64
		for _, r := range rs {
			if r.err == nil {
				lat = append(lat, ms(r.latency()))
			}
		}
		sort.Float64s(lat)
		return percentile(lat, 50)
	}
	v["bench.trace_overhead_pct"] = 100 * ratio(p50(traced)-p50(plain), p50(plain))
	ops := float64(len(plain) + len(traced) + 3)
	a, b := after.stats, before.stats
	v["service.cache_hit_ratio"] = ratio(float64(a.CacheHits-b.CacheHits),
		float64(a.CacheHits-b.CacheHits+a.CacheMisses-b.CacheMisses))
	v["service.rejected"] = float64(a.Rejected - b.Rejected)
	v["store.journal_records"], v["store.spill_hit_ratio"] = 0, 0
	if a.Store != nil && b.Store != nil {
		v["store.journal_records"] = float64(a.Store.JournalRecords - b.Store.JournalRecords)
		hits := float64(a.Store.SpillHits - b.Store.SpillHits)
		v["store.spill_hit_ratio"] = ratio(hits, hits+float64(a.Store.SpillMisses-b.Store.SpillMisses))
	}
	v["resilient.regenerations"], v["service.cluster_fallbacks"] = 0, 0
	if a.Cluster != nil && b.Cluster != nil {
		v["resilient.regenerations"] = float64(a.Cluster.Regenerations - b.Cluster.Regenerations)
		v["service.cluster_fallbacks"] = float64(a.Cluster.Fallbacks - b.Cluster.Fallbacks)
	}
	v["scplib.cluster_frames_per_op"] = (framesAfter.frames() - framesBefore.frames()) / ops
	v["fusiond.cpu_user_s"] = after.user - before.user
	v["fusiond.cpu_sys_s"] = after.sys - before.sys

	rp := &replay{rec: rec, v: v, sample: sample, hsic: hsic.Bytes(), scenePath: scenePath, sceneJobs: w.scene, alg: w.alg, dir: dir}
	if err := rp.run(); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	rep := &report{w: w, seed: seed, seconds: seconds, traced: true, values: v,
		attempted: len(live), timedOps: len(plain) + len(traced), warmupOps: len(d.warm)}
	if w.cluster {
		rep.note = clusterNote(before.stats, after.stats)
	}
	bad := verify(in, live)
	for _, r := range live {
		if err := bad[r.op.idx]; err != nil {
			rep.failed++
			if len(rep.reasons) < 5 {
				rep.reasons = append(rep.reasons, fmt.Sprintf("op %d: %v", r.op.idx, err))
			}
		}
	}
	header := hostHeader(e.root)
	header["workload"], header["seed"], header["seconds"] = w.name, seed, seconds
	header["plain_ops"], header["traced_ops"] = len(plain), len(traced)
	path := filepath.Join(e.root, "bench", "out", "trace-"+w.name+".json")
	if err := rec.write(path, header); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "bench: spans written to", path)
	return rep, nil
}

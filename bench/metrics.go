package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef is one metric the benchmark emits. BENCHMARK.json repeats
// these tables; manifest_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a caller of fusiond sees, measured with tracing off
// and defined identically on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"op_tail_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.10},
}

// perLayer comes from the separate traced run (-trace 1): client-side
// spans and daemon surfaces of the live run, plus an in-process replay
// of the workload's sample input through each layer's exported calls.
var perLayer = []metricDef{
	// service + fusionclient
	{Name: "service.http_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_result_ms", Unit: "ms", Better: "lower"},
	{Name: "service.pool_op_ms", Unit: "ms", Better: "lower"},
	{Name: "service.image_png_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	// store
	{Name: "store.log_append_us", Unit: "us", Better: "lower"},
	{Name: "store.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "store.catalog_add_us", Unit: "us", Better: "lower"},
	{Name: "store.spill_put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.spill_get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.journal_records", Unit: "count", Better: "lower"},
	{Name: "store.spill_hit_ratio", Unit: "ratio", Better: "higher"},
	// scene
	{Name: "scene.tile_read_ms", Unit: "ms", Better: "lower"},
	{Name: "scene.prefetch_tile_ms", Unit: "ms", Better: "lower"},
	{Name: "scene.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "scene.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "scene.register_ms", Unit: "ms", Better: "lower"},
	// hsi
	{Name: "hsi.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "hsi.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "hsi.stage_ms", Unit: "ms", Better: "lower"},
	// core
	{Name: "core.sequential_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fuse_real_ms", Unit: "ms", Better: "lower"},
	{Name: "core.protocol_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scaling_eff_p2", Unit: "ratio", Better: "higher"},
	{Name: "core.stage.ingest_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.screen_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.merge_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.mean_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.covariance_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.eigen_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.transform_s", Unit: "s", Better: "lower"},
	{Name: "core.stage.fuse_s", Unit: "s", Better: "lower"},
	// resilient + scplib
	{Name: "resilient.fuse_real_r2_ms", Unit: "ms", Better: "lower"},
	{Name: "resilient.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "resilient.regenerations", Unit: "count", Better: "lower"},
	{Name: "scplib.loopback_r2_ms", Unit: "ms", Better: "lower"},
	{Name: "scplib.frames_per_job", Unit: "count", Better: "lower"},
	{Name: "scplib.spawn_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "scplib.cluster_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "service.cluster_fallbacks", Unit: "count", Better: "lower"},
	// spectral
	{Name: "spectral.screen_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.screen_p2_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.comparisons", Unit: "count", Better: "lower"},
	{Name: "spectral.unique_k", Unit: "count", Better: "lower"},
	// pct
	{Name: "pct.mean_ms", Unit: "ms", Better: "lower"},
	{Name: "pct.cov_ms", Unit: "ms", Better: "lower"},
	{Name: "pct.transform_ms", Unit: "ms", Better: "lower"},
	// linalg
	{Name: "linalg.eigen_ms", Unit: "ms", Better: "lower"},
	{Name: "linalg.gemm_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "linalg.syrk_gflops", Unit: "Gflop/s", Better: "higher"},
	// fuse
	{Name: "fuse.pyramid_tile_ms", Unit: "ms", Better: "lower"},
	{Name: "fuse.pyramid_alloc_mb_per_tile", Unit: "MB", Better: "lower"},
	{Name: "fuse.dwt_tile_ms", Unit: "ms", Better: "lower"},
	{Name: "fuse.dwt_alloc_mb_per_tile", Unit: "MB", Better: "lower"},
	// colormap
	{Name: "colormap.compose_ms", Unit: "ms", Better: "lower"},
	// process
	{Name: "fusiond.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "fusiond.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "fusiond.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "bench.inputgen_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// values collects one run's measurements by metric name.
type values map[string]float64

// checkAgainst reports a name the run measured but the table lacks, or
// the reverse, so the emitted set can never drift from the manifest.
func (v values) checkAgainst(defs []metricDef) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		if _, ok := v[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	for name := range v {
		if !want[name] {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of sorted (0 for
// an empty sample, which only a run with every op failed produces).
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Package bench holds the repository-level benchmark harness: one
// benchmark per figure/claim of the paper's evaluation (on the reduced
// "small" scale so `go test -bench=.` completes quickly — cmd/perfchart
// runs the full paper scale), plus kernel and ablation benchmarks.
//
// Simulated-cluster benchmarks report the *virtual* execution time as the
// custom metric virtual_s; wall-clock ns/op measures the simulator itself.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/experiments"
	"resilientfusion/internal/failure"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/spectral"
	"resilientfusion/internal/telemetry"
)

var (
	sceneOnce sync.Once
	benchCube *hsi.Cube
)

func cube(b *testing.B) *hsi.Cube {
	sceneOnce.Do(func() {
		scene, err := hsi.GenerateScene(experiments.SmallScale().Scene)
		if err != nil {
			panic(err)
		}
		benchCube = scene.Cube
	})
	b.Helper()
	return benchCube
}

// runSim executes one simulated fusion and reports virtual seconds.
func runSim(b *testing.B, cfg experiments.RunConfig) *experiments.RunOutcome {
	b.Helper()
	out, err := experiments.RunOnCube(cfg, cube(b))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// --- E1: Figure 4 ---

func BenchmarkFig4NoResiliency(b *testing.B) {
	scale := experiments.SmallScale()
	fixedS := 2 * scale.Procs[len(scale.Procs)-1]
	for _, p := range scale.Procs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: p, Granularity: fixedS / p, Replication: 1,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

func BenchmarkFig4Resiliency2(b *testing.B) {
	scale := experiments.SmallScale()
	fixedS := 2 * scale.Procs[len(scale.Procs)-1]
	for _, p := range scale.Procs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: p, Granularity: fixedS / p,
					Replication: 2, Regenerate: true,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- E2: Figure 5 ---

func BenchmarkFig5Granularity(b *testing.B) {
	scale := experiments.SmallScale()
	p := scale.Fig5Procs[len(scale.Fig5Procs)-1]
	for _, g := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("P=%d/subcubes=%dxP", p, g), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: p, Granularity: g, Replication: 1,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- E2b: sub-cube sweep (tail-off) ---

func BenchmarkFig5SubCubeSweep(b *testing.B) {
	scale := experiments.SmallScale()
	p := scale.Procs[len(scale.Procs)-1]
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("subcubes=%d", g*p), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: p, Granularity: g, Replication: 1,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- E6: shared-memory model ---

func BenchmarkSharedMemorySpeedup(b *testing.B) {
	scale := experiments.SmallScale()
	for _, p := range scale.Procs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: p, Granularity: 3, Replication: 1,
					Network: experiments.NetShared,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- E7: regeneration under attack ---

func BenchmarkRegeneration(b *testing.B) {
	scale := experiments.SmallScale()
	plan := &failure.Plan{Events: []failure.Event{
		failure.KillReplica(1.0, 1, 0),
		failure.KillReplica(1.5, 2, 1),
	}}
	var last *experiments.RunOutcome
	for i := 0; i < b.N; i++ {
		last = runSim(b, experiments.RunConfig{
			Scale: scale, Workers: 4, Granularity: 2,
			Replication: 2, Regenerate: true, Plan: plan,
			RequestTimeout: 1e4,
		})
	}
	b.ReportMetric(last.Result.Times.Total, "virtual_s")
	b.ReportMetric(float64(last.Regenerations), "regenerations")
}

// --- A5: replication level scaling ---

func BenchmarkReplicationLevels(b *testing.B) {
	scale := experiments.SmallScale()
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: 4, Granularity: 2,
					Replication: r, Regenerate: r > 1,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- A2: communication/computation overlap ---

func BenchmarkAblationPrefetch(b *testing.B) {
	scale := experiments.SmallScale()
	for _, pf := range []int{-1, 1} {
		name := "overlap"
		if pf < 0 {
			name = "no-overlap"
		}
		b.Run(name, func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: 4, Granularity: 3, Replication: 1,
					Prefetch: pf,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- A3: shared bus vs switched fabric ---

func BenchmarkAblationNetworkModel(b *testing.B) {
	scale := experiments.SmallScale()
	for _, net := range []struct {
		name string
		n    experiments.Network
	}{{"bus", experiments.NetBus}, {"switched", experiments.NetSwitched}} {
		b.Run(net.name, func(b *testing.B) {
			var last *experiments.RunOutcome
			for i := 0; i < b.N; i++ {
				last = runSim(b, experiments.RunConfig{
					Scale: scale, Workers: 8, Granularity: 2, Replication: 1,
					Network: net.n,
				})
			}
			b.ReportMetric(last.Result.Times.Total, "virtual_s")
		})
	}
}

// --- A4: the eigensolver at the paper's band counts ---

func BenchmarkEigenSym(b *testing.B) {
	for _, n := range []int{105, 210} {
		m := randomCovariance(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.EigenSym(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomCovariance(n int) *linalg.Matrix {
	base := linalg.NewMatrix(n, n)
	for i := range base.Data {
		base.Data[i] = float64((i*2654435761)%1000)/500 - 1
	}
	bt := base.Transpose()
	m, err := base.Mul(bt)
	if err != nil {
		panic(err)
	}
	m.Symmetrize()
	return m
}

// --- Kernels ---

func BenchmarkScreen(b *testing.B) {
	c := cube(b)
	sub, err := hsi.Extract(c, hsi.RowRange{Y0: 0, Y1: c.Height / 2})
	if err != nil {
		b.Fatal(err)
	}
	vectors := sub.PixelVectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Screen(vectors, 0.03); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	paperSubOnce sync.Once
	paperSubVecs []linalg.Vector
)

// paperSubVectors stages the pixel vectors of one paper-geometry
// sub-cube: §4's 320×320×105 cube split into 32 sub-cubes (P=16,
// granularity 2) gives 10-row slabs of 3200 pixels — the unit of
// screening work a worker performs per request.
func paperSubVectors(b *testing.B) []linalg.Vector {
	paperSubOnce.Do(func() {
		scene, err := hsi.GenerateScene(experiments.PaperScale().Scene)
		if err != nil {
			panic(err)
		}
		sub, err := hsi.Extract(scene.Cube, hsi.Partition(scene.Cube.Height, 32)[0])
		if err != nil {
			panic(err)
		}
		paperSubVecs = sub.PixelVectors()
	})
	b.Helper()
	return paperSubVecs
}

// BenchmarkScreenBatched measures the deterministic parallel screening
// engine on the paper-geometry sub-cube: seq is the sequential Screen
// reference on the same input, par=N the batched engine at that
// parallelism (output bit-identical across all cases).
func BenchmarkScreenBatched(b *testing.B) {
	vectors := paperSubVectors(b)
	threshold := experiments.PaperScale().Threshold
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := spectral.Screen(vectors, threshold); err != nil {
				b.Fatal(err)
			}
		}
	})
	pars := []int{1, 2, 4}
	if gm := runtime.GOMAXPROCS(0); gm != 1 && gm != 2 && gm != 4 {
		pars = append(pars, gm)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := spectral.ScreenBatched(vectors, threshold, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMeanOf(b *testing.B) {
	c := cube(b)
	vectors := (&hsi.SubCube{Range: hsi.RowRange{Y1: c.Height}, Cube: c}).PixelVectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pct.MeanOf(vectors); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCovarianceSum(b *testing.B) {
	c := cube(b)
	u, _, err := spectral.Screen((&hsi.SubCube{Range: hsi.RowRange{Y1: c.Height}, Cube: c}).PixelVectors(), 0.03)
	if err != nil {
		b.Fatal(err)
	}
	mean, err := pct.MeanOf(u.Members)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pct.CovarianceSum(u.Members, mean); err != nil {
			b.Fatal(err)
		}
	}
}

// wholeImagePCT is the sequential pipeline at one worker and one
// sub-cube: the Mean and Transform the transform benchmarks project with.
func wholeImagePCT(c *hsi.Cube) (*core.Result, error) {
	return core.Sequential(c, core.Options{Workers: 1, Granularity: 1, Threshold: 0.03})
}

func BenchmarkTransformCube(b *testing.B) {
	c := cube(b)
	res, err := wholeImagePCT(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pct.TransformCubePar(c, res.Transform, res.Mean, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead is the telemetry-overhead guard: the two
// hottest kernels run bare (metrics=off) and wrapped with exactly the
// per-message instrumentation the service worker adds around a kernel
// call (metrics=on) — one time.Now, one histogram observation, one
// trace span. The kernels themselves are untouched by telemetry (spans
// sit outside inner loops), so the pair bounds the whole-path cost.
// The budget is < 2 % on/off overhead; compare the pairs over
// repeated runs with go test -run '^$' -bench TelemetryOverhead
// -count 10 .
func BenchmarkTelemetryOverhead(b *testing.B) {
	vectors := paperSubVectors(b)
	threshold := experiments.PaperScale().Threshold
	c := cube(b)
	res, err := wholeImagePCT(c)
	if err != nil {
		b.Fatal(err)
	}
	kernels := []struct {
		name string
		op   func() error
	}{
		{"ScreenBatched", func() error {
			_, _, err := spectral.ScreenBatched(vectors, threshold, 4)
			return err
		}},
		{"TransformCube", func() error {
			_, err := pct.TransformCubePar(c, res.Transform, res.Mean, 0)
			return err
		}},
	}
	for _, k := range kernels {
		b.Run(k.name+"/metrics=off", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.name+"/metrics=on", func(b *testing.B) {
			reg := telemetry.NewRegistry()
			hist := reg.Histogram("fusion_worker_stage_seconds",
				"Per-message kernel latency.", telemetry.DefBuckets)
			tr := telemetry.NewTraceRecorder(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := tr.Now()
				t0 := time.Now()
				if err := k.op(); err != nil {
					b.Fatal(err)
				}
				hist.Observe(time.Since(t0).Seconds())
				tr.Stage("kernel", i, start, tr.Now())
			}
		})
	}
}

// BenchmarkCovarianceSumDense measures step 4 at its production shape —
// plain-PCT statistics over every pixel (the worst case a worker
// sees), where the screened benchmark above reduces to a handful of
// vectors. This is the shape the blocked SYRK and the shard-parallel
// reduction are built for.
func BenchmarkCovarianceSumDense(b *testing.B) {
	c := cube(b)
	vectors := (&hsi.SubCube{Range: hsi.RowRange{Y1: c.Height}, Cube: c}).PixelVectors()
	mean, err := pct.MeanOf(vectors)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pct.CovarianceSum(vectors, mean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeCodec(b *testing.B) {
	c := cube(b)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(c.EncodedSize())
		for i := 0; i < b.N; i++ {
			var sink countWriter
			if _, err := c.WriteTo(&sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// --- Pluggable fusion algorithms ---

// BenchmarkAlgorithms compares the registered fusion algorithms on the
// same scene through the sequential oracle — the PCT protocol pipeline
// against the pyramid and DWT tile kernels, at serial and parallel
// kernel settings (the output is parallelism-invariant; only the wall
// clock moves).
func BenchmarkAlgorithms(b *testing.B) {
	c := cube(b)
	for _, alg := range []string{"pct", "pyramid", "dwt"} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/par=%d", alg, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Sequential(c, core.Options{
						Workers: 4, Granularity: 2, Threshold: 0.03,
						Parallelism: par, Algorithm: alg,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Real-runtime end-to-end (true parallelism on the host) ---

func BenchmarkRealRuntimeFusion(b *testing.B) {
	c := cube(b)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Fuse(scplib.NewRealSystem(), c, core.Options{
					Workers: p, Granularity: 2, Threshold: 0.03,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

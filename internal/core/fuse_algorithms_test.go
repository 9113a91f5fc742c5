package core

import (
	"errors"
	"testing"

	"resilientfusion/internal/linalg"
	"resilientfusion/internal/scplib"
)

// tileAlgorithms are the registered non-pct (tile-kernel) algorithms the
// parity tests below cover.
var tileAlgorithms = []string{"pyramid", "dwt"}

// TestTileAlgorithmsDistributedMatchesSequential is the tile-kernel
// analogue of TestDistributedMatchesSequential: the manager's dynamic
// fuse phase over simulated workers must produce the same composite,
// bit for bit, as the one-thread Sequential oracle at every worker
// count and granularity.
func TestTileAlgorithmsDistributedMatchesSequential(t *testing.T) {
	cube := testScene(t)
	for _, alg := range tileAlgorithms {
		for _, P := range []int{1, 2, 4} {
			for _, g := range []int{1, 3} {
				opts := Options{Workers: P, Granularity: g, Algorithm: alg}
				seq, err := Sequential(cube, opts)
				if err != nil {
					t.Fatal(err)
				}
				job, _, _ := simJob(t, cube, opts)
				dist, err := job.Run()
				if err != nil {
					t.Fatalf("%s P=%d g=%d: %v", alg, P, g, err)
				}
				if dist.SubCubes != seq.SubCubes {
					t.Fatalf("%s P=%d g=%d: sub-cubes %d vs %d", alg, P, g, dist.SubCubes, seq.SubCubes)
				}
				if !imagesEqual(dist.Image, seq.Image) {
					t.Fatalf("%s P=%d g=%d: distributed composite differs from sequential", alg, P, g)
				}
			}
		}
	}
}

// TestTileAlgorithmsParallelismInvariant pins the determinism contract
// at the job level: Parallelism is a throughput knob only, so every
// setting yields a bit-identical composite.
func TestTileAlgorithmsParallelismInvariant(t *testing.T) {
	cube := testScene(t)
	for _, alg := range tileAlgorithms {
		base, err := Sequential(cube, Options{Workers: 2, Algorithm: alg, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, linalg.MaxWorkers()} {
			got, err := Sequential(cube, Options{Workers: 2, Algorithm: alg, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !imagesEqual(got.Image, base.Image) {
				t.Fatalf("%s: parallelism %d changed the composite", alg, par)
			}
			job, _, _ := simJob(t, cube, Options{Workers: 2, Algorithm: alg, Parallelism: par})
			dist, err := job.Run()
			if err != nil {
				t.Fatalf("%s par=%d: %v", alg, par, err)
			}
			if !imagesEqual(dist.Image, base.Image) {
				t.Fatalf("%s: distributed at parallelism %d differs", alg, par)
			}
		}
	}
}

// TestTileAlgorithmsRealRuntime drives each tile algorithm end to end on
// the real (goroutine) runtime, the same path the service pool's
// degraded mode and the examples use — bare, and with every worker
// replicated, where both replicas of a group decode their tile out of the
// one buffer the manager sent (run under -race in CI).
func TestTileAlgorithmsRealRuntime(t *testing.T) {
	cube := testScene(t)
	for _, alg := range tileAlgorithms {
		for _, replication := range []int{1, 2} {
			opts := Options{Workers: 2, Algorithm: alg, Replication: replication,
				HeartbeatPeriod: 0.02, FailTimeout: 0.2, RequestTimeout: 30}
			seq, err := Sequential(cube, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Fuse(scplib.NewRealSystem(), cube, opts)
			if err != nil {
				t.Fatalf("%s r%d: %v", alg, replication, err)
			}
			if !imagesEqual(res.Image, seq.Image) {
				t.Fatalf("%s r%d: real-runtime composite differs from sequential", alg, replication)
			}
		}
	}
}

// TestTileAlgorithmStreamedMatchesInMemory checks FuseSource over a tile
// source is bit-identical to the in-memory path for tile algorithms (the
// scene package re-checks this off a real spooled file).
func TestTileAlgorithmStreamedMatchesInMemory(t *testing.T) {
	cube := testScene(t)
	for _, alg := range tileAlgorithms {
		opts := Options{Workers: 2, Granularity: 3, Algorithm: alg}
		mem, err := Fuse(scplib.NewRealSystem(), cube, opts)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := FuseSource(scplib.NewRealSystem(), MemSource(cube), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !imagesEqual(streamed.Image, mem.Image) {
			t.Fatalf("%s: streamed composite differs from in-memory", alg)
		}
	}
}

// TestResultKeyAlgorithm pins the cache-key contract of the registry
// refactor: the pct key keeps its exact pre-registry byte layout, every
// spelling of pct shares it, and each tile algorithm gets its own
// disjoint key space.
func TestResultKeyAlgorithm(t *testing.T) {
	base := Options{Workers: 4, Granularity: 2, Threshold: 0.05, Components: 3}
	// The exact pre-registry key (Float64bits(0.05) = 0x3fa999999999999a):
	// cache entries written before algorithms existed must stay
	// addressable, so this literal may never change.
	const legacy = "w4.g2.t3fa999999999999a.c3.s0"
	if got := base.ResultKey(); got != legacy {
		t.Fatalf("pct key = %q, want pinned %q", got, legacy)
	}
	// Absent, explicit, and case-variant spellings of pct share the key.
	for _, spelling := range []string{"", "pct", "PCT", "  pct "} {
		o := base
		o.Algorithm = spelling
		if got := o.ResultKey(); got != legacy {
			t.Errorf("algorithm %q key = %q, want %q", spelling, got, legacy)
		}
	}
	// Tile algorithms append a disjoint suffix.
	pyr, dwt := base, base
	pyr.Algorithm = "pyramid"
	dwt.Algorithm = "dwt"
	if got := pyr.ResultKey(); got != legacy+".apyramid" {
		t.Errorf("pyramid key = %q", got)
	}
	if got := dwt.ResultKey(); got != legacy+".adwt" {
		t.Errorf("dwt key = %q", got)
	}
	if pyr.ResultKey() == dwt.ResultKey() {
		t.Error("pyramid and dwt share a key")
	}
	// Parallelism stays excluded for tile algorithms too.
	fast := pyr
	fast.Parallelism = 7
	if fast.ResultKey() != pyr.ResultKey() {
		t.Error("Parallelism leaked into a tile-algorithm key")
	}
}

// TestUnknownAlgorithmRejected checks every construction path fails fast
// with ErrBadOptions on an unregistered name.
func TestUnknownAlgorithmRejected(t *testing.T) {
	cube := testScene(t)
	opts := Options{Workers: 2, Algorithm: "bogus"}
	if _, err := Sequential(cube, opts); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Sequential: %v", err)
	}
	if _, err := Fuse(scplib.NewRealSystem(), cube, opts); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Fuse: %v", err)
	}
}

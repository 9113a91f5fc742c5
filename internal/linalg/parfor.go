package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelShards runs fn(s) for every shard index s in [0, shards) on up
// to workers goroutines (0 selects GOMAXPROCS; negative forces one
// worker — serial — matching core.Options.Parallelism). Shards are
// claimed dynamically, so callers must make fn independent across shards:
// the canonical pattern is one output slot per shard, combined afterwards
// in ascending shard order. Because the shard grid is fixed by the caller
// (never derived from the worker count), results are bit-identical for
// every workers value — the property the kernel parity tests pin down.
//
// ParallelFor is the [lo, hi) range form of the same contract, and
// ParallelShardsIndexed additionally identifies the executing worker so
// callers can reuse per-worker scratch buffers.
func ParallelShards(shards, workers int, fn func(shard int)) {
	ParallelShardsIndexed(shards, workers, func(_, s int) { fn(s) })
}

// MaxWorkers reports how wide the runtime will actually run goroutines —
// the process-wide answer to "how parallel is Parallelism=0?". This is
// the repo's single GOMAXPROCS/NumCPU read: every other package derives
// automatic worker counts from this resolver (the fusionlint shardgrid
// rule enforces it), so a zero Parallelism can never resolve to
// different widths in different packages.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// Go runs fn on a new goroutine. It is deliberately trivial: the
// deterministic packages may not contain naked go statements (the
// fusionlint detsource rule), so every background task they start flows
// through this one audit point. Callers own completion — fn must signal
// through a channel the caller drains before the resources fn touches
// are released (scene.PrefetchTiler is the canonical pattern). Kernel
// fan-out must use ParallelShards instead: a fixed shard grid is what
// keeps reductions bit-identical across worker counts.
func Go(fn func()) { go fn() }

// EffectiveWorkers returns the number of workers ParallelShardsIndexed
// will actually run for the given shard count and requested parallelism:
// the size callers use for per-worker scratch arrays.
func EffectiveWorkers(shards, workers int) int {
	if shards <= 0 {
		return 0
	}
	if workers < 0 {
		workers = 1
	} else if workers == 0 {
		workers = MaxWorkers()
	}
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelShardsIndexed is ParallelShards with the executing worker's
// index (0 <= worker < EffectiveWorkers(shards, workers)) passed to fn.
// A worker runs its shards sequentially, so per-worker scratch indexed by
// the worker id needs no further synchronization.
func ParallelShardsIndexed(shards, workers int, fn func(worker, shard int)) {
	if shards <= 0 {
		return
	}
	workers = EffectiveWorkers(shards, workers)
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				s := next.Add(1) - 1
				if s >= int64(shards) {
					return
				}
				fn(worker, int(s))
			}
		}(w)
	}
	wg.Wait()
}

// ShardCount returns the number of fixed-size shards covering n items
// (zero when n <= 0). The shard grid depends only on n and size, which is
// what keeps sharded reductions deterministic under any parallelism.
func ShardCount(n, size int) int {
	if n <= 0 || size <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// ShardRange returns shard s's half-open item range [lo, hi) for n items
// in shards of the given size.
func ShardRange(n, size, s int) (lo, hi int) {
	lo = s * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

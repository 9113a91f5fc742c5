package service

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/telemetry"
)

// JobState is a job's position in its lifecycle; a job is terminal
// (its done channel closed, its snapshot fixed) once State.Terminal().
type JobState = fusionclient.JobState

const (
	StateQueued   = fusionclient.StateQueued
	StateRunning  = fusionclient.StateRunning
	StateDone     = fusionclient.StateDone
	StateFailed   = fusionclient.StateFailed
	StateCanceled = fusionclient.StateCanceled
)

// Job is one fusion request moving through the pool.
type Job struct {
	id     string
	num    uint64 // submission sequence number
	cube   *hsi.Cube
	opts   core.Options
	digest string
	key    string
	// cubeFile is the journal-spooled copy of a cube job's input (a bare
	// name under the pool's cubes directory), set only on durable pools;
	// the terminal journaling releases it.
	cubeFile string

	// Scene jobs stream tiles from a registered scene instead of holding
	// a cube: sceneID names the registry entry, and sceneFile is the
	// job's own open handle on the spooled payload, taken at submit so
	// removing the scene (which unlinks the file) cannot strand an
	// accepted job — the handle stays readable until finish() closes it.
	// The tile counters publish per-tile progress from the manager
	// thread to HTTP pollers; tilesTotal is immutable after enqueue.
	sceneID          string
	sceneHdr         scene.Header
	sceneFile        *os.File
	tilesTotal       int
	tilesScreened    atomic.Int64
	tilesTransformed atomic.Int64

	// trace records the job's stage spans and resiliency events, set at
	// enqueue and threaded into the run via an Options copy (never into
	// job.opts, whose ResultKey feeds the cache).
	trace *telemetry.TraceRecorder

	done chan struct{} // closed on completion (done or failed)

	// Guarded by the pool's mutex.
	state              JobState
	cacheHit           bool
	err                error
	result             *core.Result
	submitted, started time.Time
	finished           time.Time

	// Composite image memoized as PNG on first request — results are
	// immutable once the job is done. Guarded by pngMu (not the pool
	// mutex: PNG encoding must not block the pool).
	pngMu sync.Mutex
	png   []byte
}

// JobStatus is an immutable snapshot of a job.
type JobStatus struct {
	ID    string
	State JobState
	// SceneID is set for scene jobs (FuseScene).
	SceneID  string
	CacheHit bool
	Err      error
	// Result is set once State is StateDone. It is shared with the result
	// cache and other jobs: treat it as read-only.
	Result *core.Result
	// Options are the canonical options the job runs with — every knob
	// defaults-filled, including the pool-fixed worker count — so clients
	// can see what their submission actually meant.
	Options core.Options
	// Progress is set for scene jobs: each tile passes screening and
	// then the transform, so Transformed trails Screened and both end at
	// Total.
	Progress *fusionclient.TileProgress
	// Trace summarizes the job's recorded stage spans (count and summed
	// seconds per stage); empty until the run records spans. The full
	// timeline is served by GET /v2/jobs/{id}/trace.
	Trace     map[string]telemetry.StageSummary
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// progress snapshots the tile counters (nil for non-scene jobs).
func (j *Job) progress() *fusionclient.TileProgress {
	if j.sceneID == "" {
		return nil
	}
	return &fusionclient.TileProgress{
		Total:       j.tilesTotal,
		Screened:    int(j.tilesScreened.Load()),
		Transformed: int(j.tilesTransformed.Load()),
	}
}

// markTilesComplete reports every tile done — the cache-hit fast path
// finishes a scene job without running its tiles. tilesTotal itself was
// set under the pool lock at enqueue (the same min(G·W, lines) the
// manager derives) and is never written afterwards.
func (j *Job) markTilesComplete() {
	j.tilesScreened.Store(int64(j.tilesTotal))
	j.tilesTransformed.Store(int64(j.tilesTotal))
}

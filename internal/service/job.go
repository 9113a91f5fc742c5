package service

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether s is a final state: the job's done channel is
// closed and its snapshot no longer changes.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one fusion request moving through the pool.
type Job struct {
	id     string
	num    uint64 // wire job ID
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

// TileProgress is a scene job's per-tile pipeline position: each tile
// passes screening and then the transform, so Transformed trails
// Screened and both end at Total.
type TileProgress struct {
	Total       int `json:"total"`
	Screened    int `json:"screened"`
	Transformed int `json:"transformed"`
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
	// Progress is set for scene jobs.
	Progress *TileProgress
	// Trace summarizes the job's recorded stage spans (count and summed
	// seconds per stage); empty until the run records spans. The full
	// timeline is served by GET /v2/jobs/{id}/trace.
	Trace     map[string]telemetry.StageSummary
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// progress snapshots the tile counters (nil for non-scene jobs).
func (j *Job) progress() *TileProgress {
	if j.sceneID == "" {
		return nil
	}
	return &TileProgress{
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

// jobEnv adapts a plain scplib thread environment to the resilient.REnv
// interface core.RunManager is written against, scoped to one job: sends
// are wrapped in the job envelope and fanned out to the pooled workers by
// logical ID, receives are filtered to this job and translated back to
// logical space. This is what lets the service reuse the exact manager
// protocol (phases, reissue logic, dedupe) over a shared worker pool.
type jobEnv struct {
	env         scplib.Env
	jobID       uint64
	threshold   float64
	parallelism int
	alg         fuse.ID
	// workers[w-1] is the physical thread of logical worker w (1..W).
	workers []scplib.ThreadID
	back    map[scplib.ThreadID]resilient.LogicalID
}

func newJobEnv(env scplib.Env, jobID uint64, threshold float64, parallelism int, alg fuse.ID, workers []scplib.ThreadID) *jobEnv {
	back := make(map[scplib.ThreadID]resilient.LogicalID, len(workers))
	for i, id := range workers {
		back[id] = resilient.LogicalID(i + 1)
	}
	return &jobEnv{env: env, jobID: jobID, threshold: threshold, parallelism: parallelism, alg: alg, workers: workers, back: back}
}

func (e *jobEnv) Self() resilient.LogicalID { return core.ManagerID }
func (e *jobEnv) Replica() int              { return 0 }
func (e *jobEnv) Now() float64              { return e.env.Now() }

func (e *jobEnv) Send(to resilient.LogicalID, kind uint16, payload []byte) error {
	return e.SendFrame(to, kind, resilient.FrameOf(payload))
}

// SendFrame stamps the job envelope into the frame's headroom and hands
// those same bytes to the worker's mailbox.
func (e *jobEnv) SendFrame(to resilient.LogicalID, kind uint16, frame []byte) error {
	w := int(to)
	if w < 1 || w > len(e.workers) {
		return nil // like sends to unknown threads: dropped silently
	}
	return e.env.Send(e.workers[w-1], kind, putEnvelope(frame, e.jobID, e.threshold, e.parallelism, e.alg))
}

// mine reports whether a raw message belongs to this job.
func (e *jobEnv) mine(m *scplib.Message) bool {
	id, ok := envelopeJobID(m.Payload)
	return ok && id == e.jobID
}

// translate unwraps a raw message into logical space, or fails the job on
// a worker-reported error.
func (e *jobEnv) translate(m *scplib.Message) (*resilient.RMessage, error) {
	_, _, _, _, inner, err := decodeEnvelope(m.Payload)
	if err != nil {
		return nil, err
	}
	if m.Kind == kindJobErr {
		return nil, fmt.Errorf("service: worker %d: %s", e.back[m.From], inner)
	}
	return &resilient.RMessage{From: e.back[m.From], Kind: m.Kind, Payload: inner}, nil
}

// mapErr lifts scplib errors to the resilient error space the manager's
// phase loops test against.
func mapErr(err error) error {
	switch {
	case errors.Is(err, scplib.ErrTimeout):
		return resilient.ErrTimeout
	case errors.Is(err, scplib.ErrKilled):
		return resilient.ErrKilled
	}
	return err
}

func (e *jobEnv) Recv() (*resilient.RMessage, error) {
	m, err := e.env.RecvMatch(e.mine)
	if err != nil {
		return nil, mapErr(err)
	}
	return e.translate(m)
}

func (e *jobEnv) RecvTimeout(seconds float64) (*resilient.RMessage, error) {
	m, err := e.env.RecvMatchTimeout(e.mine, seconds)
	if err != nil {
		return nil, mapErr(err)
	}
	return e.translate(m)
}

func (e *jobEnv) RecvMatch(match func(*resilient.RMessage) bool) (*resilient.RMessage, error) {
	return e.recvMatch(match, -1)
}

func (e *jobEnv) RecvMatchTimeout(match func(*resilient.RMessage) bool, seconds float64) (*resilient.RMessage, error) {
	return e.recvMatch(match, seconds)
}

func (e *jobEnv) recvMatch(match func(*resilient.RMessage) bool, seconds float64) (*resilient.RMessage, error) {
	raw := func(m *scplib.Message) bool {
		if !e.mine(m) {
			return false
		}
		if m.Kind == kindJobErr {
			return true // always surface job failures
		}
		rm, err := e.translate(m)
		if err != nil {
			return true // surface decode errors too
		}
		return match(rm)
	}
	var m *scplib.Message
	var err error
	if seconds < 0 {
		m, err = e.env.RecvMatch(raw)
	} else {
		m, err = e.env.RecvMatchTimeout(raw, seconds)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	return e.translate(m)
}

func (e *jobEnv) Compute(flops float64) error { return e.env.Compute(flops) }

func (e *jobEnv) Logf(format string, args ...any) { e.env.Logf(format, args...) }

// stopWorkers retires this job's state on every pooled worker. The
// manager protocol already sends per-worker stops on success; this sweep
// also covers failed jobs, and duplicate stops are no-ops worker-side.
func (e *jobEnv) stopWorkers() {
	for _, id := range e.workers {
		_ = e.env.Send(id, core.KindStop, putEnvelope(resilient.NewFrame(0), e.jobID, 0, 0, 0))
	}
}

var _ resilient.REnv = (*jobEnv)(nil)

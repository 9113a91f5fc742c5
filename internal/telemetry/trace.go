package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Span is one recorded stage interval in a job's timeline. Times are
// seconds relative to the recorder's creation (job enqueue), so a
// timeline reads as elapsed job time. Point events (regenerations)
// have Start == End. The service serves spans as fusionclient.Span,
// which converts field for field; the wire keys are declared there.
type Span struct {
	// Name is the stage: ingest, screen, mean, covariance, eigen,
	// transform, merge, regeneration, ...
	Name string
	// Index is the sub-cube or partition index for per-part stages
	// (-1 when the stage has no index).
	Index int
	// Start and End are elapsed seconds since the recorder was created.
	Start float64
	End   float64
	// Epoch is the group incarnation for regeneration events (0 otherwise).
	Epoch int
	// Note carries free-form detail (e.g. "replica 1 on node 2").
	Note string
}

// TraceRecorder is a bounded ring of spans for one job. All methods
// are safe on a nil receiver (no-ops), so instrumented code never
// branches on whether tracing is on; they are also safe for concurrent
// use (manager thread, guardian, HTTP readers). Span recording sits
// outside kernel inner loops — per sub-cube, not per pixel — so the
// mutex is touched a few hundred times per job at most.
type TraceRecorder struct {
	start time.Time

	mu      sync.Mutex
	ring    []Span
	next    int // ring insert position once full
	full    bool
	dropped int64 // spans overwritten after the ring filled
}

// defaultTraceCap bounds one job's span ring: a paper-scale scene is
// ~8 sub-cubes × a handful of stages plus rare regeneration events,
// so 256 holds any realistic job with room for pathological retries.
const defaultTraceCap = 256

// NewTraceRecorder returns a recorder holding up to capacity spans
// (defaultTraceCap when capacity <= 0).
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &TraceRecorder{start: time.Now(), ring: make([]Span, 0, capacity)}
}

// Now returns elapsed seconds since the recorder was created (0 on nil).
func (tr *TraceRecorder) Now() float64 {
	if tr == nil {
		return 0
	}
	return time.Since(tr.start).Seconds()
}

// Record appends one span (no-op on nil).
func (tr *TraceRecorder) Record(s Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, s)
	} else {
		tr.ring[tr.next] = s
		tr.next = (tr.next + 1) % cap(tr.ring)
		tr.full = true
		tr.dropped++
	}
	tr.mu.Unlock()
}

// Stage records an interval span for a stage with a per-part index
// (pass -1 for unindexed stages).
func (tr *TraceRecorder) Stage(name string, index int, start, end float64) {
	tr.Record(Span{Name: name, Index: index, Start: start, End: end})
}

// Event records a point event at the current time.
func (tr *TraceRecorder) Event(name string, index, epoch int, note string) {
	if tr == nil {
		return
	}
	now := tr.Now()
	tr.Record(Span{Name: name, Index: index, Start: now, End: now, Epoch: epoch, Note: note})
}

// Snapshot returns the recorded spans oldest-first, sorted by start
// time, and the count of spans lost to ring overflow.
func (tr *TraceRecorder) Snapshot() (spans []Span, dropped int64) {
	if tr == nil {
		return nil, 0
	}
	tr.mu.Lock()
	if tr.full {
		spans = make([]Span, 0, cap(tr.ring))
		spans = append(spans, tr.ring[tr.next:]...)
		spans = append(spans, tr.ring[:tr.next]...)
	} else {
		spans = append([]Span(nil), tr.ring...)
	}
	dropped = tr.dropped
	tr.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, dropped
}

// StageSummary aggregates one stage's spans for the job-status view
// (served as fusionclient.StageSummary).
type StageSummary struct {
	Count   int
	Seconds float64
}

// Summary returns per-stage counts and total seconds, keyed by stage
// name (nil map on a nil recorder or an empty ring).
func (tr *TraceRecorder) Summary() map[string]StageSummary {
	spans, _ := tr.Snapshot()
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]StageSummary)
	for _, s := range spans {
		agg := out[s.Name]
		agg.Count++
		agg.Seconds += s.End - s.Start
		out[s.Name] = agg
	}
	return out
}

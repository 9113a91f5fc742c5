package fusionclient

import "time"

// JobState is a job's position in its lifecycle, as reported by the
// service.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Options are the client-settable fusion knobs. Nil fields take the
// pool's defaults (so does an explicit zero — the service treats zero
// as unset); the canonical values a job actually ran with come back in
// Job.Options. Use the Int and Float helpers for literals:
//
//	fusionclient.Options{Threshold: fusionclient.Float(0.05)}
type Options struct {
	// Granularity sets sub-cubes = Granularity × pool workers.
	Granularity *int `json:"granularity,omitempty"`
	// Prefetch is the per-worker sub-problem overlap (-1 disables).
	Prefetch *int `json:"prefetch,omitempty"`
	// Threshold is the spectral-angle screening threshold in radians,
	// in (0, π].
	Threshold *float64 `json:"threshold,omitempty"`
	// Components retained by the PCT (min 3).
	Components *int `json:"components,omitempty"`
	// Parallelism is the per-worker kernel parallelism (result-invariant).
	Parallelism *int `json:"parallelism,omitempty"`
	// Algorithm selects the fusion algorithm by registry name ("pct",
	// "pyramid", "dwt"); nil or empty selects "pct".
	Algorithm *string `json:"algorithm,omitempty"`
}

// Int returns a pointer to v, for Options literals.
func Int(v int) *int { return &v }

// Float returns a pointer to v, for Options literals.
func Float(v float64) *float64 { return &v }

// String returns a pointer to v, for Options literals.
func String(v string) *string { return &v }

// JobOptions is the canonical options echo: every knob the job actually
// ran with, defaults filled in, including the pool-fixed worker count.
type JobOptions struct {
	Workers     int     `json:"workers"`
	Granularity int     `json:"granularity"`
	Prefetch    int     `json:"prefetch"`
	Threshold   float64 `json:"threshold"`
	Components  int     `json:"components"`
	Parallelism int     `json:"parallelism"`
	Algorithm   string  `json:"algorithm"`
}

// TileProgress is a scene job's per-tile pipeline position.
type TileProgress struct {
	Total       int `json:"total"`
	Screened    int `json:"screened"`
	Transformed int `json:"transformed"`
}

// PhaseTimes records when each algorithm phase completed, in runtime
// seconds. The fields are untagged, so their Go names are the JSON keys;
// they match core.PhaseTimes field for field, which the service
// converts directly.
type PhaseTimes struct {
	Screen     float64
	Statistics float64
	Eigen      float64
	Transform  float64
	Total      float64
}

// ResultSummary is a finished job's scalar result (the composite image
// travels separately via ResultPNG).
type ResultSummary struct {
	UniqueSetSize int        `json:"unique_set_size"`
	SubCubes      int        `json:"sub_cubes"`
	Reissues      int        `json:"reissues"`
	CacheMisses   int        `json:"cache_misses"`
	Eigenvalues   []float64  `json:"eigenvalues"`
	PhaseTimes    PhaseTimes `json:"phase_times"`
}

// StageSummary aggregates a job's recorded spans for one stage name:
// how many spans ran and their total duration in seconds.
type StageSummary struct {
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Span is one recorded stage interval in a job's trace timeline. Start
// and End are elapsed seconds since the job's recorder was created.
type Span struct {
	Name  string  `json:"name"`
	Index int     `json:"index"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Epoch is the group incarnation for regeneration events (0 otherwise).
	Epoch int `json:"epoch,omitempty"`
	// Note carries free-form detail (e.g. "worker 1 on node 2").
	Note string `json:"note,omitempty"`
}

// JobTrace is a job's full recorded span timeline, the resource behind
// GET /v2/jobs/{id}/trace.
type JobTrace struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	// Spans is the timeline, oldest first; ring overwrites drop the
	// oldest spans and count into Dropped.
	Spans   []Span `json:"spans"`
	Dropped int64  `json:"dropped,omitempty"`
}

// Job is the unified v2 job resource, covering cube and scene fusions.
type Job struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	SceneID  string   `json:"scene_id,omitempty"`
	CacheHit bool     `json:"cache_hit"`
	// Error is the failure message for StateFailed jobs.
	Error string `json:"error,omitempty"`
	// Options echoes the canonical options the job ran with.
	Options *JobOptions `json:"options,omitempty"`
	// Progress is set for scene jobs.
	Progress *TileProgress `json:"progress,omitempty"`
	// Trace summarizes the job's recorded stage spans by stage name
	// (full timeline via Client.Trace).
	Trace     map[string]StageSummary `json:"trace,omitempty"`
	Submitted time.Time               `json:"submitted"`
	Started   *time.Time              `json:"started,omitempty"`
	Finished  *time.Time              `json:"finished,omitempty"`
	Result    *ResultSummary          `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool { return j.State.Terminal() }

// SceneInfo is a registered scene's snapshot.
type SceneInfo struct {
	ID         string    `json:"id"`
	Width      int       `json:"width"`
	Height     int       `json:"height"`
	Bands      int       `json:"bands"`
	Interleave string    `json:"interleave"`
	DataType   int       `json:"data_type"`
	Bytes      int64     `json:"bytes"`
	Digest     string    `json:"digest,omitempty"`
	Registered time.Time `json:"registered"`
	// LastDoneJob is the scene's most recent successful fuse (empty
	// until one completes); GET /v2/jobs/{id}/result serves its
	// composite.
	LastDoneJob string `json:"last_done_job,omitempty"`
}

// Stats is the pool's counter snapshot.
type Stats struct {
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	Running       int     `json:"running"`
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Rejected      int64   `json:"rejected"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheSize     int     `json:"cache_size"`
	Throughput    float64 `json:"throughput_jobs_per_s"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Cluster is set when the service runs in cluster mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Store is set when the service runs with a durable control plane
	// (fusiond -journal).
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the durable-control-plane section of Stats: write-ahead
// journal activity, boot recovery, and the result cache's disk-spill
// tier.
type StoreStats struct {
	JournalRecords int64 `json:"journal_records"`
	RecoveredJobs  int64 `json:"recovered_jobs"`
	SpillHits      int64 `json:"spill_hits"`
	SpillMisses    int64 `json:"spill_misses"`
	SpilledEntries int   `json:"spilled_entries"`
	SpilledBytes   int64 `json:"spilled_bytes"`
}

// ClusterStats is the cluster-mode section of Stats: fleet size,
// degradations, and the resilient runtime's aggregated failure-detection
// and regeneration counters.
type ClusterStats struct {
	Addr          string `json:"addr"`
	Workers       int    `json:"workers"`
	LiveWorkers   int    `json:"live_workers"`
	Replication   int    `json:"replication"`
	Jobs          int64  `json:"jobs"`
	Fallbacks     int64  `json:"fallbacks"`
	Detections    int64  `json:"detections"`
	Regenerations int64  `json:"regenerations"`
	ViewChanges   int64  `json:"view_changes"`
}

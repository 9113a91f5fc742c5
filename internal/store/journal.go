package store

import (
	"encoding/json"
	"sort"
	"sync"
)

// Job journal record ops: the submit/start/finish/fail/cancel lifecycle
// transitions the service writes ahead of acting on them.
const (
	JobSubmit = "submit"
	JobStart  = "start"
	JobFinish = "finish"
	JobFail   = "fail"
	JobCancel = "cancel"
)

// Job kinds (submit records only).
const (
	JobKindCube  = "cube"
	JobKindScene = "scene"
)

// JobRecord is one job lifecycle transition as it travels in the log.
// Submit records carry everything needed to re-run the job after a
// restart; the other ops carry just the identity (and, for failures, the
// error text).
type JobRecord struct {
	Op  string `json:"op"`
	Num uint64 `json:"num"`
	ID  string `json:"id,omitempty"`
	// Submit-only fields.
	Kind    string `json:"kind,omitempty"`
	SceneID string `json:"scene_id,omitempty"`
	Digest  string `json:"digest,omitempty"`
	// CubeFile names the spooled HSIC input (a bare name resolved
	// against the journal's cubes directory) for cube jobs.
	CubeFile string `json:"cube_file,omitempty"`
	// Options is the canonical options document the job was admitted
	// with (the fusionclient.JobOptions wire form). Replaying with the
	// recorded canonical options keeps result keys — and therefore
	// mosaics — bit-identical across the restart.
	Options json.RawMessage `json:"options,omitempty"`
	// Error is the failure text (fail records).
	Error string `json:"error,omitempty"`
}

// JournalReport summarizes a journal replay.
type JournalReport struct {
	ReplayReport
	// Pending is how many jobs had a submit record but no terminal
	// record — the jobs recovery re-enqueues.
	Pending int
	// Started is how many of those had additionally reached start (they
	// were running when the process died).
	Started int
	// BadRecords counts undecodable or unknown-op records (skipped).
	BadRecords int
}

// Journal is the write-ahead job journal: an append-only log of
// lifecycle records, replayed on open into the set of jobs that still
// owe a run. Replay is idempotent and order-tolerant: duplicate records
// collapse, and a terminal record whose submit never made it to disk
// (or arrives later in a log assembled from retries) leaves no pending
// job behind.
type Journal struct {
	mu      sync.Mutex
	log     *Log
	pending map[uint64]*pendingJob
	// terminal remembers nums that saw finish/fail/cancel, so a
	// duplicate or late submit record cannot resurrect a finished job.
	terminal map[uint64]bool
	maxNum   uint64
}

type pendingJob struct {
	rec     JobRecord
	started bool
}

// PendingJob is one job recovery must re-enqueue: the submit record,
// plus whether the job had already started when the journal ended.
type PendingJob struct {
	Rec     JobRecord
	Started bool
}

// OpenJournal opens (creating if needed) the journal log at path and
// replays it.
func OpenJournal(path string) (*Journal, JournalReport, error) {
	j := &Journal{
		pending:  make(map[uint64]*pendingJob),
		terminal: make(map[uint64]bool),
	}
	var rep JournalReport
	log, lrep, err := OpenLog(path, func(payload []byte) error {
		var rec JobRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			rep.BadRecords++
			return nil
		}
		j.apply(rec, &rep)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	rep.ReplayReport = lrep
	for _, p := range j.pending {
		rep.Pending++
		if p.started {
			rep.Started++
		}
	}
	j.log = log
	return j, rep, nil
}

func (j *Journal) apply(rec JobRecord, rep *JournalReport) {
	if rec.Num > j.maxNum {
		j.maxNum = rec.Num
	}
	switch rec.Op {
	case JobSubmit:
		if j.terminal[rec.Num] {
			return // late or duplicate submit for a finished job
		}
		if p, ok := j.pending[rec.Num]; ok {
			p.rec = rec // duplicate submit: last record wins, started sticks
			return
		}
		j.pending[rec.Num] = &pendingJob{rec: rec}
	case JobStart:
		if p, ok := j.pending[rec.Num]; ok {
			p.started = true
		}
	case JobFinish, JobFail, JobCancel:
		delete(j.pending, rec.Num)
		j.terminal[rec.Num] = true
	default:
		if rep != nil {
			rep.BadRecords++
		}
	}
}

// Append writes (and fsyncs) one lifecycle record; it is durable when
// Append returns — the fsync-before-ack the admission path relies on.
// The live pending view tracks the record so a Compact reflects it.
func (j *Journal) Append(rec JobRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := j.log.Append(payload); err != nil {
		return err
	}
	j.mu.Lock()
	j.apply(rec, nil)
	j.mu.Unlock()
	return nil
}

// Pending returns the jobs that owe a run, sorted by Num — submission
// order, which is the order recovery re-enqueues them in.
func (j *Journal) Pending() []PendingJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]PendingJob, len(j.pending))
	i := 0
	for _, p := range j.pending {
		out[i] = PendingJob{Rec: p.rec, Started: p.started}
		i++
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Rec.Num < out[b].Rec.Num })
	return out
}

// MaxNum returns the highest job number the log has seen — terminal
// jobs included — so job IDs stay unique across restarts.
func (j *Journal) MaxNum() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxNum
}

// Compact rewrites the log to just the pending submit (and start)
// records, plus a synthetic canceled marker pinning MaxNum when needed,
// bounding journal growth across restarts.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	nums := make([]uint64, len(j.pending))
	i := 0
	covered := uint64(0)
	for num := range j.pending {
		nums[i] = num
		i++
		if num > covered {
			covered = num
		}
	}
	sort.Slice(nums, func(a, b int) bool { return nums[a] < nums[b] })
	var payloads [][]byte
	for _, num := range nums {
		p := j.pending[num]
		sub, err := json.Marshal(p.rec)
		if err != nil {
			return err
		}
		payloads = append(payloads, sub)
		if p.started {
			st, err := json.Marshal(JobRecord{Op: JobStart, Num: num})
			if err != nil {
				return err
			}
			payloads = append(payloads, st)
		}
	}
	if covered < j.maxNum {
		marker, err := json.Marshal(JobRecord{Op: JobCancel, Num: j.maxNum})
		if err != nil {
			return err
		}
		payloads = append(payloads, marker)
	}
	if err := j.log.Rewrite(payloads); err != nil {
		return err
	}
	// The rewrite dropped historic terminal records; the marker (or the
	// pending set) still pins maxNum, and terminal state for compacted
	// jobs is irrelevant — their nums are never reissued.
	j.terminal = map[uint64]bool{j.maxNum: j.terminal[j.maxNum]}
	return nil
}

// Close releases the underlying log.
func (j *Journal) Close() error { return j.log.Close() }

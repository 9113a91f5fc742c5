package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/store"
	"resilientfusion/internal/telemetry"
)

// This file wires the internal/store durable control plane into the
// pool: a persistent scene catalog next to the spool, a write-ahead job
// journal (with spooled cube inputs) under Config.JournalDir, and the
// disk-spill tier of the result cache. Every client-visible transition
// is journaled with fsync before the acknowledging return, so a process
// that dies at any instant restarts into a state it already promised:
// registered scenes are still registered, queued jobs re-enter the
// queue, running jobs re-run (or resolve straight from the result cache
// when a twin completed first), and job/scene IDs continue from where
// they left off.

// RecoveryReport summarizes what boot recovery rebuilt; fusiond logs it
// once at startup.
type RecoveryReport struct {
	// Scenes survived catalog replay and payload validation; dropped
	// scenes had missing or corrupt spool files.
	Scenes        int
	ScenesDropped int
	// OrphansSwept counts spool files not covered by any catalog record
	// (a crash between spooling and the catalog append, or between a
	// removal record and the unlink).
	OrphansSwept int
	// JobsRequeued re-entered the admission queue; JobsResolved finished
	// immediately from the result cache; JobsFailed could not be rebuilt
	// (missing scene or cube input) and were journaled as failed.
	JobsRequeued int
	JobsResolved int
	JobsFailed   int
	// Torn bytes truncated from the logs' tails (a crash mid-append).
	CatalogTruncatedBytes int64
	JournalTruncatedBytes int64
	// Spill-tier state revalidated at boot.
	SpillEntries int
	SpillBytes   int64
	SpillCorrupt int
}

// String renders the one-line boot log fusiond emits.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("scenes=%d (dropped %d, orphans swept %d) jobs requeued=%d resolved=%d failed=%d torn bytes catalog=%d journal=%d spill entries=%d bytes=%d (corrupt %d)",
		r.Scenes, r.ScenesDropped, r.OrphansSwept,
		r.JobsRequeued, r.JobsResolved, r.JobsFailed,
		r.CatalogTruncatedBytes, r.JournalTruncatedBytes,
		r.SpillEntries, r.SpillBytes, r.SpillCorrupt)
}

// Recovery returns the boot recovery report, or nil for pools without a
// durable control plane (Config.JournalDir empty).
func (p *Pool) Recovery() *RecoveryReport { return p.recovery }

// openDurable opens the catalog, journal, and spill tier and replays
// the first two into the registry and ID allocators. Called from
// NewPool after the spool directory is resolved and before workers or
// dispatchers exist, so it runs single-threaded; the queue is not live
// yet (recoverJobs re-enqueues later, once dispatchers drain it).
func (p *Pool) openDurable() error {
	if p.cfg.JournalDir == "" && p.cfg.CacheSpillBytes > 0 {
		return errors.New("service: CacheSpillBytes requires JournalDir (the spill lives under it)")
	}
	if p.cfg.JournalDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.cfg.JournalDir, 0o755); err != nil {
		return err
	}
	rep := &RecoveryReport{}

	cat, catRep, err := store.OpenCatalog(filepath.Join(p.spoolDir, "catalog.log"))
	if err != nil {
		return err
	}
	p.catalog = cat
	rep.CatalogTruncatedBytes = catRep.TruncatedBytes
	p.recoverScenes(rep)
	p.sweepSpool(rep)
	// Compaction bounds log growth across restarts and drops records the
	// recovery invalidated. Failure is not fatal: the uncompacted log
	// replays to the same state.
	if err := cat.Compact(); err != nil {
		p.logf("store: catalog compaction: %v", err)
	}

	p.cubesDir = filepath.Join(p.cfg.JournalDir, "cubes")
	if err := os.MkdirAll(p.cubesDir, 0o755); err != nil {
		cat.Close()
		return err
	}
	j, jRep, err := store.OpenJournal(filepath.Join(p.cfg.JournalDir, "journal.log"))
	if err != nil {
		cat.Close()
		return err
	}
	p.journal = j
	rep.JournalTruncatedBytes = jRep.TruncatedBytes
	if err := j.Compact(); err != nil {
		p.logf("store: journal compaction: %v", err)
	}
	// Cube inputs of jobs that reached a terminal record (or whose
	// submit never landed) are dead weight; sweep before requeue so the
	// reference set is exactly the pending submits.
	p.sweepCubes()
	p.mu.Lock()
	if j.MaxNum() > p.nextJob {
		p.nextJob = j.MaxNum()
	}
	p.mu.Unlock()

	if p.cfg.CacheSpillBytes > 0 {
		spill, sRep, err := store.OpenSpill(filepath.Join(p.cfg.JournalDir, "spill"), p.cfg.CacheSpillBytes)
		if err != nil {
			j.Close()
			cat.Close()
			return err
		}
		rep.SpillEntries, rep.SpillBytes, rep.SpillCorrupt = sRep.Entries, sRep.Bytes, sRep.Corrupt
		p.spill = spill
	}
	p.recovery = rep
	return nil
}

// closeStore releases the journal and catalog (nil-safe; spill holds no
// descriptors between operations).
func (p *Pool) closeStore() {
	if p.journal != nil {
		p.journal.Close()
	}
	if p.catalog != nil {
		p.catalog.Close()
	}
}

// recoverScenes replays the catalog's live records into the scene
// registry, re-validating each spooled payload; scenes whose files are
// missing or the wrong size are dropped (and their remnants removed)
// rather than resurrected broken.
func (p *Pool) recoverScenes(rep *RecoveryReport) {
	for _, rec := range p.catalog.Scenes() {
		ent, err := p.rebuildScene(rec)
		if err != nil {
			p.logf("store: dropping scene %s from catalog: %v", rec.ID, err)
			p.catalog.Drop(rec.ID)
			if !rec.External && rec.File != "" {
				path := filepath.Join(p.spoolDir, rec.File)
				os.Remove(path)
				os.Remove(scene.HeaderPath(path))
			}
			rep.ScenesDropped++
			continue
		}
		// Under the pool lock: a caller-supplied metrics registry can be
		// scraped (fusion_scenes_registered) while NewPool still boots.
		p.mu.Lock()
		p.scenes[ent.id] = ent
		p.mu.Unlock()
		rep.Scenes++
	}
	p.mu.Lock()
	if seq := p.catalog.MaxSeq(); seq > p.nextScene {
		p.nextScene = seq
	}
	p.mu.Unlock()
}

// rebuildScene turns one catalog record back into a registry entry,
// re-running the same payload validation registration performs.
func (p *Pool) rebuildScene(rec store.SceneRecord) (*sceneEntry, error) {
	h, err := scene.ParseHeader(rec.Header)
	if err != nil {
		return nil, err
	}
	path := rec.File
	if !rec.External {
		path = filepath.Join(p.spoolDir, rec.File)
	}
	r, err := scene.NewReader(*h, path)
	if err != nil {
		return nil, err
	}
	digest := rec.Digest
	if p.cfg.CacheEntries > 0 && digest == "" {
		// Registered while caching was off: compute now so this scene's
		// fusions share cache entries like a fresh registration would.
		if digest, err = r.Digest(); err != nil {
			r.Close()
			return nil, err
		}
	}
	r.Close()
	return &sceneEntry{
		id:         rec.ID,
		seq:        rec.Seq,
		h:          *h,
		dataPath:   path,
		owned:      !rec.External,
		digest:     digest,
		registered: time.Unix(0, rec.RegisteredUnixNano),
	}, nil
}

// sweepSpool removes pool-spooled scene files the catalog does not
// cover: a crash between spooling and the catalog append, or between a
// removal record and the unlink, leaves exactly these orphans behind.
// Only names the pool itself spools (scene-N.raw and companions) are
// candidates — the catalog log, spill, and cube directories live under
// other names or directories.
func (p *Pool) sweepSpool(rep *RecoveryReport) {
	des, err := os.ReadDir(p.spoolDir)
	if err != nil {
		p.logf("store: spool sweep: %v", err)
		return
	}
	live := make(map[string]bool, 2*len(p.scenes))
	for _, ent := range p.scenes {
		if !ent.owned {
			continue
		}
		live[filepath.Base(ent.dataPath)] = true
		live[filepath.Base(scene.HeaderPath(ent.dataPath))] = true
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "scene-") || live[name] {
			continue
		}
		if err := os.Remove(filepath.Join(p.spoolDir, name)); err == nil {
			rep.OrphansSwept++
		}
	}
}

// sweepCubes removes spooled cube inputs not referenced by any pending
// submit record (their jobs reached a terminal state, or the submit
// append never completed).
func (p *Pool) sweepCubes() {
	refs := make(map[string]bool)
	for _, pj := range p.journal.Pending() {
		if pj.Rec.CubeFile != "" {
			refs[pj.Rec.CubeFile] = true
		}
	}
	des, err := os.ReadDir(p.cubesDir)
	if err != nil {
		p.logf("store: cube sweep: %v", err)
		return
	}
	for _, de := range des {
		if de.IsDir() || refs[de.Name()] {
			continue
		}
		os.Remove(filepath.Join(p.cubesDir, de.Name()))
	}
}

// recoverJobs re-admits every journaled job that owes a run. Called at
// the end of NewPool with dispatchers live: re-enqueues use blocking
// sends (recovery must not re-reject jobs the previous process already
// admitted), and the dispatchers drain as we fill. Jobs whose inputs
// are gone are recreated in the failed state — still queryable by their
// original ID — and journaled as failed so the next restart skips them.
func (p *Pool) recoverJobs() {
	if p.journal == nil {
		return
	}
	for _, pj := range p.journal.Pending() {
		job, err := p.rebuildJob(pj.Rec)
		if err != nil {
			p.logf("store: recovered job %s failed: %v", pj.Rec.ID, err)
			p.failRecovered(pj.Rec, err)
			p.recovery.JobsFailed++
			continue
		}
		p.metrics.recoveredJobs.Inc()
		if p.requeue(job) {
			p.recovery.JobsResolved++
		} else {
			p.recovery.JobsRequeued++
		}
	}
}

// rebuildJob reconstructs a submittable job from its journal record.
// Options go back through canonicalOptions, which is idempotent on the
// recorded canonical form (Workers is pool policy either way), so the
// rebuilt job's result key — and therefore its mosaic — is bit-identical
// to the pre-crash submission.
func (p *Pool) rebuildJob(rec store.JobRecord) (*Job, error) {
	var jo fusionclient.JobOptions
	if len(rec.Options) > 0 {
		if err := json.Unmarshal(rec.Options, &jo); err != nil {
			return nil, fmt.Errorf("journaled options: %w", err)
		}
	}
	opts, err := p.canonicalOptions(lowerJobOptions(jo))
	if err != nil {
		return nil, err
	}
	job := &Job{id: rec.ID, num: rec.Num, opts: opts, digest: rec.Digest}
	switch rec.Kind {
	case store.JobKindScene:
		p.mu.Lock()
		ent := p.scenes[rec.SceneID]
		p.mu.Unlock()
		if ent == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownScene, rec.SceneID)
		}
		f, err := os.Open(ent.dataPath)
		if err != nil {
			return nil, err
		}
		job.sceneID, job.sceneHdr, job.sceneFile = ent.id, ent.h, f
		job.tilesTotal = opts.SubCubes(ent.h.Lines)
		if job.digest == "" {
			job.digest = ent.digest
		}
	case store.JobKindCube:
		if rec.CubeFile == "" {
			return nil, errors.New("submit record carries no cube input")
		}
		cube, err := hsi.LoadFile(filepath.Join(p.cubesDir, rec.CubeFile))
		if err != nil {
			return nil, err
		}
		job.cube, job.cubeFile = cube, rec.CubeFile
		if p.cfg.CacheEntries > 0 && job.digest == "" {
			if job.digest, err = cube.Digest(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q", rec.Kind)
	}
	return job, nil
}

// requeue re-admits a rebuilt job under its original ID and number,
// reporting whether it resolved immediately from the result cache. It
// mirrors enqueue minus the submit journaling (the submit record is the
// reason the job is here) and minus admission control (already granted,
// pre-crash).
func (p *Pool) requeue(job *Job) (resolved bool) {
	p.mu.Lock()
	job.done = make(chan struct{})
	job.state = StateQueued
	job.submitted = time.Now()
	job.trace = telemetry.NewTraceRecorder(0)
	if job.digest != "" {
		job.key = job.digest + "|" + job.opts.ResultKey()
	}
	p.jobs[job.id] = job
	p.mu.Unlock()
	p.metrics.jobsSubmitted.Inc()
	p.metrics.jobsByAlgorithm.With(job.opts.Algorithm).Inc()
	if job.key != "" {
		if res, ok := p.cache.get(job.key); ok {
			if job.sceneID != "" {
				job.markTilesComplete()
			}
			p.finish(job, res, nil, true)
			return true
		}
	}
	p.queue <- job
	return false
}

// failRecovered registers an unrebuildable journaled job directly in
// the failed state, keeping its ID queryable, and journals the failure
// so the next restart does not retry it.
func (p *Pool) failRecovered(rec store.JobRecord, cause error) {
	job := &Job{
		id:       rec.ID,
		num:      rec.Num,
		cubeFile: rec.CubeFile,
	}
	job.done = make(chan struct{})
	job.state = StateQueued
	job.submitted = time.Now()
	job.trace = telemetry.NewTraceRecorder(0)
	p.mu.Lock()
	p.jobs[job.id] = job
	p.mu.Unlock()
	p.metrics.jobsSubmitted.Inc()
	p.finish(job, nil, fmt.Errorf("service: recovery: %w", cause), false)
}

// journalSubmit persists a job's admission — cube input first, then the
// fsync'd submit record — before any acknowledging return to the
// client. A nil error means the job will survive a crash.
func (p *Pool) journalSubmit(job *Job) error {
	if p.journal == nil {
		return nil
	}
	rec := store.JobRecord{Op: store.JobSubmit, Num: job.num, ID: job.id, Digest: job.digest}
	if job.sceneID != "" {
		rec.Kind, rec.SceneID = store.JobKindScene, job.sceneID
	} else {
		rec.Kind = store.JobKindCube
		name := fmt.Sprintf("job-%d.hsic", job.num)
		if err := p.saveCube(name, job.cube); err != nil {
			return err
		}
		job.cubeFile, rec.CubeFile = name, name
	}
	opts, err := json.Marshal(jobOptions(job.opts))
	if err == nil {
		rec.Options = opts
		err = p.journal.Append(rec)
	}
	if err != nil {
		if job.cubeFile != "" {
			os.Remove(filepath.Join(p.cubesDir, job.cubeFile))
			job.cubeFile = ""
		}
		return err
	}
	p.metrics.journalRecords.Inc()
	return nil
}

// journalStart records that a dispatcher picked the job up, so a crash
// mid-run is distinguishable from one mid-queue (both re-run; the
// report tells operators which was which).
func (p *Pool) journalStart(job *Job) {
	if p.journal == nil {
		return
	}
	if err := p.journal.Append(store.JobRecord{Op: store.JobStart, Num: job.num}); err != nil {
		p.logf("store: journaling start of %s: %v", job.id, err)
		return
	}
	p.metrics.journalRecords.Inc()
}

// journalTerminal records a job's terminal transition and releases its
// spooled cube input. Append failures are logged, not propagated: the
// job's in-memory terminal state stands either way, and the worst case
// is one redundant (idempotent) re-run after the next restart.
func (p *Pool) journalTerminal(job *Job, op, errText string) {
	if p.journal != nil {
		if err := p.journal.Append(store.JobRecord{Op: op, Num: job.num, ID: job.id, Error: errText}); err != nil {
			p.logf("store: journaling %s of %s: %v", op, job.id, err)
		} else {
			p.metrics.journalRecords.Inc()
		}
	}
	if job.cubeFile != "" && p.cubesDir != "" {
		os.Remove(filepath.Join(p.cubesDir, job.cubeFile))
	}
}

// saveCube spools a cube job's input under the journal (tmp, fsync,
// rename — the submit record must never reference a torn file).
func (p *Pool) saveCube(name string, cube *hsi.Cube) error {
	path := filepath.Join(p.cubesDir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := cube.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// catalogAdd persists a scene registration; the caller acks only after
// it returns nil.
func (p *Pool) catalogAdd(ent *sceneEntry) error {
	if p.catalog == nil {
		return nil
	}
	file := ent.dataPath
	if ent.owned {
		file = filepath.Base(ent.dataPath)
	}
	return p.catalog.Add(store.SceneRecord{
		ID:                 ent.id,
		Seq:                ent.seq,
		Header:             ent.h.Marshal(),
		File:               file,
		External:           !ent.owned,
		Digest:             ent.digest,
		RegisteredUnixNano: ent.registered.UnixNano(),
	})
}

// lowerJobOptions lowers the journaled canonical form back onto
// core.Options for re-canonicalization. Workers is deliberately absent:
// the pool's width is policy, not job state.
func lowerJobOptions(jo fusionclient.JobOptions) core.Options {
	return core.Options{
		Granularity: jo.Granularity,
		Prefetch:    jo.Prefetch,
		Threshold:   jo.Threshold,
		Components:  jo.Components,
		Parallelism: jo.Parallelism,
		Algorithm:   jo.Algorithm,
	}
}

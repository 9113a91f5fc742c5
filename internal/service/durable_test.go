package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/store"
)

// durableConfig is the base configuration the durability tests share:
// persistent spool + journal under dir, small but real pool.
func durableConfig(dir string) Config {
	return Config{
		Workers:       2,
		MaxConcurrent: 2,
		SpoolDir:      filepath.Join(dir, "spool"),
		JournalDir:    filepath.Join(dir, "journal"),
		CacheEntries:  4,
	}
}

// TestPoolDurableRestart is the unit-level restart story: scenes
// registered before a shutdown are listable after, journaled pending
// jobs re-run to bit-identical results under their original IDs, and
// ID allocation continues past the pre-restart high-water mark.
func TestPoolDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	opts := core.Options{Threshold: 0.05}

	pool1, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sceneCube := testCube(t, 41)
	hdr, data := enviPayload(t, sceneCube, scene.BSQ)
	info, err := pool1.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sceneRef, err := pool1.FuseScene(info.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	sceneRef, err = pool1.Wait(sceneRef.ID)
	if err != nil || sceneRef.State != StateDone {
		t.Fatalf("scene reference run: %+v err=%v", sceneRef.State, err)
	}
	cube := testCube(t, 42)
	cubeRef, err := pool1.Submit(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	cubeRef, err = pool1.Wait(cubeRef.ID)
	if err != nil || cubeRef.State != StateDone {
		t.Fatalf("cube reference run: %+v err=%v", cubeRef.State, err)
	}
	if err := pool1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash that left two admitted jobs behind: append their
	// submit records (and spool the cube input) exactly as the admission
	// path would have, with no terminal records.
	cubesDir := filepath.Join(cfg.JournalDir, "cubes")
	if err := cube.SaveFile(filepath.Join(cubesDir, "job-3.hsic")); err != nil {
		t.Fatal(err)
	}
	optJSON, err := json.Marshal(fusionclient.JobOptions{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := store.OpenJournal(filepath.Join(cfg.JournalDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.JobRecord{
		{Op: store.JobSubmit, Num: 3, ID: "job-3", Kind: store.JobKindCube, CubeFile: "job-3.hsic", Options: optJSON},
		{Op: store.JobSubmit, Num: 4, ID: "job-4", Kind: store.JobKindScene, SceneID: info.ID, Options: optJSON},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	pool2, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	scenes := pool2.Scenes()
	if len(scenes) != 1 || scenes[0].ID != info.ID {
		t.Fatalf("scenes after restart: %+v", scenes)
	}
	if scenes[0].Digest != info.Digest {
		t.Fatalf("scene digest changed across restart: %q -> %q", info.Digest, scenes[0].Digest)
	}
	rep := pool2.Recovery()
	if rep == nil || rep.Scenes != 1 || rep.JobsRequeued != 2 || rep.JobsFailed != 0 {
		t.Fatalf("recovery report %+v", rep)
	}

	st3, err := pool2.Wait("job-3")
	if err != nil || st3.State != StateDone {
		t.Fatalf("recovered cube job: state=%v err=%v (jobErr=%v)", st3.State, err, st3.Err)
	}
	sameResult(t, st3.Result, cubeRef.Result, "recovered cube job")
	st4, err := pool2.Wait("job-4")
	if err != nil || st4.State != StateDone {
		t.Fatalf("recovered scene job: state=%v err=%v (jobErr=%v)", st4.State, err, st4.Err)
	}
	sameResult(t, st4.Result, sceneRef.Result, "recovered scene job")
	if st3.Options.Workers != cfg.Workers {
		t.Fatalf("recovered job ran with %d workers, want pool width %d", st3.Options.Workers, cfg.Workers)
	}

	// IDs continue past the journal's high-water mark.
	st5, err := pool2.Submit(testCube(t, 43), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st5.ID != "job-5" {
		t.Fatalf("post-restart job ID = %s, want job-5 (no reuse of 1..4)", st5.ID)
	}
	if _, err := pool2.Wait(st5.ID); err != nil {
		t.Fatal(err)
	}
	if s := pool2.Stats(); s.Store == nil || s.Store.RecoveredJobs != 2 || s.Store.JournalRecords == 0 {
		t.Fatalf("store stats after recovery: %+v", s.Store)
	}
}

// TestPoolDurableRemovedSceneStaysRemoved: a removal recorded before
// shutdown must not resurrect, and a journaled job referencing the
// removed scene recovers as failed (queryable, journaled terminal).
func TestPoolDurableRemovedSceneStaysRemoved(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	pool1, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdr, data := enviPayload(t, testCube(t, 51), scene.BIL)
	info, err := pool1.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool1.RemoveScene(info.ID); err != nil {
		t.Fatal(err)
	}
	if err := pool1.Close(); err != nil {
		t.Fatal(err)
	}

	optJSON, _ := json.Marshal(fusionclient.JobOptions{Threshold: 0.05})
	j, _, err := store.OpenJournal(filepath.Join(cfg.JournalDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(store.JobRecord{Op: store.JobSubmit, Num: 7, ID: "job-7", Kind: store.JobKindScene, SceneID: info.ID, Options: optJSON}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	pool2, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if scenes := pool2.Scenes(); len(scenes) != 0 {
		t.Fatalf("removed scene resurrected: %+v", scenes)
	}
	st, err := pool2.Wait("job-7")
	if err != nil || st.State != StateFailed {
		t.Fatalf("job against removed scene: state=%v err=%v", st.State, err)
	}
	if !errors.Is(st.Err, ErrUnknownScene) {
		t.Fatalf("failure cause = %v, want ErrUnknownScene", st.Err)
	}
	if rep := pool2.Recovery(); rep.JobsFailed != 1 {
		t.Fatalf("recovery report %+v", rep)
	}

	// The failure was journaled: a third boot does not retry it.
	pool2.Close()
	pool3, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool3.Close()
	if rep := pool3.Recovery(); rep.JobsFailed != 0 || rep.JobsRequeued != 0 {
		t.Fatalf("third boot retried the dead job: %+v", rep)
	}
}

// TestRemoveSceneRecordsBeforeUnlink pins the record-then-unlink order:
// when the removal record cannot be persisted, RemoveScene must fail
// WITHOUT touching the spool files or the registry. (The reverse order
// would pass this test only by having already deleted the payload —
// the restart hazard this ordering exists to prevent.)
func TestRemoveSceneRecordsBeforeUnlink(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewPool(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	hdr, data := enviPayload(t, testCube(t, 61), scene.BIP)
	info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(pool.spoolDir, info.ID+".raw")
	if _, err := os.Stat(dataPath); err != nil {
		t.Fatalf("spooled payload missing before the test even starts: %v", err)
	}

	// Force the append to fail: close the catalog's log out from under
	// the pool. Every subsequent record write errors.
	pool.catalog.Close()
	if err := pool.RemoveScene(info.ID); err == nil {
		t.Fatal("RemoveScene succeeded with an unwritable catalog")
	}
	if _, err := os.Stat(dataPath); err != nil {
		t.Fatal("spool file unlinked although the removal was never recorded")
	}
	if _, err := pool.Scene(info.ID); err != nil {
		t.Fatal("scene deregistered although the removal was never recorded")
	}
}

// TestPoolCacheSpillRestart: entries evicted from the RAM cache spill
// to disk, serve later lookups as cache hits, and survive a restart.
func TestPoolCacheSpillRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CacheEntries = 1 // second result evicts the first → spill
	cfg.CacheSpillBytes = 64 << 20
	opts := core.Options{Threshold: 0.05}

	pool1, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cubeA, cubeB := testCube(t, 71), testCube(t, 72)
	refA, err := pool1.Submit(cubeA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if refA, err = pool1.Wait(refA.ID); err != nil || refA.State != StateDone {
		t.Fatalf("job A: %v %v", refA.State, err)
	}
	stB, err := pool1.Submit(cubeB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool1.Wait(stB.ID); err != nil {
		t.Fatal(err)
	}
	// A was evicted to disk; resubmitting it is a cache hit served from
	// the spill tier.
	hitA, err := pool1.Submit(cubeA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hitA, err = pool1.Wait(hitA.ID); err != nil || !hitA.CacheHit {
		t.Fatalf("spilled entry not served: cacheHit=%v err=%v", hitA.CacheHit, err)
	}
	sameResult(t, hitA.Result, refA.Result, "spill hit")
	if s := pool1.Stats(); s.Store == nil || s.Store.SpillHits < 1 || s.Store.SpilledBytes <= 0 {
		t.Fatalf("spill stats: %+v", s.Store)
	}
	pool1.Close()

	// The spill outlives the process: a fresh pool with a cold RAM cache
	// still serves the entry from disk.
	pool2, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if rep := pool2.Recovery(); rep.SpillEntries < 1 {
		t.Fatalf("boot spill scan: %+v", rep)
	}
	again, err := pool2.Submit(cubeA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, err = pool2.Wait(again.ID); err != nil || !again.CacheHit {
		t.Fatalf("post-restart spill hit: cacheHit=%v err=%v", again.CacheHit, err)
	}
	sameResult(t, again.Result, refA.Result, "post-restart spill hit")
}

// TestPoolDurableOrphanSweep: spool files with no catalog record — the
// residue of a crash between spooling and the catalog append — are
// collected at boot.
func TestPoolDurableOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	pool1, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool1.Close()
	orphan := filepath.Join(cfg.SpoolDir, "scene-9.raw")
	if err := os.WriteFile(orphan, []byte("torn upload"), 0o644); err != nil {
		t.Fatal(err)
	}
	pool2, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned spool file survived the boot sweep")
	}
	if rep := pool2.Recovery(); rep.OrphansSwept != 1 {
		t.Fatalf("recovery report %+v", rep)
	}
}

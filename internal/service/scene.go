package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// Scene registry errors.
var (
	// ErrUnknownScene reports an operation on an unregistered (or
	// removed) scene ID.
	ErrUnknownScene = errors.New("service: unknown scene")
	// ErrSceneLimit reports registration past Config.MaxScenes.
	ErrSceneLimit = errors.New("service: scene registry full")
	// ErrSceneTooLarge reports a scene whose header claims more than
	// Config.MaxSceneBytes.
	ErrSceneTooLarge = errors.New("service: scene exceeds size limit")
	// ErrScenePayload reports an upload whose payload does not match the
	// header's claimed size (truncated or oversized).
	ErrScenePayload = errors.New("service: scene payload size mismatch")
)

// sceneEntry is one registered scene. Immutable after registration
// except lastDone (guarded by the pool mutex).
type sceneEntry struct {
	id         string
	seq        uint64 // numeric suffix of id; persisted so allocation stays monotonic
	h          scene.Header
	dataPath   string
	owned      bool // spooled by the pool → removed with the entry
	digest     string
	registered time.Time
	lastDone   string // job ID of the most recent successful fuse
}

func (e *sceneEntry) removeFiles() {
	if !e.owned {
		return
	}
	os.Remove(e.dataPath)
	os.Remove(scene.HeaderPath(e.dataPath))
}

// sceneInfoLocked is the client-facing snapshot of a registry entry.
func (p *Pool) sceneInfoLocked(e *sceneEntry) fusionclient.SceneInfo {
	return fusionclient.SceneInfo{
		ID:          e.id,
		Width:       e.h.Samples,
		Height:      e.h.Lines,
		Bands:       e.h.Bands,
		Interleave:  string(e.h.Interleave),
		DataType:    int(e.h.DataType),
		Bytes:       e.h.DataBytes(),
		Digest:      e.digest,
		Registered:  e.registered,
		LastDoneJob: e.lastDone,
	}
}

// RegisterScene spools an uploaded ENVI scene — header text plus the raw
// payload in the header's declared interleave — and registers it for
// fusion. The payload streams to disk in bounded chunks (an upload never
// materializes in memory) and must match the header's claimed size
// exactly. When the result cache is enabled the scene's content digest
// is computed by streaming row windows; it equals the digest of the
// equivalent in-memory cube, so scene fusions and cube uploads share
// cache entries.
func (p *Pool) RegisterScene(headerText string, data io.Reader) (fusionclient.SceneInfo, error) {
	h, err := scene.ParseHeader(headerText)
	if err != nil {
		return fusionclient.SceneInfo{}, err
	}
	claimed := h.Offset + h.DataBytes()
	if claimed > p.cfg.MaxSceneBytes {
		return fusionclient.SceneInfo{}, fmt.Errorf("%w: header claims %d bytes, limit %d",
			ErrSceneTooLarge, claimed, p.cfg.MaxSceneBytes)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fusionclient.SceneInfo{}, ErrClosed
	}
	if len(p.scenes) >= p.cfg.MaxScenes {
		p.mu.Unlock()
		return fusionclient.SceneInfo{}, fmt.Errorf("%w: %d scenes registered", ErrSceneLimit, p.cfg.MaxScenes)
	}
	p.nextScene++
	seq := p.nextScene
	id := fmt.Sprintf("scene-%d", seq)
	spool := p.spoolDir
	p.mu.Unlock()

	dataPath := filepath.Join(spool, id+".raw")
	if err := spoolExact(dataPath, data, claimed); err != nil {
		return fusionclient.SceneInfo{}, err
	}
	p.metrics.sceneSpoolBytes.Add(claimed)
	// The .hdr companion makes the spool self-describing for operators;
	// the registry itself keeps the parsed header.
	if err := os.WriteFile(scene.HeaderPath(dataPath), []byte(h.Marshal()), 0o644); err != nil {
		os.Remove(dataPath)
		return fusionclient.SceneInfo{}, err
	}
	return p.registerEntry(&sceneEntry{id: id, seq: seq, h: *h, dataPath: dataPath, owned: true})
}

// RegisterSceneFile registers an ENVI scene already on local disk (by
// header or data path) without copying it; the files stay owned by the
// caller. Intended for embedded pools (examples, local tools) — the HTTP
// surface only exposes uploads.
func (p *Pool) RegisterSceneFile(path string) (fusionclient.SceneInfo, error) {
	r, err := scene.OpenLimit(path, p.cfg.MaxSceneBytes)
	if err != nil {
		if errors.Is(err, scene.ErrSceneTooLarge) {
			err = fmt.Errorf("%w: %v", ErrSceneTooLarge, err)
		}
		return fusionclient.SceneInfo{}, err
	}
	h := r.Header()
	dataPath := r.Path()
	r.Close()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fusionclient.SceneInfo{}, ErrClosed
	}
	if len(p.scenes) >= p.cfg.MaxScenes {
		p.mu.Unlock()
		return fusionclient.SceneInfo{}, fmt.Errorf("%w: %d scenes registered", ErrSceneLimit, p.cfg.MaxScenes)
	}
	p.nextScene++
	seq := p.nextScene
	id := fmt.Sprintf("scene-%d", seq)
	p.mu.Unlock()

	return p.registerEntry(&sceneEntry{id: id, seq: seq, h: h, dataPath: dataPath})
}

// registerEntry validates the spooled payload, computes the content
// digest when caching is on, and publishes the entry.
func (p *Pool) registerEntry(ent *sceneEntry) (fusionclient.SceneInfo, error) {
	r, err := scene.NewReader(ent.h, ent.dataPath)
	if err != nil {
		ent.removeFiles()
		if errors.Is(err, scene.ErrPayloadSize) {
			err = fmt.Errorf("%w: %v", ErrScenePayload, err)
		}
		return fusionclient.SceneInfo{}, err
	}
	if p.cfg.CacheEntries > 0 {
		if ent.digest, err = r.Digest(); err != nil {
			r.Close()
			ent.removeFiles()
			return fusionclient.SceneInfo{}, err
		}
	}
	r.Close()
	ent.registered = time.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ent.removeFiles()
		return fusionclient.SceneInfo{}, ErrClosed
	}
	if len(p.scenes) >= p.cfg.MaxScenes {
		p.mu.Unlock()
		ent.removeFiles()
		return fusionclient.SceneInfo{}, fmt.Errorf("%w: %d scenes registered", ErrSceneLimit, p.cfg.MaxScenes)
	}
	p.scenes[ent.id] = ent
	info := p.sceneInfoLocked(ent)
	p.mu.Unlock()

	// Durable pools record the registration (fsync'd) before the client
	// is acked; a failure to persist unwinds the publication entirely. A
	// crash between publish and record loses only an unacked scene — the
	// boot sweep collects its spool files as orphans.
	if err := p.catalogAdd(ent); err != nil {
		p.mu.Lock()
		delete(p.scenes, ent.id)
		p.mu.Unlock()
		ent.removeFiles()
		return fusionclient.SceneInfo{}, err
	}
	return info, nil
}

// spoolExact streams exactly claimed bytes from data into path,
// rejecting short and long payloads without buffering more than the copy
// chunk.
func spoolExact(path string, data io.Reader, claimed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, io.LimitReader(data, claimed))
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if n < claimed {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("%w: payload is %d bytes, header claims %d", ErrScenePayload, n, claimed)
	}
	// One more byte readable means the payload overruns the header. A
	// single Read is not a valid probe: io.Reader lets an implementation
	// return (0, nil) with more data still to come (chunked bodies and
	// pipes do), which would falsely accept an oversized payload.
	// io.ReadFull loops until a byte, io.EOF, or a real error.
	var extra [1]byte
	switch m, err := io.ReadFull(data, extra[:]); {
	case m > 0:
		f.Close()
		os.Remove(path)
		return fmt.Errorf("%w: payload exceeds the %d bytes the header claims", ErrScenePayload, claimed)
	case !errors.Is(err, io.EOF):
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// Scene returns a registered scene's snapshot.
func (p *Pool) Scene(id string) (fusionclient.SceneInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.scenes[id]
	if ent == nil {
		return fusionclient.SceneInfo{}, ErrUnknownScene
	}
	return p.sceneInfoLocked(ent), nil
}

// Scenes lists registered scenes in registration order.
func (p *Pool) Scenes() []fusionclient.SceneInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]fusionclient.SceneInfo, 0, len(p.scenes))
	for _, ent := range p.scenes {
		out = append(out, p.sceneInfoLocked(ent))
	}
	// The map walk is unordered; registration order is ascending numeric
	// ID suffix (shorter IDs sort first within equal lengths).
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// RemoveScene unregisters a scene and deletes its spooled payload.
// Accepted fusions — queued or running — hold their own open handle
// from submit time, so they complete unaffected; new fusions of the ID
// fail with ErrUnknownScene.
// On durable pools the removal record is appended (and fsync'd) BEFORE
// the spool files are unlinked — record-then-unlink. The other order
// has a restart hazard: a crash after the unlink but before the record
// would replay the scene into the registry with its payload gone. With
// this order the worst case is an orphaned spool file the boot sweep
// collects. TestRemoveSceneRecordsBeforeUnlink pins the ordering.
func (p *Pool) RemoveScene(id string) error {
	p.mu.Lock()
	ent := p.scenes[id]
	p.mu.Unlock()
	if ent == nil {
		return ErrUnknownScene
	}
	if p.catalog != nil {
		if err := p.catalog.Remove(id); err != nil {
			// Not recorded → not removed: the scene stays registered and
			// its files stay on disk.
			return fmt.Errorf("service: recording removal of %s: %w", id, err)
		}
	}
	p.mu.Lock()
	ent = p.scenes[id]
	delete(p.scenes, id)
	p.mu.Unlock()
	if ent != nil {
		ent.removeFiles()
	}
	return nil
}

// FuseScene enqueues a whole-scene fusion: the job streams the scene's
// row tiles through its workers, reporting per-tile progress, and
// produces output bit-identical to submitting the fully-loaded cube with
// the same options. Served from the result cache when an identical scene
// or cube already fused.
func (p *Pool) FuseScene(id string, opts core.Options) (JobStatus, error) {
	opts, err := p.canonicalOptions(opts)
	if err != nil {
		return JobStatus{}, err
	}
	p.mu.Lock()
	ent := p.scenes[id]
	p.mu.Unlock()
	if ent == nil {
		return JobStatus{}, ErrUnknownScene
	}
	if err := checkBands(opts, ent.h.Bands); err != nil {
		return JobStatus{}, err
	}
	// Open the job's own handle now: an unlink (RemoveScene, pool close)
	// between acceptance and execution then cannot strand the job — the
	// handle stays readable until finish() releases it.
	f, err := os.Open(ent.dataPath)
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: opening scene %s: %w", id, err)
	}
	// The decomposition the manager will derive from the scene's shape.
	tiles := opts.SubCubes(ent.h.Lines)
	st, err := p.enqueue(func(num uint64) *Job {
		return &Job{
			id:         fmt.Sprintf("job-%d", num),
			num:        num,
			opts:       opts,
			digest:     ent.digest,
			sceneID:    ent.id,
			sceneHdr:   ent.h,
			sceneFile:  f,
			tilesTotal: tiles,
		}
	})
	if err != nil {
		f.Close() // job was never admitted; finish() will not run
	}
	return st, err
}

// sceneSource adapts a scene tiler (plain or prefetching) to the
// manager's CubeSource and publishes per-tile progress onto the job.
// Tile reads happen on the job's manager thread; the counters cross to
// HTTP pollers atomically.
type sceneSource struct {
	tiler core.CubeSource
	job   *Job
}

func (s *sceneSource) Shape() (int, int, int) { return s.tiler.Shape() }

func (s *sceneSource) Tile(rr hsi.RowRange) (*hsi.Cube, error) { return s.tiler.Tile(rr) }

func (s *sceneSource) TileScreened(done, total int) { s.job.tilesScreened.Store(int64(done)) }

func (s *sceneSource) TileTransformed(done, total int) { s.job.tilesTransformed.Store(int64(done)) }

var (
	_ core.CubeSource   = (*sceneSource)(nil)
	_ core.TileObserver = (*sceneSource)(nil)
)

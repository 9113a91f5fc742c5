package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func openCat(t *testing.T, path string) (*Catalog, CatalogReport) {
	t.Helper()
	c, rep, err := OpenCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, rep
}

func TestCatalogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.log")
	c, _ := openCat(t, path)
	for i := uint64(1); i <= 3; i++ {
		if err := c.Add(SceneRecord{
			ID: "scene-" + string(rune('0'+i)), Seq: i,
			Header: "ENVI", File: "scene.raw", Digest: "d",
			RegisteredUnixNano: int64(i) * 1000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove("scene-2"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, rep := openCat(t, path)
	if rep.Scenes != 2 || rep.BadRecords != 0 {
		t.Fatalf("replay report %+v", rep)
	}
	scenes := c2.Scenes()
	if len(scenes) != 2 || scenes[0].ID != "scene-1" || scenes[1].ID != "scene-3" {
		t.Fatalf("scenes after replay: %+v", scenes)
	}
	if scenes[0].RegisteredUnixNano != 1000 {
		t.Fatalf("registration stamp lost: %+v", scenes[0])
	}
	if c2.MaxSeq() != 3 {
		t.Fatalf("MaxSeq = %d, want 3", c2.MaxSeq())
	}
}

// TestCatalogDuplicateReplay doubles every record in the log: replay
// must collapse to the same state (idempotent replay invariant).
func TestCatalogDuplicateReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.log")
	c, _ := openCat(t, path)
	if err := c.Add(SceneRecord{ID: "scene-1", Seq: 1, File: "a.raw"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(SceneRecord{ID: "scene-2", Seq: 2, File: "b.raw"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("scene-1"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte(nil), data...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, rep := openCat(t, path)
	if rep.Scenes != 1 {
		t.Fatalf("duplicated log replay report %+v", rep)
	}
	scenes := c2.Scenes()
	if len(scenes) != 1 || scenes[0].ID != "scene-2" {
		t.Fatalf("scenes after duplicated replay: %+v", scenes)
	}
}

// TestCatalogTornTailAndJunk: a torn final record and an undecodable
// JSON record are both tolerated with a clean report.
func TestCatalogTornTailAndJunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.log")
	add, err := json.Marshal(SceneRecord{Op: SceneAdd, ID: "scene-1", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendRecord(nil, add)
	raw = AppendRecord(raw, []byte("{not json"))     // intact frame, bad payload
	raw = append(raw, AppendRecord(nil, add)[:5]...) // torn tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, rep := openCat(t, path)
	if rep.Scenes != 1 || rep.BadRecords != 1 || rep.TruncatedBytes != 5 {
		t.Fatalf("report %+v", rep)
	}
	if got := c.Scenes(); len(got) != 1 || got[0].ID != "scene-1" {
		t.Fatalf("scenes %+v", got)
	}
}

func TestCatalogCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.log")
	c, _ := openCat(t, path)
	for i := uint64(1); i <= 5; i++ {
		if err := c.Add(SceneRecord{ID: "scene-" + string(rune('0'+i)), Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"scene-2", "scene-4", "scene-5"} {
		if err := c.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	c.Close()
	c2, rep := openCat(t, path)
	if rep.Scenes != 2 {
		t.Fatalf("post-compaction replay %+v", rep)
	}
	// Seq 5 was removed; compaction must still pin MaxSeq so scene IDs
	// are never reused.
	if c2.MaxSeq() != 5 {
		t.Fatalf("MaxSeq after compaction = %d, want 5", c2.MaxSeq())
	}
}

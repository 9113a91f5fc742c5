package store

import (
	"os"
	"path/filepath"
	"testing"
)

func openJournal(t *testing.T, path string) (*Journal, JournalReport) {
	t.Helper()
	j, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rep
}

func TestJournalLifecycleReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	append1 := func(rec JobRecord) {
		t.Helper()
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// 1: finished. 2: queued. 3: running. 4: canceled. 5: failed.
	append1(JobRecord{Op: JobSubmit, Num: 1, ID: "job-1", Kind: JobKindCube, CubeFile: "job-1.hsic"})
	append1(JobRecord{Op: JobStart, Num: 1})
	append1(JobRecord{Op: JobFinish, Num: 1})
	append1(JobRecord{Op: JobSubmit, Num: 2, ID: "job-2", Kind: JobKindScene, SceneID: "scene-1"})
	append1(JobRecord{Op: JobSubmit, Num: 3, ID: "job-3", Kind: JobKindCube, CubeFile: "job-3.hsic"})
	append1(JobRecord{Op: JobStart, Num: 3})
	append1(JobRecord{Op: JobSubmit, Num: 4, ID: "job-4", Kind: JobKindCube})
	append1(JobRecord{Op: JobCancel, Num: 4})
	append1(JobRecord{Op: JobSubmit, Num: 5, ID: "job-5", Kind: JobKindCube})
	append1(JobRecord{Op: JobFail, Num: 5, Error: "boom"})
	j.Close()

	j2, rep := openJournal(t, path)
	if rep.Pending != 2 || rep.Started != 1 {
		t.Fatalf("replay report %+v", rep)
	}
	pend := j2.Pending()
	if len(pend) != 2 || pend[0].Rec.Num != 2 || pend[1].Rec.Num != 3 {
		t.Fatalf("pending %+v", pend)
	}
	if pend[0].Started || !pend[1].Started {
		t.Fatalf("started flags wrong: %+v", pend)
	}
	if pend[0].Rec.SceneID != "scene-1" || pend[1].Rec.CubeFile != "job-3.hsic" {
		t.Fatalf("submit payloads lost: %+v", pend)
	}
	if j2.MaxNum() != 5 {
		t.Fatalf("MaxNum = %d, want 5", j2.MaxNum())
	}
}

// TestJournalDuplicateAndOutOfOrderReplay: doubling the log and a
// terminal record whose submit appears later must both collapse cleanly
// (idempotent, order-tolerant replay).
func TestJournalDuplicateAndOutOfOrderReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	for _, rec := range []JobRecord{
		{Op: JobFinish, Num: 7},              // terminal before its submit
		{Op: JobSubmit, Num: 7, ID: "job-7"}, // late submit: must not resurrect
		{Op: JobSubmit, Num: 8, ID: "job-8"}, //
		{Op: JobSubmit, Num: 8, ID: "job-8"}, // duplicate submit
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte(nil), data...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := openJournal(t, path)
	if rep.Pending != 1 {
		t.Fatalf("replay report %+v", rep)
	}
	pend := j2.Pending()
	if len(pend) != 1 || pend[0].Rec.Num != 8 {
		t.Fatalf("pending %+v", pend)
	}
	if j2.MaxNum() != 8 {
		t.Fatalf("MaxNum = %d", j2.MaxNum())
	}
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	for n := uint64(1); n <= 20; n++ {
		if err := j.Append(JobRecord{Op: JobSubmit, Num: n, ID: "job-x"}); err != nil {
			t.Fatal(err)
		}
		if n != 9 { // leave 9 pending; 20 is the max and terminal
			if err := j.Append(JobRecord{Op: JobFinish, Num: n}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Append(JobRecord{Op: JobStart, Num: 9}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// Appends keep working post-compaction and replay sees both the
	// surviving pending job and the preserved MaxNum.
	if err := j.Append(JobRecord{Op: JobSubmit, Num: 21, ID: "job-21"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, rep := openJournal(t, path)
	if rep.Pending != 2 {
		t.Fatalf("post-compaction replay %+v, pending %+v", rep, j2.Pending())
	}
	pend := j2.Pending()
	if pend[0].Rec.Num != 9 || !pend[0].Started || pend[1].Rec.Num != 21 {
		t.Fatalf("pending after compaction: %+v", pend)
	}
	if j2.MaxNum() != 21 {
		t.Fatalf("MaxNum = %d, want 21", j2.MaxNum())
	}
}

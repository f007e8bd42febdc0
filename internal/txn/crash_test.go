package txn

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// copyDir copies a durability directory byte-for-byte — the moral
// equivalent of what the disk holds after a kill -9: everything fsynced
// is there, file by file.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			sub, err := os.ReadDir(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range sub {
				data, err := os.ReadFile(filepath.Join(sp, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dp, f.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// driveOps applies one step of a deterministic mixed op stream to db and
// the shadow reference, keeping their id spaces identical.
func driveOps(t *testing.T, rng *rand.Rand, db *DB, ref *core.Database, live *[]uint32, dim int) {
	t.Helper()
	switch k := rng.Intn(10); {
	case k < 6 || len(*live) == 0:
		s := randSeq(rng, dim, 8+rng.Intn(16))
		id, err := db.Add(clonePoints(s))
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		rid, err := ref.Add(clonePoints(s))
		if err != nil || rid != id {
			t.Fatalf("ref Add: id %d vs %d, err %v", rid, id, err)
		}
		*live = append(*live, id)
	case k < 8:
		id := (*live)[rng.Intn(len(*live))]
		ext := randSeq(rng, dim, 1+rng.Intn(4)).Points
		if err := db.AppendPoints(id, ext); err != nil {
			t.Fatalf("AppendPoints(%d): %v", id, err)
		}
		if err := ref.AppendPoints(id, ext); err != nil {
			t.Fatalf("ref AppendPoints(%d): %v", id, err)
		}
	default:
		j := rng.Intn(len(*live))
		id := (*live)[j]
		if err := db.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		if err := ref.Remove(id); err != nil {
			t.Fatalf("ref Remove(%d): %v", id, err)
		}
		*live = append((*live)[:j], (*live)[j+1:]...)
	}
}

func TestReopenRestoresAckedCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 12)}
	var live []uint32
	for i := 0; i < 40; i++ {
		driveOps(t, rng, db, ref, &live, 2)
	}
	want := fingerprint(t, ref, queries, 3)
	if got := fingerprint(t, db, queries, 3); got != want {
		t.Fatalf("pre-close divergence\n got %s\nwant %s", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: pure WAL replay (no checkpoint ever ran).
	db2, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s := db2.Stats(); s.RecoveredRecords == 0 {
		t.Fatal("reopen replayed nothing")
	}
	if got := fingerprint(t, db2, queries, 3); got != want {
		t.Fatalf("replayed state diverges\n got %s\nwant %s", got, want)
	}

	// Checkpoint, more commits, reopen: snapshot load + tail replay.
	// Dim is omitted — the store's recorded metadata must supply it.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 20; i++ {
		driveOps(t, rng, db2, ref, &live, 2)
	}
	want2 := fingerprint(t, ref, queries, 3)
	if err := db2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer db3.Close()
	if db3.Dim() != 2 {
		t.Fatalf("Dim not adopted from store: %d", db3.Dim())
	}
	s := db3.Stats()
	if s.RecoveredRecords == 0 || s.RecoveredRecords >= 60 {
		t.Fatalf("RecoveredRecords = %d, want only the post-checkpoint tail", s.RecoveredRecords)
	}
	if got := fingerprint(t, db3, queries, 3); got != want2 {
		t.Fatalf("snapshot+tail state diverges\n got %s\nwant %s", got, want2)
	}
}

// TestCrashAfterAck simulates kill -9 at every commit boundary: after
// each acknowledged commit the durability directory is copied (fsynced
// bytes only — the writing process never closes) and reopened elsewhere.
// Every copy must restore exactly the commits acknowledged so far,
// including a copy taken mid-checkpoint, after the fold but before the
// new snapshot was promoted.
func TestCrashAfterAck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 10)}
	var live []uint32
	for i := 1; i <= 24; i++ {
		driveOps(t, rng, db, ref, &live, 2)
		want := fingerprint(t, ref, queries, 3)
		if i == 12 {
			// Mid-stream checkpoint — the first fold, so a bulk load:
			// later crashes recover from snapshot + tail instead of a
			// full log replay. One crash lands between the fold and
			// the CURRENT promotion and must replay the whole log.
			pre := copyDir(t, dir)
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			crashed, err := Open(Options{Dir: unpromotedImage(t, pre, dir, "snapshot-written"), Dim: 2})
			if err != nil {
				t.Fatalf("commit %d: reopen after crash before promotion: %v", i, err)
			}
			got := fingerprint(t, crashed, queries, 3)
			crashed.Close()
			if got != want {
				t.Fatalf("commit %d: crash before promotion lost or invented state\n got %s\nwant %s", i, got, want)
			}
		}
		crashed, err := Open(Options{Dir: copyDir(t, dir), Dim: 2})
		if err != nil {
			t.Fatalf("commit %d: reopen after simulated crash: %v", i, err)
		}
		got := fingerprint(t, crashed, queries, 3)
		crashed.Close()
		if got != want {
			t.Fatalf("commit %d: crash recovery lost or invented state\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestWALTortureTruncate chops the WAL at arbitrary byte offsets —
// mid-record, mid-header, mid-CRC — and requires every reopen to come up
// clean with exactly the longest intact prefix of commits: no torn
// record is ever half-applied, nothing intact is dropped.
func TestWALTortureTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8), randSeq(rng, 2, 10)}
	var live []uint32
	// prefix[i] = fingerprint after i commits.
	prefix := []string{fingerprint(t, ref, queries, 3)}
	const commits = 20
	for i := 0; i < commits; i++ {
		driveOps(t, rng, db, ref, &live, 2)
		prefix = append(prefix, fingerprint(t, ref, queries, 3))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	walSize := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err == nil {
		walSize = fi.Size()
	} else {
		t.Fatal(err)
	}

	sizes := []int64{0, 1, 8, walSize, walSize - 1, walSize - 4}
	for len(sizes) < 36 {
		sizes = append(sizes, rng.Int63n(walSize+1))
	}
	for _, size := range sizes {
		cp := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(cp, walFile), size); err != nil {
			t.Fatal(err)
		}
		tdb, err := Open(Options{Dir: cp, Dim: 2})
		if err != nil {
			t.Fatalf("truncate to %d/%d: reopen failed: %v", size, walSize, err)
		}
		rec := int(tdb.Stats().RecoveredRecords)
		got := fingerprint(t, tdb, queries, 3)
		tdb.Close()
		if rec < 0 || rec > commits {
			t.Fatalf("truncate to %d: replayed %d records", size, rec)
		}
		if got != prefix[rec] {
			t.Fatalf("truncate to %d: state is not the %d-commit prefix\n got %s\nwant %s",
				size, rec, got, prefix[rec])
		}
		if size == walSize && rec != commits {
			t.Fatalf("untouched WAL replayed %d of %d commits", rec, commits)
		}
	}
}

// TestWALTortureCorrupt flips single bytes at random offsets past the
// header. The CRC must stop replay at the corrupted record: recovery
// still succeeds and lands on an exact commit prefix.
func TestWALTortureCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 9)}
	var live []uint32
	prefix := []string{fingerprint(t, ref, queries, 3)}
	const commits = 16
	for i := 0; i < commits; i++ {
		driveOps(t, rng, db, ref, &live, 2)
		prefix = append(prefix, fingerprint(t, ref, queries, 3))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 30; trial++ {
		off := 8 + rng.Intn(len(wal)-8) // past the magic header
		cp := copyDir(t, dir)
		mut := append([]byte(nil), wal...)
		mut[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(filepath.Join(cp, walFile), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tdb, err := Open(Options{Dir: cp, Dim: 2})
		if err != nil {
			t.Fatalf("trial %d (flip at %d): reopen failed: %v", trial, off, err)
		}
		rec := int(tdb.Stats().RecoveredRecords)
		got := fingerprint(t, tdb, queries, 3)
		tdb.Close()
		if rec > commits {
			t.Fatalf("trial %d: replayed %d > %d records", trial, rec, commits)
		}
		if rec == commits {
			t.Fatalf("trial %d (flip at %d): corruption went undetected", trial, off)
		}
		if got != prefix[rec] {
			t.Fatalf("trial %d (flip at %d): state is not the %d-commit prefix\n got %s\nwant %s",
				trial, off, rec, got, prefix[rec])
		}
	}
}

// TestNoFsyncStillOrdered: with NoFsync the same commit stream must stay
// atomic and ordered in memory; a clean Close syncs, so reopen restores
// everything.
func TestNoFsyncStillOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Dim: 2, NoFsync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ref := newRef(t, 2)
	queries := []*core.Sequence{randSeq(rng, 2, 8)}
	var live []uint32
	for i := 0; i < 20; i++ {
		driveOps(t, rng, db, ref, &live, 2)
	}
	if s := db.Stats(); s.Fsyncs != 0 {
		t.Fatalf("NoFsync mode performed %d fsyncs on the commit path", s.Fsyncs)
	}
	want := fingerprint(t, ref, queries, 3)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := Open(Options{Dir: dir, Dim: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := fingerprint(t, db2, queries, 3); got != want {
		t.Fatalf("NoFsync clean-close state diverges\n got %s\nwant %s", got, want)
	}
}

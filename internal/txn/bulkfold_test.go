package txn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// answerSearcher is the read surface the bulk-fold equivalence checks
// compare: range, kNN and DTW search, shared by *DB and *core.Database.
type answerSearcher interface {
	searcher
	SearchKNN(*core.Sequence, int) ([]core.KNNResult, error)
	SearchMetric(*core.Sequence, float64, core.Metric) ([]core.MetricMatch, core.SearchStats, error)
	SearchKNNMetric(*core.Sequence, int, core.Metric) ([]core.KNNResult, error)
}

// answers extends fingerprint with kNN and DTW range/kNN answers. Every
// answer is reduced to ids, exact distance bits, offsets and intervals —
// never *Sequence pointers — so databases built by different paths
// compare equal exactly when they answer identically.
func answers(t *testing.T, db answerSearcher, queries []*core.Sequence) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(fingerprint(t, db, queries, 1.2))
	dtw := core.MetricDTW{Window: -1}
	for qi, q := range queries {
		kn, err := db.SearchKNN(q, 4)
		if err != nil {
			t.Fatalf("SearchKNN q%d: %v", qi, err)
		}
		fmt.Fprintf(&b, ";k%d=", qi)
		for _, r := range kn {
			fmt.Fprintf(&b, "%d@%x+%d,", r.SeqID, math.Float64bits(r.Dist), r.Offset)
		}
		ms, _, err := db.SearchMetric(q, 5, dtw)
		if err != nil {
			t.Fatalf("SearchMetric q%d: %v", qi, err)
		}
		fmt.Fprintf(&b, ";w%d=", qi)
		for _, m := range ms {
			fmt.Fprintf(&b, "%d@%x,", m.SeqID, math.Float64bits(m.Dist))
		}
		wk, err := db.SearchKNNMetric(q, 3, dtw)
		if err != nil {
			t.Fatalf("SearchKNNMetric q%d: %v", qi, err)
		}
		fmt.Fprintf(&b, ";wk%d=", qi)
		for _, r := range wk {
			fmt.Fprintf(&b, "%d@%x,", r.SeqID, math.Float64bits(r.Dist))
		}
	}
	return b.String()
}

// perSlotFold is the reference for a first fold: the op-by-op path the
// bulk fold replaced. It rebuilds the cut's delta into a fresh database
// one slot at a time — AddSegmented for each surviving add (its latest
// overlay applied), AddTombstone for each removed one.
func perSlotFold(t *testing.T, db *DB, cut *state) *core.Database {
	t.Helper()
	ref, err := core.NewDatabase(core.Options{Dim: db.Dim(), Partition: db.PartitionConfig(), QuantizedMBR: db.opts.QuantizedMBR})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	v := buildView(cut)
	for i, g := range cut.adds {
		id := cut.baseNext + uint32(i)
		var got uint32
		if _, dead := v.removed[id]; dead {
			got, err = ref.AddTombstone()
		} else {
			if ng, ok := v.overlay[id]; ok {
				g = ng
			}
			got, err = ref.AddSegmented(detach(g))
		}
		if err != nil || got != id {
			t.Fatalf("reference fold slot %d: id %d, err %v", id, got, err)
		}
	}
	return ref
}

// checkBaseMatches asserts the folded base has the reference's directory
// shape, a valid index, and identical answers.
func checkBaseMatches(t *testing.T, what string, base, ref *core.Database, queries []*core.Sequence) {
	t.Helper()
	if base.DirLen() != ref.DirLen() || base.Len() != ref.Len() || base.NumMBRs() != ref.NumMBRs() {
		t.Fatalf("%s: DirLen/Len/MBRs %d/%d/%d, reference %d/%d/%d", what,
			base.DirLen(), base.Len(), base.NumMBRs(), ref.DirLen(), ref.Len(), ref.NumMBRs())
	}
	if err := base.CheckIndex(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got, want := answers(t, base, queries), answers(t, ref, queries); got != want {
		t.Fatalf("%s: answers differ from the per-slot reference\n got %s\nwant %s", what, got, want)
	}
}

// TestBulkFirstFoldMatchesPerSlot drives deltas of each shape into an
// empty durable base, checkpoints (the bulk fold), and requires the
// base to equal the per-slot reference, the pre-fold delta answers to
// survive the fold, and a reopen to restore the same answers.
func TestBulkFirstFoldMatchesPerSlot(t *testing.T) {
	cases := []struct {
		name string
		n    int                              // adds
		edit func(rng *rand.Rand, db *DB) int // more ops on the adds; returns live count
	}{
		{"adds", 30, func(*rand.Rand, *DB) int { return 30 }},
		{"overlays", 30, func(rng *rand.Rand, db *DB) int {
			for i := 0; i < 25; i++ {
				id := uint32(rng.Intn(30))
				if err := db.AppendPoints(id, randSeq(rng, 3, 1+rng.Intn(5)).Points); err != nil {
					t.Fatal(err)
				}
			}
			return 30
		}},
		{"removals", 30, func(rng *rand.Rand, db *DB) int {
			for _, id := range []uint32{0, 4, 5, 17, 29} {
				if err := db.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			// A removed add whose overlay must not resurrect it.
			if err := db.AppendPoints(9, randSeq(rng, 3, 3).Points); err != nil {
				t.Fatal(err)
			}
			if err := db.Remove(9); err != nil {
				t.Fatal(err)
			}
			return 24
		}},
		{"all-removed", 12, func(rng *rand.Rand, db *DB) int {
			for id := uint32(0); id < 12; id++ {
				if err := db.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			return 0
		}},
		{"single-add", 1, func(*rand.Rand, *DB) int { return 1 }},
	}
	for ci, tc := range cases {
		for _, f := range []store.Format{store.FormatV1, store.FormatV2} {
			t.Run(fmt.Sprintf("%s/v%d", tc.name, f), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(300 + ci)))
				dir := t.TempDir()
				db := openFmt(t, dir, f, false)
				seqs := make([]*core.Sequence, tc.n)
				for i := range seqs {
					seqs[i] = randSeq(rng, 3, 10+rng.Intn(30))
				}
				// Adds arrive in several commits, so the delta is more
				// than one batch.
				for lo := 0; lo < tc.n; lo += 7 {
					if _, err := db.AddAll(seqs[lo:min(lo+7, tc.n)]); err != nil {
						t.Fatal(err)
					}
				}
				live := tc.edit(rng, db)
				if db.Len() != live {
					t.Fatalf("Len %d before fold, want %d", db.Len(), live)
				}
				queries := []*core.Sequence{
					randSeq(rng, 3, 8),
					{Points: seqs[0].Points[:min(6, len(seqs[0].Points))]},
				}
				before := answers(t, db, queries)

				cut := db.cur.Load()
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				checkBaseMatches(t, "bulk fold", db.base, perSlotFold(t, db, cut), queries)
				if got := answers(t, db, queries); got != before {
					t.Fatalf("answers changed across the fold\n got %s\nwant %s", got, before)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				db2 := openFmt(t, dir, f, false)
				defer db2.Close()
				if db2.base.DirLen() != tc.n || db2.Stats().RecoveredRecords != 0 {
					t.Fatalf("reopen: base DirLen %d, replayed %d records; want %d and 0",
						db2.base.DirLen(), db2.Stats().RecoveredRecords, tc.n)
				}
				if err := db2.base.CheckIndex(); err != nil {
					t.Fatal(err)
				}
				if got := answers(t, db2, queries); got != before {
					t.Fatalf("reopened answers differ\n got %s\nwant %s", got, before)
				}
			})
		}
	}
}

// TestFoldsAfterBulkStayOpByOp: once the first fold has bulk-loaded the
// base, later folds (adds, appends and removals touching base ids) go op
// by op and must keep the base equal to a core.Database that received
// the same operations directly — across a reopen from the holed
// snapshot, in both formats.
func TestFoldsAfterBulkStayOpByOp(t *testing.T) {
	for _, f := range []store.Format{store.FormatV1, store.FormatV2} {
		rng := rand.New(rand.NewSource(int64(310 + f)))
		dir := t.TempDir()
		db := openFmt(t, dir, f, false)
		ref := newRef(t, 3)
		var live []uint32
		queries := []*core.Sequence{randSeq(rng, 3, 8), randSeq(rng, 3, 14)}
		for round := 0; round < 3; round++ {
			for i := 0; i < 30; i++ {
				driveOps(t, rng, db, ref, &live, 3)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("format %d round %d: Checkpoint: %v", f, round, err)
			}
			checkBaseMatches(t, fmt.Sprintf("format %d round %d", f, round), db.base, ref, queries)
		}
		want := answers(t, db, queries)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := openFmt(t, dir, f, false)
		checkBaseMatches(t, fmt.Sprintf("format %d reopen", f), db2.base, ref, queries)
		if got := answers(t, db2, queries); got != want {
			t.Fatalf("format %d: reopened answers differ\n got %s\nwant %s", f, got, want)
		}
		db2.Close()
	}
}

// unpromotedImage builds the disk image of a kill -9 during a
// checkpoint's persist step, after the fold: pre is a copy of the
// directory taken as the checkpoint started, and dir the directory after
// it completed. The image is pre plus the snapshot directory CURRENT now
// names in dir — complete ("snapshot-written"), with its payload cut in
// half ("payload-torn"), or complete with CURRENT.tmp written but not
// yet renamed ("current-tmp") — while CURRENT itself keeps pre's state.
func unpromotedImage(t *testing.T, pre, dir, crash string) string {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	snap := strings.TrimSpace(string(cur))
	img := copyDir(t, pre)
	dst := filepath.Join(img, snap)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(dir, snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		data, err := os.ReadFile(filepath.Join(dir, snap, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if crash == "payload-torn" && e.Name() != snapMeta {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if crash == "current-tmp" {
		if err := os.WriteFile(filepath.Join(img, currentFile+".tmp"), []byte(snap+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// TestCrashBetweenBulkFoldAndPromotion crashes the first (bulk) fold
// after its snapshot was written but before CURRENT named it, in each
// unpromotedImage variant and both snapshot formats. Recovery must
// ignore the unpromoted snapshot, replay every acknowledged commit from
// the WAL, and fold again to the same base.
func TestCrashBetweenBulkFoldAndPromotion(t *testing.T) {
	for _, f := range []store.Format{store.FormatV1, store.FormatV2} {
		rng := rand.New(rand.NewSource(int64(320 + f)))
		dir := t.TempDir()
		db := openFmt(t, dir, f, false)
		ref := newRef(t, 3)
		var live []uint32
		for i := 0; i < 40; i++ {
			driveOps(t, rng, db, ref, &live, 3)
		}
		queries := []*core.Sequence{randSeq(rng, 3, 8), randSeq(rng, 3, 12)}
		want := answers(t, ref, queries)
		pre := copyDir(t, dir) // the disk as the fold starts: WAL only
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, crash := range []string{"snapshot-written", "payload-torn", "current-tmp"} {
			rec, err := Open(Options{Dir: unpromotedImage(t, pre, dir, crash), Dim: 3})
			if err != nil {
				t.Fatalf("format %d %s: reopen: %v", f, crash, err)
			}
			if rec.Stats().RecoveredRecords != 40 {
				t.Errorf("format %d %s: replayed %d of 40 records", f, crash, rec.Stats().RecoveredRecords)
			}
			if got := answers(t, rec, queries); got != want {
				t.Errorf("format %d %s: recovery lost or invented state\n got %s\nwant %s", f, crash, got, want)
			}
			if err := rec.Checkpoint(); err != nil {
				t.Fatalf("format %d %s: re-fold: %v", f, crash, err)
			}
			checkBaseMatches(t, fmt.Sprintf("format %d %s re-fold", f, crash), rec.base, ref, queries)
			rec.Close()
		}
	}
}

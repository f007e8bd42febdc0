package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// slotCorpus partitions n random walks and returns them as a directory
// with the given slots left nil (tombstones).
func slotCorpus(t *testing.T, rng *rand.Rand, n int, holes map[int]bool) []*Segmented {
	t.Helper()
	slots := make([]*Segmented, n)
	for i := range slots {
		g, err := NewSegmented(randWalkSeq(rng, 30+rng.Intn(60), 3), DefaultPartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !holes[i] {
			slots[i] = g
		}
	}
	return slots
}

// TestAddAllSegmentedTombstones: nil slots reserve their ids as
// tombstones. The result must equal a database built slot by slot with
// AddSegmented and AddTombstone, and searches must never return a
// tombstoned id.
func TestAddAllSegmentedTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	holes := map[int]bool{0: true, 3: true, 4: true, 11: true, 29: true}
	slots := slotCorpus(t, rng, 30, holes)

	reg := obs.NewRegistry()
	bulk := newTestDB(t, 3)
	bulk.SetMetrics(reg)
	ids, err := bulk.AddAllSegmented(slots, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 30 || ids[29] != 29 {
		t.Fatalf("ids = %v, want 0..29", ids)
	}
	ref := newTestDB(t, 3)
	for i, g := range slots {
		var id uint32
		if g == nil {
			id, err = ref.AddTombstone()
		} else {
			// A copy with its own Sequence header: the bulk load stamps
			// ids on the originals.
			gc, sc := *g, *g.Seq
			gc.Seq = &sc
			id, err = ref.AddSegmented(&gc)
		}
		if err != nil || id != uint32(i) {
			t.Fatalf("reference slot %d: id %d, err %v", i, id, err)
		}
	}

	if bulk.DirLen() != 30 || bulk.Len() != 25 || bulk.NumMBRs() != ref.NumMBRs() {
		t.Fatalf("DirLen %d Len %d MBRs %d, want 30/25/%d", bulk.DirLen(), bulk.Len(), bulk.NumMBRs(), ref.NumMBRs())
	}
	if err := bulk.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("mdseq_sequences", "").Value(); got != 25 {
		t.Fatalf("mdseq_sequences = %g, want 25 (tombstones are not sequences)", got)
	}
	if got := reg.Counter("mdseq_sequences_added_total", "").Value(); got != 25 {
		t.Fatalf("mdseq_sequences_added_total = %d, want 25", got)
	}
	for i, g := range slots {
		if g == nil {
			if bulk.Segmented(uint32(i)) != nil {
				t.Fatalf("tombstone %d resolves to a sequence", i)
			}
			if err := bulk.Remove(uint32(i)); !errors.Is(err, ErrUnknownSequence) {
				t.Fatalf("Remove(tombstone %d) = %v, want ErrUnknownSequence", i, err)
			}
			continue
		}
		if g.Seq.ID != uint32(i) {
			t.Fatalf("slot %d stamped with id %d", i, g.Seq.ID)
		}
	}

	for trial := 0; trial < 12; trial++ {
		src := slots[rng.Intn(len(slots))]
		if src == nil {
			src = slots[1]
		}
		q := &Sequence{Points: src.Seq.Points[:10+rng.Intn(15)]}
		eps := 0.05 + 0.1*float64(trial%4)
		a, _, err := bulk.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ref.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d matches vs reference %d", trial, len(a), len(b))
		}
		for i := range a {
			if holes[int(a[i].SeqID)] {
				t.Fatalf("trial %d: search returned tombstone %d", trial, a[i].SeqID)
			}
			if a[i].SeqID != b[i].SeqID || a[i].MinDnorm != b[i].MinDnorm || a[i].Interval.String() != b[i].Interval.String() {
				t.Fatalf("trial %d rank %d: %d@%g%v vs reference %d@%g%v", trial, i,
					a[i].SeqID, a[i].MinDnorm, a[i].Interval, b[i].SeqID, b[i].MinDnorm, b[i].Interval)
			}
		}
		kn, err := bulk.SearchKNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := ref.SearchKNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(kn) != len(kr) {
			t.Fatalf("trial %d: kNN %d vs reference %d", trial, len(kn), len(kr))
		}
		for i := range kn {
			if holes[int(kn[i].SeqID)] || kn[i].SeqID != kr[i].SeqID || kn[i].Dist != kr[i].Dist {
				t.Fatalf("trial %d kNN rank %d: %d@%g vs reference %d@%g", trial, i,
					kn[i].SeqID, kn[i].Dist, kr[i].SeqID, kr[i].Dist)
			}
		}
	}

	// The next Add continues after the reserved ids.
	id, err := bulk.Add(randWalkSeq(rng, 40, 3))
	if err != nil || id != 30 {
		t.Fatalf("Add after bulk load: id %d, err %v", id, err)
	}
}

// TestAddAllSegmentedAllTombstones: a directory of only nil slots
// reserves every id and leaves an empty, valid index.
func TestAddAllSegmentedAllTombstones(t *testing.T) {
	db := newTestDB(t, 3)
	ids, err := db.AddAllSegmented(make([]*Segmented, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 7 {
		t.Fatalf("ids = %v", ids)
	}
	if db.DirLen() != 7 || db.Len() != 0 || db.NumMBRs() != 0 {
		t.Fatalf("DirLen %d Len %d MBRs %d, want 7/0/0", db.DirLen(), db.Len(), db.NumMBRs())
	}
	if err := db.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	q := randWalkSeq(rng, 20, 3)
	if ms, _, err := db.Search(q, 10); err != nil || len(ms) != 0 {
		t.Fatalf("search over tombstones: %d matches, err %v", len(ms), err)
	}
	if err := db.Remove(3); !errors.Is(err, ErrUnknownSequence) {
		t.Fatalf("Remove(3) = %v, want ErrUnknownSequence", err)
	}
	if id, err := db.Add(randWalkSeq(rng, 30, 3)); err != nil || id != 7 {
		t.Fatalf("Add after all-tombstone load: id %d, err %v", id, err)
	}
}

// TestAddAllSegmentedRejections: the bulk entry point refuses a
// non-empty database and packed leaves combined with holes, and a
// refused call changes nothing.
func TestAddAllSegmentedRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(92))

	db := newTestDB(t, 3)
	if _, err := db.Add(randWalkSeq(rng, 30, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAllSegmented(slotCorpus(t, rng, 3, nil), nil); err == nil {
		t.Fatal("AddAllSegmented into a non-empty database accepted")
	}
	if db.DirLen() != 1 || db.Len() != 1 {
		t.Fatalf("rejected load changed the database: DirLen %d Len %d", db.DirLen(), db.Len())
	}

	// Packed leaves of the dense corpus are valid on their own ...
	dense := slotCorpus(t, rng, 8, nil)
	var items []rtree.Item
	for i, g := range dense {
		for j, m := range g.MBRs {
			items = append(items, rtree.Item{Rect: m.Rect, Ref: rtree.PackRef(uint32(i), uint32(j))})
		}
	}
	empty := newTestDB(t, 3)
	fan := empty.IndexFanout()
	var leaves [][]rtree.Ref
	for _, leaf := range rtree.STRLeaves(items, 3, fan, max(1, fan*2/5)) {
		refs := make([]rtree.Ref, len(leaf))
		for k, it := range leaf {
			refs[k] = it.Ref
		}
		leaves = append(leaves, refs)
	}
	// ... but not once a slot is a tombstone.
	holed := append([]*Segmented(nil), dense...)
	holed[5] = nil
	if _, err := empty.AddAllSegmented(holed, leaves); err == nil {
		t.Fatal("packed leaves with tombstone slots accepted")
	}
	if empty.DirLen() != 0 || empty.NumMBRs() != 0 {
		t.Fatalf("rejected load changed the database: DirLen %d MBRs %d", empty.DirLen(), empty.NumMBRs())
	}
	if _, err := empty.AddAllSegmented(dense, leaves); err != nil {
		t.Fatalf("dense load with packed leaves: %v", err)
	}
	if err := empty.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fractal"
	"repro/internal/geom"
)

// corpus generates n labeled fractal sequences with a fixed seed.
func corpus(t testing.TB, n, length int, seed int64) []*core.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*core.Sequence, n)
	for i := range seqs {
		s, err := fractal.Generate(rng, length, fractal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Label = fmt.Sprintf("seq-%03d", i)
		seqs[i] = s
	}
	return seqs
}

// clone deep-copies a corpus so two databases never share point storage.
func clone(seqs []*core.Sequence) []*core.Sequence {
	out := make([]*core.Sequence, len(seqs))
	for i, s := range seqs {
		out[i] = s.Clone()
	}
	return out
}

func newSingle(t testing.TB, seqs []*core.Sequence) *core.Database {
	t.Helper()
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	return db
}

func newSharded(t testing.TB, seqs []*core.Sequence, n int) *ShardedDB {
	t.Helper()
	sdb, err := New(core.Options{Dim: 3}, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	if _, err := sdb.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	return sdb
}

// matchKey is a topology-independent view of one match: label plus the
// distance bound and interval, which depend only on the sequence itself.
type matchKey struct {
	label    string
	minDnorm float64
	interval string
}

func matchKeys(t *testing.T, ms []core.Match) []matchKey {
	t.Helper()
	out := make([]matchKey, len(ms))
	for i, m := range ms {
		out[i] = matchKey{label: m.Seq.Label, minDnorm: m.MinDnorm, interval: m.Interval.String()}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].label < out[b].label })
	return out
}

func TestShardForStable(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, label := range []string{"", "a", "seq-001", "video/clip-42"} {
			got := ShardFor(label, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardFor(%q, %d) = %d out of range", label, n, got)
			}
			if again := ShardFor(label, n); again != got {
				t.Fatalf("ShardFor(%q, %d) unstable: %d then %d", label, n, got, again)
			}
		}
	}
	if ShardFor("anything", 1) != 0 {
		t.Fatal("single shard must receive everything")
	}
}

func TestNewRejectsBadShardCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := New(core.Options{Dim: 3}, n); err == nil {
			t.Fatalf("New with %d shards: want error", n)
		}
	}
}

// TestShardedSearchMatchesSingleNode is the tentpole cross-check: the
// scatter-gather range search must return exactly the single-node match
// set (modulo id assignment) on an identical corpus.
func TestShardedSearchMatchesSingleNode(t *testing.T) {
	seqs := corpus(t, 60, 96, 1)
	single := newSingle(t, clone(seqs))
	for _, n := range []int{1, 2, 3, 8} {
		sdb := newSharded(t, clone(seqs), n)
		for qi, eps := range map[int]float64{3: 0.1, 17: 0.2, 41: 0.35} {
			q := &core.Sequence{Label: "query", Points: seqs[qi].Points[10:42]}
			want, _, err := single.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := sdb.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matchKeys(t, got), matchKeys(t, want)) {
				t.Fatalf("shards=%d query %d eps=%.2f: sharded matches differ\n got %v\nwant %v",
					n, qi, eps, matchKeys(t, got), matchKeys(t, want))
			}
			if st.TotalSequences != 60 {
				t.Fatalf("merged TotalSequences = %d, want 60", st.TotalSequences)
			}
			// Ascending global id order, like the single-node contract.
			for i := 1; i < len(got); i++ {
				if got[i-1].SeqID >= got[i].SeqID {
					t.Fatalf("shards=%d: results not in ascending id order", n)
				}
			}
			// SearchParallel must agree exactly.
			par, _, err := sdb.SearchParallel(q, eps, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matchKeys(t, par), matchKeys(t, got)) {
				t.Fatalf("shards=%d: SearchParallel diverges from Search", n)
			}
		}
	}
}

func TestShardedSearchShardsStats(t *testing.T) {
	seqs := corpus(t, 40, 64, 2)
	sdb := newSharded(t, clone(seqs), 4)
	q := &core.Sequence{Label: "query", Points: seqs[5].Points[:24]}
	_, merged, per, err := sdb.SearchShards(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("got %d per-shard stats, want 4", len(per))
	}
	sumSeqs, sumCands := 0, 0
	for i, ps := range per {
		if ps.Shard != i {
			t.Fatalf("per-shard stats out of order: %d at %d", ps.Shard, i)
		}
		sumSeqs += ps.Stats.TotalSequences
		sumCands += ps.Stats.CandidatesDmbr
	}
	if sumSeqs != merged.TotalSequences || sumCands != merged.CandidatesDmbr {
		t.Fatalf("merged stats (%d seqs, %d cands) disagree with per-shard sums (%d, %d)",
			merged.TotalSequences, merged.CandidatesDmbr, sumSeqs, sumCands)
	}
}

func TestShardedKNNMatchesSingleNode(t *testing.T) {
	seqs := corpus(t, 50, 80, 3)
	single := newSingle(t, clone(seqs))
	for _, n := range []int{1, 3, 8} {
		sdb := newSharded(t, clone(seqs), n)
		for _, k := range []int{1, 5, 12, 50, 80} {
			q := &core.Sequence{Label: "query", Points: seqs[7].Points[5:35]}
			want, err := single.SearchKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sdb.SearchKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d k=%d: %d results, want %d", n, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq.Label != want[i].Seq.Label ||
					math.Abs(got[i].Dist-want[i].Dist) > 1e-12 ||
					got[i].Offset != want[i].Offset {
					t.Fatalf("shards=%d k=%d result %d: got (%s, %g, %d), want (%s, %g, %d)",
						n, k, i, got[i].Seq.Label, got[i].Dist, got[i].Offset,
						want[i].Seq.Label, want[i].Dist, want[i].Offset)
				}
				if i > 0 && got[i].Dist < got[i-1].Dist {
					t.Fatalf("shards=%d: kNN results not sorted", n)
				}
			}
		}
	}
}

func TestSearchKNNBoundedPrunes(t *testing.T) {
	seqs := corpus(t, 30, 64, 4)
	single := newSingle(t, clone(seqs))
	q := &core.Sequence{Label: "query", Points: seqs[2].Points[:20]}
	full, err := single.SearchKNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("need at least 3 neighbors, got %d", len(full))
	}
	bound := full[2].Dist
	bounded, err := single.SearchKNNBounded(q, 10, bound)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bounded {
		if r.Dist > bound {
			t.Fatalf("bounded kNN returned dist %g > bound %g", r.Dist, bound)
		}
	}
	// Everything within the bound must still be there (no false dismissal).
	want := 0
	for _, r := range full {
		if r.Dist <= bound {
			want++
		}
	}
	if len(bounded) != want {
		t.Fatalf("bounded kNN returned %d results, want %d within bound", len(bounded), want)
	}
}

func TestShardedRemoveAndAppend(t *testing.T) {
	seqs := corpus(t, 24, 48, 5)
	sdb := newSharded(t, clone(seqs), 3)
	ids, err := func() ([]uint32, error) {
		out := make([]uint32, 0, sdb.Len())
		for _, s := range sdb.Sequences() {
			out = append(out, s.ID)
		}
		return out, nil
	}()
	if err != nil {
		t.Fatal(err)
	}

	// Remove a third of the corpus by global id.
	removedLabels := map[string]bool{}
	for i, id := range ids {
		if i%3 != 0 {
			continue
		}
		removedLabels[sdb.Segmented(id).Seq.Label] = true
		if err := sdb.Remove(id); err != nil {
			t.Fatal(err)
		}
		if g := sdb.Segmented(id); g != nil {
			t.Fatalf("sequence %d still visible after Remove", id)
		}
	}
	if err := sdb.Remove(ids[0]); err == nil {
		t.Fatal("double Remove: want error")
	}
	if sdb.Len() != 24-len(removedLabels) {
		t.Fatalf("Len = %d after removing %d", sdb.Len(), len(removedLabels))
	}

	// Append points to a survivor and confirm it still matches itself.
	var surv uint32
	for _, s := range sdb.Sequences() {
		surv = s.ID
		break
	}
	before := sdb.Segmented(surv).Seq.Len()
	extra := make([]geom.Point, 8)
	for i := range extra {
		extra[i] = geom.Point{0.5, 0.5, 0.5}
	}
	if err := sdb.AppendPoints(surv, extra); err != nil {
		t.Fatal(err)
	}
	if got := sdb.Segmented(surv).Seq.Len(); got != before+8 {
		t.Fatalf("appended length %d, want %d", got, before+8)
	}

	// The sharded database must now agree with a single-node database
	// built from its own surviving corpus.
	single := newSingle(t, clone(sdb.Sequences()))
	q := &core.Sequence{Label: "query", Points: seqs[1].Points[:16]}
	want, _, err := single.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sdb.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(matchKeys(t, got), matchKeys(t, want)) {
		t.Fatalf("after remove+append, sharded diverges from single-node:\n got %v\nwant %v",
			matchKeys(t, got), matchKeys(t, want))
	}
	for l := range removedLabels {
		for _, m := range got {
			if m.Seq.Label == l {
				t.Fatalf("removed sequence %q still matching", l)
			}
		}
	}
}

func TestShardedEmptyShards(t *testing.T) {
	// 2 sequences over 8 shards: most shards stay empty and must not
	// break search, kNN, or stats.
	seqs := corpus(t, 2, 40, 6)
	sdb := newSharded(t, clone(seqs), 8)
	if sdb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sdb.Len())
	}
	q := &core.Sequence{Label: "query", Points: seqs[0].Points[:16]}
	if _, _, err := sdb.Search(q, 0.2); err != nil {
		t.Fatal(err)
	}
	nn, err := sdb.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 {
		t.Fatalf("kNN over 2 sequences returned %d", len(nn))
	}
	lens := sdb.ShardLens()
	total := 0
	for _, l := range lens {
		total += l
	}
	if total != 2 {
		t.Fatalf("ShardLens sum %d, want 2", total)
	}
}

func TestShardedIDRoundTrip(t *testing.T) {
	sdb, err := New(core.Options{Dim: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	for sh := 0; sh < 5; sh++ {
		for local := uint32(0); local < 100; local += 7 {
			g := sdb.globalID(sh, local)
			gotSh, gotLocal := sdb.SplitID(g)
			if gotSh != sh || gotLocal != local {
				t.Fatalf("id round trip (%d,%d) -> %d -> (%d,%d)", sh, local, g, gotSh, gotLocal)
			}
		}
	}
}

func TestShardedExplainCoversCorpus(t *testing.T) {
	seqs := corpus(t, 20, 48, 7)
	sdb := newSharded(t, clone(seqs), 4)
	q := &core.Sequence{Label: "query", Points: seqs[0].Points[:16]}
	ex, err := sdb.Explain(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Candidates) != 20 {
		t.Fatalf("Explain covered %d sequences, want 20", len(ex.Candidates))
	}
	for i := 1; i < len(ex.Candidates); i++ {
		if ex.Candidates[i-1].SeqID >= ex.Candidates[i].SeqID {
			t.Fatal("Explain candidates not sorted by global id")
		}
	}
}

// TestShardedRejectsNonFinite: the router fails closed like a single
// node — a NaN coordinate is refused on write, and a NaN threshold is an
// error from every range search rather than an empty answer.
func TestShardedRejectsNonFinite(t *testing.T) {
	sdb := newSharded(t, corpus(t, 12, 40, 71), 3)
	sdb.SetCache(cache.New(cache.Config{}))
	bad := []geom.Point{{0.1, 0.2, 0.3}, {0.1, math.NaN(), 0.3}}
	if _, err := sdb.Add(&core.Sequence{Label: "nan", Points: bad}); err == nil {
		t.Error("Add accepted a NaN coordinate")
	}
	if _, err := sdb.AddAll([]*core.Sequence{{Label: "nan", Points: bad}}); err == nil {
		t.Error("AddAll accepted a NaN coordinate")
	}
	if err := sdb.AppendPoints(0, bad[1:]); err == nil {
		t.Error("AppendPoints accepted a NaN coordinate")
	}
	if sdb.Len() != 12 {
		t.Errorf("Len = %d after rejected writes; want 12", sdb.Len())
	}

	q := &core.Sequence{Points: sdb.Segmented(0).Seq.Points[:20]}
	nan := math.NaN()
	searches := map[string]func() error{
		"Search":           func() error { _, _, err := sdb.Search(q, nan); return err },
		"SearchParallel":   func() error { _, _, err := sdb.SearchParallel(q, nan, 2); return err },
		"SearchBatch":      func() error { _, _, err := sdb.SearchBatch([]*core.Sequence{q}, nan); return err },
		"SearchMetric":     func() error { _, _, err := sdb.SearchMetric(q, nan, core.MetricD{}); return err },
		"SequentialSearch": func() error { _, err := sdb.SequentialSearch(q, nan); return err },
	}
	for name, f := range searches {
		if f() == nil {
			t.Errorf("%s accepted eps=NaN", name)
		}
	}
}

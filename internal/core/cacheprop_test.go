package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
)

// TestCacheEqualsUncachedUnderRandomWorkload is the cache's correctness
// property test: a cached database and an uncached twin receive the same
// random interleaving of writes (add, append, remove) and queries (range
// and kNN, with repeats so the cache actually serves hits), and every
// query answer — hit or miss — must equal the uncached database's fresh
// answer exactly. Equality is exact, not approximate: a hit is a memo of
// a deterministic computation over an identical corpus, so any deviation
// means a stale or corrupted entry. The workload is seeded and
// reproducible.
func TestCacheEqualsUncachedUnderRandomWorkload(t *testing.T) {
	t.Run("gdsf/mbr", func(t *testing.T) {
		t.Parallel()
		// The seed this arm has always run at: 0x5eed + len("gdsf")<<8 +
		// len("mbr").
		rng := rand.New(rand.NewSource(0x5eed + 4<<8 + 3))
		cached := newTestDB(t, 3)
		// Small caps so eviction, admission, and aging all engage.
		cached.SetCache(cache.New(cache.Config{
			MaxEntries: 32, MaxBytes: 1 << 18, Shards: 2,
		}))
		plain := newTestDB(t, 3)

		// Identical op sequences keep ids aligned across the twins.
		var ids []uint32
		addBoth := func(n int) {
			s := randWalkSeq(rng, n, 3)
			cp, err := NewSequence(s.Label, append([]geom.Point(nil), s.Points...))
			if err != nil {
				t.Fatal(err)
			}
			id1, err1 := cached.Add(s)
			id2, err2 := plain.Add(cp)
			if err1 != nil || err2 != nil {
				t.Fatalf("add: %v / %v", err1, err2)
			}
			if id1 != id2 {
				t.Fatalf("twins diverged: ids %d vs %d", id1, id2)
			}
			ids = append(ids, id1)
		}
		for i := 0; i < 15; i++ {
			addBoth(30 + rng.Intn(40))
		}

		// A small pool of recurring queries guarantees hits.
		pool := make([]*Sequence, 6)
		for i := range pool {
			pool[i] = randWalkSeq(rng, 20+rng.Intn(20), 3)
		}

		hits := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Float64(); {
			case op < 0.10: // add
				addBoth(20 + rng.Intn(40))
			case op < 0.16 && len(ids) > 3: // remove
				i := rng.Intn(len(ids))
				id := ids[i]
				ids = append(ids[:i], ids[i+1:]...)
				if err := cached.Remove(id); err != nil {
					t.Fatal(err)
				}
				if err := plain.Remove(id); err != nil {
					t.Fatal(err)
				}
			case op < 0.24 && len(ids) > 0: // append
				id := ids[rng.Intn(len(ids))]
				pts := make([]geom.Point, 3)
				base := rng.Float64()
				for j := range pts {
					pts[j] = geom.Point{base, base + 0.01*float64(j), base}
				}
				if err := cached.AppendPoints(id, pts); err != nil {
					t.Fatal(err)
				}
				if err := plain.AppendPoints(id, pts); err != nil {
					t.Fatal(err)
				}
			case op < 0.80: // range query
				q := pool[rng.Intn(len(pool))]
				eps := 0.2 + 0.2*float64(rng.Intn(3))
				got, st, err := cached.Search(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := plain.Search(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if st.CacheHit {
					hits++
				}
				requireSameMatches(t, step, got, want)
			default: // kNN query
				q := pool[rng.Intn(len(pool))]
				k := 1 + rng.Intn(5)
				got, err := cached.SearchKNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.SearchKNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				requireSameKNN(t, step, got, want)
			}
		}
		if hits == 0 {
			t.Fatal("workload produced zero cache hits; property test is vacuous")
		}
	})
}

// requireSameMatches fails the test unless got and want are identical
// match lists (ids, distances, and matched intervals all equal).
func requireSameMatches(t *testing.T, step int, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: cached answer has %d matches, fresh has %d", step, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SeqID != w.SeqID || g.MinDnorm != w.MinDnorm ||
			g.Interval.NumPoints() != w.Interval.NumPoints() {
			t.Fatalf("step %d: match %d differs: got {id %d d %v pts %d}, want {id %d d %v pts %d}",
				step, i, g.SeqID, g.MinDnorm, g.Interval.NumPoints(),
				w.SeqID, w.MinDnorm, w.Interval.NumPoints())
		}
	}
}

// requireSameKNN fails the test unless got and want are identical ranked
// neighbor lists.
func requireSameKNN(t *testing.T, step int, got, want []KNNResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: cached kNN has %d results, fresh has %d", step, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SeqID != w.SeqID || g.Dist != w.Dist || g.Offset != w.Offset {
			t.Fatalf("step %d: neighbor %d differs: got {id %d d %v off %d}, want {id %d d %v off %d}",
				step, i, g.SeqID, g.Dist, g.Offset, w.SeqID, w.Dist, w.Offset)
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
)

// cachedDB builds a populated database with a query cache attached.
func cachedDB(t *testing.T, n int, seed int64) (*Database, *rand.Rand) {
	t.Helper()
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(seed))
	populateWalks(t, db, n, rng)
	db.SetCache(cache.New(cache.Config{}))
	return db, rng
}

// TestSearchCacheHit proves the second identical search is served from
// the cache with identical matches and the CacheHit flag set.
func TestSearchCacheHit(t *testing.T) {
	db, rng := cachedDB(t, 30, 200)
	q := randWalkSeq(rng, 30, 3)

	first, st1, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first search flagged as cache hit")
	}
	second, st2, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second identical search missed the cache")
	}
	if len(second) != len(first) {
		t.Fatalf("cached result has %d matches, computed had %d", len(second), len(first))
	}
	for i := range first {
		if second[i].SeqID != first[i].SeqID || !almostEqual(second[i].MinDnorm, first[i].MinDnorm) {
			t.Fatalf("cached match %d differs", i)
		}
	}
	// The hit carries the original run's counters.
	if st2.CandidatesDmbr != st1.CandidatesDmbr || st2.DnormEvals != st1.DnormEvals {
		t.Fatalf("cached stats differ: %+v vs %+v", st2, st1)
	}
	// A different ε must not alias.
	_, st3, err := db.Search(q, 0.31)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("different eps served from cache")
	}
}

// TestEveryWriteAdvancesEpoch pins that each write kind — Add, AddAll
// (both the bulk and the sequential path), Remove, AppendPoints —
// advances the epoch, so no cached result survives any of them.
func TestEveryWriteAdvancesEpoch(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(201))

	e := db.Epoch()
	if e != 0 {
		t.Fatalf("fresh database epoch = %d", e)
	}
	step := func(op string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got := db.Epoch(); got <= e {
			t.Fatalf("%s left epoch at %d (was %d)", op, got, e)
		}
		e = db.Epoch()
	}
	step("AddAll (bulk)", func() error {
		_, err := db.AddAll([]*Sequence{randWalkSeq(rng, 50, 3), randWalkSeq(rng, 50, 3)})
		return err
	})
	step("AddAll (sequential)", func() error {
		_, err := db.AddAll([]*Sequence{randWalkSeq(rng, 50, 3)})
		return err
	})
	var id uint32
	step("Add", func() error {
		var err error
		id, err = db.Add(randWalkSeq(rng, 50, 3))
		return err
	})
	step("AppendPoints", func() error {
		return db.AppendPoints(id, []geom.Point{{0.1, 0.2, 0.3}})
	})
	step("Remove", func() error { return db.Remove(id) })
}

// TestCacheInvalidatedByWrite proves a write between two identical
// searches prevents the second from returning the pre-write result.
func TestCacheInvalidatedByWrite(t *testing.T) {
	db, rng := cachedDB(t, 20, 202)
	q := randWalkSeq(rng, 30, 3)

	before, _, err := db.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Store an exact copy of the query: it must show up after the write.
	cp, err := NewSequence("copy", append([]geom.Point(nil), q.Points...))
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Add(cp)
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := db.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("search after a write was served from the cache")
	}
	found := false
	for _, m := range after {
		if m.SeqID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact copy (id %d) missing from post-write result (%d matches, was %d)",
			id, len(after), len(before))
	}
}

// TestCacheSharedAcrossSearchPaths proves the serial, parallel, and batch
// range paths share cache entries: any one of them fills, all hit.
func TestCacheSharedAcrossSearchPaths(t *testing.T) {
	db, rng := cachedDB(t, 30, 203)
	q := randWalkSeq(rng, 30, 3)

	if _, st, err := db.Search(q, 0.3); err != nil || st.CacheHit {
		t.Fatalf("seed search: err=%v hit=%v", err, st.CacheHit)
	}
	if _, st, err := db.SearchParallel(q, 0.3, 4); err != nil || !st.CacheHit {
		t.Fatalf("parallel after serial: err=%v hit=%v", err, st.CacheHit)
	}
	outs, stats, err := db.SearchBatch([]*Sequence{q}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].CacheHit {
		t.Fatal("batch after serial missed the cache")
	}
	if len(outs) != 1 {
		t.Fatalf("batch returned %d result sets", len(outs))
	}
}

// TestKNNCacheIsolation proves cached kNN results are copied on every
// hit, so a caller mutating its slice (as the scatter layer does when
// rewriting SeqID to global ids) cannot corrupt the cache.
func TestKNNCacheIsolation(t *testing.T) {
	db, rng := cachedDB(t, 20, 204)
	q := randWalkSeq(rng, 30, 3)

	first, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no neighbors")
	}
	second, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the caller-visible copy the way shard gathering does.
	want := second[0].SeqID
	second[0].SeqID = 0xDEAD
	third, err := db.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if third[0].SeqID != want {
		t.Fatalf("cache entry corrupted by caller mutation: SeqID = %#x", third[0].SeqID)
	}
}

// TestSearchBatchMatchesSerial proves every batch member gets exactly the
// solo-search answer, duplicates included, with no cache attached.
func TestSearchBatchMatchesSerial(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(205))
	populateWalks(t, db, 60, rng)

	qs := make([]*Sequence, 0, 9)
	for i := 0; i < 4; i++ {
		qs = append(qs, randWalkSeq(rng, 20+rng.Intn(40), 3))
	}
	qs = append(qs, qs[1], qs[3], qs[1]) // duplicates
	const eps = 0.25

	outs, stats, err := db.SearchBatch(qs, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(qs) || len(stats) != len(qs) {
		t.Fatalf("batch returned %d/%d entries for %d queries", len(outs), len(stats), len(qs))
	}
	for i, q := range qs {
		want, wst, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: batch %d matches, serial %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].SeqID != want[j].SeqID || !almostEqual(got[j].MinDnorm, want[j].MinDnorm) {
				t.Fatalf("query %d: match %d differs", i, j)
			}
			if got[j].Interval.NumPoints() != want[j].Interval.NumPoints() {
				t.Fatalf("query %d: interval %d differs", i, j)
			}
		}
		if stats[i].CandidatesDmbr != wst.CandidatesDmbr || stats[i].DnormEvals != wst.DnormEvals ||
			stats[i].IndexEntriesHit != wst.IndexEntriesHit {
			t.Fatalf("query %d: stats differ: %+v vs %+v", i, stats[i], wst)
		}
	}
	// Duplicates are flagged as served-without-compute.
	for _, i := range []int{4, 5, 6} {
		if !stats[i].CacheHit {
			t.Errorf("duplicate query %d not flagged CacheHit", i)
		}
	}
	for _, i := range []int{0, 1, 2, 3} {
		if stats[i].CacheHit {
			t.Errorf("first occurrence %d flagged CacheHit", i)
		}
	}
}

// TestSearchBatchValidation proves one bad member fails the whole batch.
func TestSearchBatchValidation(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(206))
	populateWalks(t, db, 5, rng)
	good := randWalkSeq(rng, 20, 3)

	if _, _, err := db.SearchBatch([]*Sequence{good, nil}, 0.1); err == nil {
		t.Error("nil member accepted")
	}
	if _, _, err := db.SearchBatch([]*Sequence{good, seqFromCoords(1)}, 0.1); err == nil {
		t.Error("wrong-dim member accepted")
	}
	if _, _, err := db.SearchBatch([]*Sequence{good}, -1); err == nil {
		t.Error("negative eps accepted")
	}
	outs, stats, err := db.SearchBatch(nil, 0.1)
	if err != nil || outs != nil || stats != nil {
		t.Errorf("empty batch: %v %v %v", outs, stats, err)
	}
}

// TestSearchBatchCtxCanceled proves a fired context aborts the batch.
func TestSearchBatchCtxCanceled(t *testing.T) {
	db, q := ctxCorpus(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.SearchBatchCtx(ctx, []*Sequence{q}, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSearchParallelCtxCanceled proves the parallel path honors context
// cancellation and deadlines — the serial ctx variants got this in an
// earlier change, but SearchParallel silently ignored its absence.
func TestSearchParallelCtxCanceled(t *testing.T) {
	db, q := ctxCorpus(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.SearchParallelCtx(ctx, q, 0.2, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchParallelCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := db.SearchParallelCtx(dctx, q, 0.2, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchParallelCtx past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchParallelCPUTime is the regression test for the accounting
// bug where SearchParallel reported CPUTime = Total(): with per-worker
// accumulation, a multi-worker run whose workers actually overlap must
// report more CPU than wall clock. Timing noise can hide the overlap on
// a loaded machine, so several trials are allowed; the bug made the
// inequality impossible on every trial.
func TestSearchParallelCPUTime(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs for workers to overlap")
	}
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(207))
	populateWalks(t, db, 300, rng)
	q := randWalkSeq(rng, 60, 3)

	for trial := 0; trial < 5; trial++ {
		_, st, err := db.SearchParallel(q, 0.6, 4)
		if err != nil {
			t.Fatal(err)
		}
		if st.CandidatesDmbr < 8 {
			t.Fatalf("corpus too sparse for the test: %d candidates", st.CandidatesDmbr)
		}
		if st.CPUTime > st.Total() {
			return // overlap observed: accounting is per-worker, not wall
		}
	}
	t.Fatal("CPUTime never exceeded wall clock across 5 multi-worker runs; per-worker accounting lost?")
}

// TestConcurrentCacheInvalidation interleaves writers and cached readers:
// a writer keeps adding exact copies of the query while readers run
// Search and SearchBatch. Any reader observing the completed-adds counter
// at c must find at least c copies — a smaller result would be a stale
// cache hit surviving a write. Run with -race.
func TestConcurrentCacheInvalidation(t *testing.T) {
	t.Run("gdsf/mbr", func(t *testing.T) {
		t.Parallel()
		concurrentInvalidationSoak(t)
	})
}

func concurrentInvalidationSoak(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(208))
	populateWalks(t, db, 10, rng)
	db.SetCache(cache.New(cache.Config{}))
	q := randWalkSeq(rng, 24, 3)

	var added atomic.Int64
	const copies = 12
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < copies; i++ {
			cp, err := NewSequence("copy", append([]geom.Point(nil), q.Points...))
			if err != nil {
				errs <- err
				return
			}
			if _, err := db.Add(cp); err != nil {
				errs <- err
				return
			}
			added.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	reader := func(batch bool) {
		defer wg.Done()
		for added.Load() < copies {
			floor := added.Load() // these adds happened-before this search
			var ms []Match
			var err error
			if batch {
				var outs [][]Match
				outs, _, err = db.SearchBatch([]*Sequence{q}, 0.05)
				if err == nil {
					ms = outs[0]
				}
			} else {
				ms, _, err = db.Search(q, 0.05)
			}
			if err != nil {
				errs <- err
				return
			}
			found := int64(0)
			for _, m := range ms {
				if m.Seq.Label == "copy" {
					found++
				}
			}
			if found < floor {
				errs <- errStale{floor: floor, found: found}
				return
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go reader(false)
		go reader(true)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errStale struct{ floor, found int64 }

func (e errStale) Error() string {
	return fmt.Sprintf("stale cache hit: %d copies found, %d adds completed before the search",
		e.found, e.floor)
}

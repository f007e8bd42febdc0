package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
)

// SearchBatch answers several range queries with one pass over the
// database. Results and statistics for each query are identical to what
// Search would return for it alone; the batch saves work three ways:
// duplicate queries are computed once, cached queries (SetCache) are
// answered without touching the index, and index probes for identical
// query MBRs are merged across the remaining queries, so the R*-tree is
// descended once per distinct rectangle instead of once per query. The
// whole batch runs under a single read lock, so every answer reflects
// the same corpus snapshot.
func (db *Database) SearchBatch(qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	return db.SearchBatchCtx(context.Background(), qs, eps)
}

// batchQuery is the per-unique-query state threaded through the batch
// phases.
type batchQuery struct {
	q     *Sequence
	ref   cacheRef
	qseg  *Segmented
	cand  map[uint32]bool
	st    SearchStats
	out   []Match
	done  bool // answered from cache
	first int  // index in qs of the first occurrence (for error messages)
}

// SearchBatchCtx is SearchBatch honoring a context deadline or
// cancellation with the same granularity as SearchCtx: between phases,
// per index probe, and every cancelCheckEvery phase-3 candidates. One
// query failing validation fails the whole batch before any work runs —
// a batch is all-or-nothing, so callers never have to pair partial
// outputs with their inputs.
func (db *Database) SearchBatchCtx(ctx context.Context, qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	if err := checkEps(eps); err != nil {
		return nil, nil, err
	}
	if len(qs) == 0 {
		return nil, nil, nil
	}
	for i, q := range qs {
		if q == nil {
			return nil, nil, fmt.Errorf("core: batch query %d is nil", i)
		}
		if err := q.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		if q.Dim() != db.opts.Dim {
			return nil, nil, fmt.Errorf("core: batch query %d dim %d, database dim %d: %w",
				i, q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
		}
	}

	tr := obs.FromContext(ctx)
	t0 := time.Now()

	// Dedup by fingerprint: identical queries collapse to one slot. The
	// fingerprint doubles as the cache key, so the write-sequence
	// snapshot below covers exactly the queries that will be computed.
	c := db.qcache.Load()
	slot := make(map[cache.Key]int, len(qs)) // fingerprint → index into uniq
	assign := make([]int, len(qs))           // qs index → uniq index
	uniq := make([]*batchQuery, 0, len(qs))
	for i, q := range qs {
		key := queryFingerprint(fpKindRange, MetricD{}, q, eps, db.opts.Partition, 0)
		j, ok := slot[key]
		if !ok {
			j = len(uniq)
			slot[key] = j
			bq := &batchQuery{q: q, first: i}
			if c != nil {
				bq.ref = cacheRef{
					c:      c,
					key:    key,
					seq:    c.Seq(),
					region: cache.Region{Rect: geom.BoundingRect(q.Points), Radius: eps},
				}
			}
			uniq = append(uniq, bq)
		}
		assign[i] = j
	}

	// Cache pass: answer what we can before taking the lock.
	pending := 0
	for _, bq := range uniq {
		if ms, cst, ok := bq.ref.getRange(); ok {
			bq.out, bq.st, bq.done = ms, cst, true
			continue
		}
		pending++
	}

	if pending > 0 {
		if err := db.searchBatchLocked(ctx, uniq, eps); err != nil {
			return nil, nil, err
		}
	}
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "batch", time.Since(t0),
			obs.Int("queries", len(qs)),
			obs.Int("unique", len(uniq)),
			obs.Int("cache_hits", len(uniq)-pending))
	}

	outs := make([][]Match, len(qs))
	stats := make([]SearchStats, len(qs))
	seen := make([]bool, len(uniq))
	for i, j := range assign {
		bq := uniq[j]
		outs[i] = bq.out
		stats[i] = bq.st
		if seen[j] {
			// A duplicate is served without compute, like a cache hit;
			// the stats still describe the run that produced the answer.
			stats[i].CacheHit = true
		}
		seen[j] = true
	}
	return outs, stats, nil
}

// searchBatchLocked computes every not-yet-answered query in uniq under
// one read lock, merging phase-2 probes for identical query MBRs.
func (db *Database) searchBatchLocked(ctx context.Context, uniq []*batchQuery, eps float64) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	if err := searchCanceled(ctx); err != nil {
		return err
	}

	// Phase 1, per query: segmentation is query-local, nothing to merge.
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		t0 := time.Now()
		qseg, err := NewSegmented(bq.q, db.opts.Partition)
		if err != nil {
			return fmt.Errorf("core: batch query %d: %w", bq.first, err)
		}
		bq.qseg = qseg
		bq.st.TotalSequences = db.live
		bq.st.QueryMBRs = len(qseg.MBRs)
		bq.st.Phase1 = time.Since(t0)
		bq.cand = make(map[uint32]bool)
	}

	// Phase 2, merged: group identical query MBRs across the batch and
	// descend the index once per distinct rectangle. Each owner's stats
	// are charged the probe's full cost — the answer each query receives
	// is exactly what a solo search would have paid for, so reuse shows
	// up in the batch's wall clock, not as understated per-query stats.
	type probe struct {
		rect   geom.Rect
		owners []*batchQuery
	}
	probeAt := make(map[cache.Key]int)
	var probes []probe
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		for _, qm := range bq.qseg.MBRs {
			f := newFP()
			for _, v := range qm.Rect.L {
				f.float(v)
			}
			for _, v := range qm.Rect.H {
				f.float(v)
			}
			k := f.key()
			j, ok := probeAt[k]
			if !ok {
				j = len(probes)
				probeAt[k] = j
				probes = append(probes, probe{rect: qm.Rect})
			}
			probes[j].owners = append(probes[j].owners, bq)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, pr := range probes {
		if err := searchCanceled(ctx); err != nil {
			return err
		}
		t1 := time.Now()
		refs, err := db.tree.AppendWithinDist(pr.rect, eps, sc.refs[:0])
		if err != nil {
			return err
		}
		sc.refs = refs
		entries := len(refs)
		hits := appendSeqIDs(sc.ids[:0], refs)
		sc.ids = hits
		d := time.Since(t1)
		for _, bq := range pr.owners {
			bq.st.IndexEntriesHit += entries
			bq.st.Phase2 += d
			for _, id := range hits {
				bq.cand[id] = true
			}
		}
	}

	// Phase 3, per query: refinement depends on the query's own
	// segmentation, so there is nothing to share beyond the corpus pages
	// already warmed by neighbors in the batch.
	checked := 0
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		t2 := time.Now()
		bq.st.CandidatesDmbr = len(bq.cand)
		ids := make([]uint32, 0, len(bq.cand))
		for id := range bq.cand {
			ids = append(ids, id)
		}
		sortUint32s(ids)
		for _, id := range ids {
			if checked%cancelCheckEvery == 0 {
				if err := searchCanceled(ctx); err != nil {
					return err
				}
			}
			checked++
			m, hit, evals, qpruned := phase3FlatQ(bq.qseg.MBRs, &sc.p3, db.seqs[id], bq.q.Len(), eps, db.opts.QuantizedMBR)
			m.SeqID = id
			bq.st.DnormEvals += evals
			bq.st.QuantPruned += qpruned
			if hit {
				bq.out = append(bq.out, m)
			}
		}
		bq.st.MatchesDnorm = len(bq.out)
		bq.st.Phase3 = time.Since(t2)
		bq.st.CPUTime = bq.st.Total()
		db.met.RecordSearch(bq.st)
		bq.ref.putRange(bq.out, bq.st)
		bq.done = true
	}
	return nil
}

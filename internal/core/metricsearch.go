package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Metric search: range and kNN queries whose result sets are defined by
// an exact metric distance (D or DTW) instead of the Dnorm filter bound.
// Each metric pairs its exact distance with an index-level lower bound —
// MetricD rides the stock Dmbr/Dnorm pipeline (Lemmas 1–3), MetricDTW
// the Sakoe–Chiba envelope bounds of dtwlb.go — so both are served
// through the R*-tree with no false dismissals: the indexed result is
// definitionally identical to an exhaustive scan under the same metric
// (see SequentialSearchMetric and the equivalence tests).

// SearchMetric returns every stored sequence whose exact metric distance
// to q is at most eps, ordered by ascending sequence id. Under MetricD
// the result is the Dnorm-filtered candidate set refined to exact
// distances; under MetricDTW candidates are pruned with the envelope
// index bound and LB_Keogh before the exact dynamic program. A nil
// metric means MetricD.
func (db *Database) SearchMetric(q *Sequence, eps float64, m Metric) ([]MetricMatch, SearchStats, error) {
	return db.SearchMetricCtx(context.Background(), q, eps, m)
}

// SearchMetricCtx is SearchMetric honoring a context deadline or
// cancellation, with SearchCtx's check granularity and error contract.
func (db *Database) SearchMetricCtx(ctx context.Context, q *Sequence, eps float64, m Metric) ([]MetricMatch, SearchStats, error) {
	var st SearchStats
	if m == nil {
		m = MetricD{}
	}
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	if q.Dim() != db.opts.Dim {
		return nil, st, fmt.Errorf("core: query dim %d, database dim %d: %w",
			q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	if err := checkEps(eps); err != nil {
		return nil, st, err
	}
	ref := db.metricRangeRef(q, eps, m)
	tr := obs.FromContext(ctx)
	if ms, cst, ok := ref.getMetricRange(); ok {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
		}
		return ms, cst, nil
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, st, errors.New("core: database closed")
	}
	if err := searchCanceled(ctx); err != nil {
		return nil, st, err
	}
	st.TotalSequences = db.live

	sc := getScratch()
	defer putScratch(sc)
	sc.fillQueryFlat(q)

	var out []MetricMatch
	var err error
	switch mt := m.(type) {
	case MetricDTW:
		out, err = db.dtwRange(ctx, q, eps, mt, sc, &st, tr)
	default:
		out, err = db.dRange(ctx, q, eps, sc, &st, tr)
	}
	if err != nil {
		return nil, st, err
	}
	st.CPUTime = st.Total()
	db.met.RecordSearch(st)
	if _, ok := m.(MetricDTW); ok {
		db.met.RecordDTW(false, st.CandidatesDmbr, st.DTWEnvPruned, st.DTWKeoghPruned, st.DTWEvals)
	}
	ref.putMetricRange(out, st)
	return out, st, nil
}

// dRange is the MetricD range body: the stock three phases, then each
// Dnorm survivor refined to its exact distance D with the flat alignment
// kernel (cutoff +Inf so every distance is exact, bit-identical to the
// scan path). Dnorm ≤ D (Lemma 3) guarantees no sequence with D ≤ ε is
// missing from the phase-3 survivors.
func (db *Database) dRange(ctx context.Context, q *Sequence, eps float64, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]MetricMatch, error) {
	matches, err := db.rangePhases(ctx, q, eps, sc, st, tr)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	dim := q.Dim()
	var out []MetricMatch
	for ci := range matches {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		g := db.seqs[matches[ci].SeqID]
		dist := sc.distanceSeq(MetricD{}, g, dim, math.Inf(1))
		if dist <= eps {
			out = append(out, MetricMatch{SeqID: matches[ci].SeqID, Seq: g.Seq, Dist: dist})
		}
	}
	exact := time.Since(t3)
	st.Phase3 += exact
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "exact-refine", exact,
			obs.Int("candidates_in", len(matches)),
			obs.Int("matches", len(out)),
			obs.Float("pruned_frac", prunedFrac(len(matches), len(out))))
	}
	return out, nil
}

// dtwRange is the MetricDTW range body. Phase 1 builds the query's
// Sakoe–Chiba envelopes; phase 2 probes the R*-tree with the full query
// bounding rect at ε — valid because every envelope rect is contained in
// the query rect, so MinDist(qRect, MBR) ≤ B1 ≤ DTW and no sequence
// within ε can be missed; phase 3 runs the pruning ladder per candidate:
// the envelope-vs-MBR index bound, then LB_Keogh over raw points, then
// the early-abandoning exact dynamic program. Every bound underestimates
// the normalized DTW distance (see dtwlb.go), so each dismissal is
// provably correct and the survivors are exactly the ε-ball.
func (db *Database) dtwRange(ctx context.Context, q *Sequence, eps float64, mt MetricDTW, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]MetricMatch, error) {
	d := q.Dim()
	n := q.Len()
	ds := &sc.dtw

	// Phase 1: envelope construction (the DTW analogue of partitioning —
	// the query-side structure all pruning reads).
	t0 := time.Now()
	ds.resetEnv()
	ds.buildEnvelopes(sc.qflat, n, d, mt.Window)
	st.QueryMBRs = 1
	st.Phase1 = time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "envelope", st.Phase1,
			obs.Int("positions", n), obs.Int("window", mt.Window))
	}

	// Phase 2: coarse index filter with the full query bounding rect (the
	// suffix envelope at position 0).
	t1 := time.Now()
	qrect := geom.Rect{L: ds.sufLo[:d], H: ds.sufHi[:d]}
	sc.refs = sc.refs[:0]
	var err error
	sc.refs, err = db.tree.AppendWithinDist(qrect, eps, sc.refs)
	if err != nil {
		return nil, err
	}
	st.IndexEntriesHit = len(sc.refs)
	sc.ids = appendSeqIDs(sc.ids[:0], sc.refs)
	ids := sortDedupUint32(sc.ids)
	st.CandidatesDmbr = len(ids)
	st.Phase2 = time.Since(t1)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "filter", st.Phase2,
			obs.Int("candidates_in", st.TotalSequences),
			obs.Int("index_entries", st.IndexEntriesHit),
			obs.Int("candidates_out", st.CandidatesDmbr),
			obs.Float("pruned_frac", prunedFrac(st.TotalSequences, st.CandidatesDmbr)))
	}

	// Phase 3: the pruning ladder, cheapest bound first.
	t2 := time.Now()
	var out []MetricMatch
	for ci, id := range ids {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		g := db.seqs[id]
		if ds.dtwIndexLB(g) > eps {
			st.DTWEnvPruned++
			continue
		}
		if ds.lbKeogh(g, eps) > eps {
			st.DTWKeoghPruned++
			continue
		}
		st.DTWEvals++
		dist := sc.distanceSeq(mt, g, d, eps)
		if dist <= eps {
			out = append(out, MetricMatch{SeqID: id, Seq: g.Seq, Dist: dist})
		}
	}
	st.MatchesDnorm = len(out)
	st.Phase3 = time.Since(t2)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "dtw-refine", st.Phase3,
			obs.Int("candidates_in", st.CandidatesDmbr),
			obs.Int("env_pruned", st.DTWEnvPruned),
			obs.Int("keogh_pruned", st.DTWKeoghPruned),
			obs.Int("dtw_evals", st.DTWEvals),
			obs.Int("matches", len(out)),
			obs.Float("pruned_frac", prunedFrac(st.CandidatesDmbr, st.DTWEvals)))
	}
	return out, nil
}

// SearchKNNMetric returns the k stored sequences nearest to q under the
// metric, in nondecreasing distance order. Under MetricD this is exactly
// SearchKNN; under MetricDTW candidates are ranked by the envelope index
// bound and refined best-first with LB_Keogh and early-abandoning exact
// dynamic programs, stopping when the next lower bound exceeds the k-th
// best exact distance. Sequences the window cannot align with the query
// are never results. A nil metric means MetricD.
func (db *Database) SearchKNNMetric(q *Sequence, k int, m Metric) ([]KNNResult, error) {
	return db.SearchKNNMetricBoundedCtx(context.Background(), q, k, math.Inf(1), m)
}

// SearchKNNMetricCtx is SearchKNNMetric honoring a context deadline or
// cancellation.
func (db *Database) SearchKNNMetricCtx(ctx context.Context, q *Sequence, k int, m Metric) ([]KNNResult, error) {
	return db.SearchKNNMetricBoundedCtx(ctx, q, k, math.Inf(1), m)
}

// SearchKNNMetricBoundedCtx is SearchKNNMetricCtx restricted to
// sequences with metric distance ≤ bound, with SearchKNNBounded's
// contract: a scatter-gather caller already holding k results at
// distance w passes bound=w so later shards prune with it, and no
// sequence it skips can re-enter the global top k. Only unbounded
// queries are cached. For DTW results the Offset field is always 0 —
// warping has no single alignment offset.
func (db *Database) SearchKNNMetricBoundedCtx(ctx context.Context, q *Sequence, k int, bound float64, m Metric) ([]KNNResult, error) {
	if m == nil {
		m = MetricD{}
	}
	mt, ok := m.(MetricDTW)
	if !ok {
		return db.SearchKNNBoundedCtx(ctx, q, k, bound)
	}
	t0 := time.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Dim() != db.opts.Dim {
		return nil, fmt.Errorf("core: query dim %d, database dim %d: %w",
			q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	if k <= 0 {
		return nil, nil
	}
	var ref cacheRef
	tr := obs.FromContext(ctx)
	if math.IsInf(bound, 1) {
		ref = db.metricKNNRef(q, k, m)
		if rs, ok := ref.getKNN(); ok {
			if tr != nil {
				tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
			}
			return rs, nil
		}
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}

	sc := getScratch()
	defer putScratch(sc)
	sc.fillQueryFlat(q)
	d := q.Dim()
	ds := &sc.dtw
	ds.resetEnv()
	ds.buildEnvelopes(sc.qflat, q.Len(), d, mt.Window)

	// Envelope index bound for every live sequence; sequences the window
	// cannot align (length difference beyond it) are dismissed here.
	sc.heap = sc.heap[:0]
	envPruned := 0
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		if id%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		lb := ds.dtwIndexLB(g)
		if math.IsInf(lb, 1) {
			envPruned++
			continue
		}
		sc.heap = pushCand(sc.heap, knnCand{id: uint32(id), bound: lb})
	}

	// Refine in bound order; LB_Keogh guards each exact dynamic program.
	candidates := len(sc.heap)
	keoghPruned := 0
	refined := 0
	var out []KNNResult
	worst := bound
	for len(sc.heap) > 0 {
		if refined%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		var c knnCand
		c, sc.heap = popCand(sc.heap)
		if c.bound > worst {
			envPruned++ // this candidate, plus the whole remaining heap below
			break
		}
		g := db.seqs[c.id]
		if ds.lbKeogh(g, worst) > worst {
			keoghPruned++
			continue
		}
		dist := sc.distanceSeq(mt, g, d, worst)
		refined++
		if dist > bound {
			continue
		}
		out = insertKNN(out, KNNResult{SeqID: c.id, Seq: g.Seq, Dist: dist}, k)
		if len(out) == k && out[len(out)-1].Dist < worst {
			worst = out[len(out)-1].Dist
		}
	}
	envPruned += len(sc.heap) // dismissed by the index bound at the break
	took := time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "dtw-knn", took,
			obs.Int("k", k),
			obs.Int("candidates", candidates),
			obs.Int("keogh_pruned", keoghPruned),
			obs.Int("refined", refined),
			obs.Float("pruned_frac", prunedFrac(candidates, refined)))
	}
	db.met.RecordKNN(took, refined, candidates-refined)
	db.met.RecordDTW(true, candidates, envPruned, keoghPruned, refined)
	ref.putKNN(out, k, took)
	return out, nil
}

// SequentialSearchMetric is the exhaustive baseline for metric range
// search: every live sequence's exact metric distance, no index, no
// lower bounds, no early abandoning. It computes each distance with the
// same kernels and arithmetic order as the indexed path, so the indexed
// result must be byte-identical — the no-false-dismissal property is
// directly testable against it.
func (db *Database) SequentialSearchMetric(q *Sequence, eps float64, m Metric) ([]MetricMatch, error) {
	if m == nil {
		m = MetricD{}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Dim() != db.opts.Dim {
		return nil, fmt.Errorf("core: query dim %d, database dim %d: %w",
			q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.fillQueryFlat(q)
	dim := q.Dim()
	var out []MetricMatch
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		dist := sc.distanceSeq(m, g, dim, math.Inf(1))
		if dist <= eps {
			out = append(out, MetricMatch{SeqID: uint32(id), Seq: g.Seq, Dist: dist})
		}
	}
	return out, nil
}

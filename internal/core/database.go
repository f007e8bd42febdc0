package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/rtree"
)

// Options configures a Database.
type Options struct {
	// Dim is the dimensionality of all stored sequences. Required.
	Dim int
	// Partition tunes the MCOST segmentation (zero value → paper defaults).
	Partition PartitionConfig
	// PageSize and PoolPages configure the index's page store
	// (0 → pager defaults).
	PageSize, PoolPages int
	// Path backs the index with a file; empty runs in memory.
	Path string
	// MaxEntries overrides the R*-tree fanout (0 → derive from page size).
	MaxEntries int
	// QuantizedMBR turns on the quantized-MBR prefilter in phase 3 of
	// range searches: each (query MBR, candidate) pair is first screened
	// against the candidate's float32 outward-rounded bounds (half the
	// memory traffic of the exact arrays), and the exact float64 Dnorm
	// machinery runs only for pairs the screen cannot dismiss. Quantized
	// distances are conservative lower bounds, so results are
	// bit-identical to the exact pipeline (no false dismissals); only
	// SearchStats accounting (DnormEvals, QuantPruned) differs.
	QuantizedMBR bool
}

// Database stores segmented multidimensional sequences and answers
// similarity queries with the paper's three-phase algorithm over an
// R*-tree of partition MBRs.
type Database struct {
	mu   sync.RWMutex
	opts Options
	pg   *pager.Pager
	tree *rtree.Tree
	seqs []*Segmented // seqs[id] — ids are dense, assigned by Add; nil = removed
	live int          // number of non-nil entries in seqs
	met  *Metrics     // nil until SetMetrics; all methods no-op on nil

	// epoch counts completed writes (the corpus-version observable);
	// qcache (nil until SetCache) holds query results tagged with their
	// compute cost and geometric region. Every write notifies it with
	// the written sequence's MBR so only entries the write could have
	// affected are invalidated (see internal/cache).
	epoch  atomic.Uint64
	qcache atomic.Pointer[cache.Cache]
}

// ErrUnknownSequence is returned by Remove for absent or already-removed
// ids.
var ErrUnknownSequence = errors.New("core: unknown sequence id")

// NewDatabase creates an empty database.
func NewDatabase(opts Options) (*Database, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("core: invalid dimension %d", opts.Dim)
	}
	if opts.Partition == (PartitionConfig{}) {
		opts.Partition = DefaultPartitionConfig()
	}
	if err := opts.Partition.validate(); err != nil {
		return nil, err
	}
	pg, err := pager.Open(pager.Options{
		PageSize:  opts.PageSize,
		PoolPages: opts.PoolPages,
		Path:      opts.Path,
	})
	if err != nil {
		return nil, err
	}
	tree, err := rtree.New(rtree.Options{Dim: opts.Dim, Pager: pg, MaxEntries: opts.MaxEntries})
	if err != nil {
		pg.Close()
		return nil, err
	}
	return &Database{opts: opts, pg: pg, tree: tree}, nil
}

// OpenDatabase reattaches to an existing index file created by a database
// with the same options, restoring the given sequences (in their original
// Add order). Partitioning is deterministic, so each sequence's MBRs are
// recomputed rather than stored; the index is validated against them
// (total entry count must match) instead of being rebuilt. Options.Path is
// required and must point at the previously flushed index.
func OpenDatabase(opts Options, seqs []*Sequence) (*Database, error) {
	db, err := openIndexed(opts)
	if err != nil {
		return nil, err
	}
	opts = db.opts // defaults applied
	total := 0
	for i, s := range seqs {
		if err := s.Validate(); err != nil {
			db.pg.Close()
			return nil, fmt.Errorf("core: sequence %d: %w", i, err)
		}
		if s.Dim() != opts.Dim {
			db.pg.Close()
			return nil, fmt.Errorf("core: sequence %d dim %d, want %d", i, s.Dim(), opts.Dim)
		}
		g, err := NewSegmented(s, opts.Partition)
		if err != nil {
			db.pg.Close()
			return nil, err
		}
		s.ID = uint32(i)
		db.seqs = append(db.seqs, g)
		db.live++
		total += len(g.MBRs)
	}
	if total != db.tree.Len() {
		db.pg.Close()
		return nil, fmt.Errorf("core: index holds %d entries but sequences partition into %d (stale index or different partition config?)",
			db.tree.Len(), total)
	}
	return db, nil
}

// OpenDatabaseSegmented is OpenDatabase for an already-partitioned
// corpus — the v2 store's restart path, where the segment file supplies
// Segmenteds by aliasing and the index pages already exist on disk, so
// neither partitioning nor index rebuild runs. The same staleness check
// applies: the index must hold exactly the corpus's MBR count.
func OpenDatabaseSegmented(opts Options, segs []*Segmented) (*Database, error) {
	db, err := openIndexed(opts)
	if err != nil {
		return nil, err
	}
	total := 0
	for i, g := range segs {
		if g == nil || g.Seq == nil {
			db.pg.Close()
			return nil, fmt.Errorf("core: nil segment %d", i)
		}
		if g.Seq.Dim() != db.opts.Dim {
			db.pg.Close()
			return nil, fmt.Errorf("core: sequence %d dim %d, want %d", i, g.Seq.Dim(), db.opts.Dim)
		}
		g.Seq.ID = uint32(i)
		db.seqs = append(db.seqs, g)
		db.live++
		total += len(g.MBRs)
	}
	if total != db.tree.Len() {
		db.pg.Close()
		return nil, fmt.Errorf("core: index holds %d entries but corpus has %d MBRs (stale index?)",
			db.tree.Len(), total)
	}
	return db, nil
}

// openIndexed opens the pager and existing R*-tree for a reattach,
// leaving the sequence directory empty for the caller to fill.
func openIndexed(opts Options) (*Database, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("core: invalid dimension %d", opts.Dim)
	}
	if opts.Path == "" {
		return nil, errors.New("core: OpenDatabase requires Options.Path")
	}
	if opts.Partition == (PartitionConfig{}) {
		opts.Partition = DefaultPartitionConfig()
	}
	if err := opts.Partition.validate(); err != nil {
		return nil, err
	}
	pg, err := pager.Open(pager.Options{
		PageSize:  opts.PageSize,
		PoolPages: opts.PoolPages,
		Path:      opts.Path,
	})
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(rtree.Options{Pager: pg, MaxEntries: opts.MaxEntries})
	if err != nil {
		pg.Close()
		return nil, err
	}
	if tree.Dim() != opts.Dim {
		pg.Close()
		return nil, fmt.Errorf("core: index dim %d, options dim %d", tree.Dim(), opts.Dim)
	}
	return &Database{opts: opts, pg: pg, tree: tree}, nil
}

// Flush persists all dirty index pages and metadata to the backing file
// (a no-op for in-memory databases). After a Flush, OpenDatabase can
// reattach to the file.
func (db *Database) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	return db.tree.Flush()
}

// Close releases the index storage.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil
	}
	err := db.tree.Flush()
	if cerr := db.pg.Close(); err == nil {
		err = cerr
	}
	db.pg = nil
	return err
}

// Add partitions the sequence, indexes its MBRs, and returns the assigned
// sequence id. Partitioning runs before the write lock is taken, so
// concurrent readers are only excluded for the index insertions
// themselves. The database keeps a reference to s; callers must not
// mutate it afterwards.
func (db *Database) Add(s *Sequence) (uint32, error) {
	t0 := time.Now()
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if s.Dim() != db.opts.Dim {
		return 0, fmt.Errorf("core: sequence dim %d, database dim %d: %w",
			s.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	g, err := NewSegmented(s, db.opts.Partition)
	if err != nil {
		return 0, err
	}
	id, err := db.AddSegmented(g)
	if err != nil {
		return 0, err
	}
	db.met.RecordAdd(time.Since(t0))
	return id, nil
}

// AddSegmented indexes a pre-partitioned sequence and returns its
// assigned id. It is the mutation half of Add, split out so callers that
// already hold a Segmented — the transaction layer folding its delta, or
// AddAll partitioning a batch outside the lock — pay only for the index
// insertions under the write lock. The partitioning must have been
// produced with the database's PartitionConfig. On an index failure the
// already-inserted entries are rolled back and the database is unchanged.
func (db *Database) AddSegmented(g *Segmented) (uint32, error) {
	if g.Seq.Dim() != db.opts.Dim {
		return 0, fmt.Errorf("core: sequence dim %d, database dim %d: %w",
			g.Seq.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return 0, errors.New("core: database closed")
	}
	id, err := db.addSegmentedLocked(g)
	if err != nil {
		return 0, err
	}
	db.notifyWrite(g.Bounds())
	db.met.SetShape(db.live, db.tree.Len())
	return id, nil
}

// addSegmentedLocked inserts g's entries and appends it to the directory,
// rolling back the inserted entries on error. Caller holds db.mu.
func (db *Database) addSegmentedLocked(g *Segmented) (uint32, error) {
	id := uint32(len(db.seqs))
	for j, m := range g.MBRs {
		if err := db.tree.Insert(m.Rect, rtree.PackRef(id, uint32(j))); err != nil {
			for k := 0; k < j; k++ {
				db.tree.Delete(g.MBRs[k].Rect, rtree.PackRef(id, uint32(k)))
			}
			return 0, err
		}
	}
	g.Seq.ID = id
	db.seqs = append(db.seqs, g)
	db.live++
	return id, nil
}

// AddTombstone reserves and returns the next sequence id as a dead slot:
// no sequence, no index entries, lookups yield nil — exactly the state
// Remove leaves behind. The transaction layer (internal/txn) uses it when
// folding into a non-empty base, for a sequence that was added and
// removed within one delta, so the ids after it keep their position. An
// empty database takes tombstones in bulk as nil slots of
// AddAllSegmented.
func (db *Database) AddTombstone() (uint32, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return 0, errors.New("core: database closed")
	}
	id := uint32(len(db.seqs))
	db.seqs = append(db.seqs, nil)
	return id, nil
}

// DirLen returns the length of the sequence directory — the id the next
// Add would assign. Unlike Len it counts removed slots, since removal
// never frees an id.
func (db *Database) DirLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.seqs)
}

// Remove deletes a sequence and all its index entries. The id is not
// reused; looking it up afterwards yields nil.
func (db *Database) Remove(id uint32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	if int(id) >= len(db.seqs) || db.seqs[id] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSequence, id)
	}
	g := db.seqs[id]
	for j, m := range g.MBRs {
		if err := db.tree.Delete(m.Rect, rtree.PackRef(id, uint32(j))); err != nil {
			return fmt.Errorf("core: removing sequence %d, MBR %d: %w", id, j, err)
		}
	}
	db.seqs[id] = nil
	db.live--
	db.notifyWrite(g.Bounds())
	db.met.SetShape(db.live, db.tree.Len())
	return nil
}

// Len returns the number of stored (non-removed) sequences.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.live
}

// NumMBRs returns the total number of indexed partition MBRs.
func (db *Database) NumMBRs() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Len()
}

// CheckIndex audits the database: the R*-tree's structural invariants
// (rtree.CheckInvariants) hold, the live count matches the directory's
// non-nil slots, and the index holds exactly their MBRs. It is meant for
// tests and debugging tools; a healthy database always returns nil.
func (db *Database) CheckIndex() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	if err := db.tree.CheckInvariants(); err != nil {
		return err
	}
	live, total := 0, 0
	for _, g := range db.seqs {
		if g != nil {
			live++
			total += len(g.MBRs)
		}
	}
	if live != db.live {
		return fmt.Errorf("core: live count %d but %d non-nil directory slots", db.live, live)
	}
	if total != db.tree.Len() {
		return fmt.Errorf("core: index holds %d entries but live sequences have %d MBRs", db.tree.Len(), total)
	}
	return nil
}

// Segmented returns the stored (sequence, partitioning) pair for id, or
// nil when the id is unknown.
func (db *Database) Segmented(id uint32) *Segmented {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if int(id) >= len(db.seqs) {
		return nil
	}
	return db.seqs[id]
}

// Sequences returns the live (non-removed) sequences in id order.
func (db *Database) Sequences() []*Sequence {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Sequence, 0, db.live)
	for _, g := range db.seqs {
		if g != nil {
			out = append(out, g.Seq)
		}
	}
	return out
}

// LiveSegments returns the live (non-removed) segments in id order — the
// already-partitioned columnar form the v2 segment store serializes
// directly, skipping the re-partitioning a Sequences round trip would
// force on reload. Callers must treat the segments as read-only: they
// are the database's own storage, not copies.
func (db *Database) LiveSegments() []*Segmented {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Segmented, 0, db.live)
	for _, g := range db.seqs {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// IndexHeight returns the height of the R*-tree over all partition MBRs.
func (db *Database) IndexHeight() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Height()
}

// IndexFanout returns the R*-tree node capacity in force.
func (db *Database) IndexFanout() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.MaxEntries()
}

// PartitionConfig returns the partitioning settings in force.
func (db *Database) PartitionConfig() PartitionConfig { return db.opts.Partition }

// Dim returns the dimensionality every stored sequence must have.
func (db *Database) Dim() int { return db.opts.Dim }

// Shards returns the number of independent index partitions — always 1
// for a single-node database. It exists so *Database satisfies the same
// serving interface as the sharded implementation (internal/shard).
func (db *Database) Shards() int { return 1 }

// PagerStats exposes the index page-access counters.
func (db *Database) PagerStats() pager.Stats { return db.pg.Stats() }

// ResetPagerStats zeroes the index page-access counters.
func (db *Database) ResetPagerStats() { db.pg.ResetStats() }

// Match is one sequence surviving phase 3, with its approximated solution
// interval.
type Match struct {
	SeqID uint32    // database id of the matching sequence
	Seq   *Sequence // the matching sequence itself
	// MinDnorm is the smallest Dnorm over all (query MBR, data MBR)
	// pairs — a lower bound on D(Q,S), usable for ranking.
	MinDnorm float64
	// Interval approximates the solution interval: the union of the point
	// ranges involved in every qualifying Dnorm computation.
	Interval IntervalSet
}

// SearchStats reports what each phase of one Search did.
type SearchStats struct {
	QueryMBRs       int           // phase 1: partitions of the query
	TotalSequences  int           // database size at query time
	CandidatesDmbr  int           // |ASmbr| after phase 2
	MatchesDnorm    int           // |ASnorm| after phase 3
	IndexEntriesHit int           // leaf entries the index search visited
	DnormEvals      int           // Dnorm computations in phase 3
	Phase1          time.Duration // query partitioning
	Phase2          time.Duration // index pruning by Dmbr
	Phase3          time.Duration // Dnorm pruning + interval assembly
	// CPUTime is the summed duration of every phase execution behind this
	// stats value. For a serial single-node search it equals Total(); for
	// a parallel search it is Phase1+Phase2 plus the summed per-worker
	// phase-3 compute (so it exceeds Total() whenever the workers
	// actually overlapped); for a merged scatter-gather result it sums
	// across shards while Phase1–3 keep the slowest shard's value (phases
	// overlap in wall-clock; see shard.mergeStats). CPUTime/Total() reads
	// as the query's effective parallelism.
	CPUTime time.Duration
	// CacheHit is true when this result was served from the query cache
	// (SetCache) instead of being computed. The counters and phase
	// timings are then those of the run that originally produced the
	// entry — "the cost this answer represents", not the cost of this
	// call.
	CacheHit bool
	// Partial is true when this result was assembled from fewer shards
	// than exist — some shard missed its deadline or failed and the
	// scatter was configured to degrade instead of erroring. A partial
	// answer set is a subset of the complete one (the answered shards'
	// results are exact), so the paper's no-false-dismissal guarantee
	// holds only for the corpus slice the answered shards own. Always
	// false for a single-node search.
	Partial bool
	// ShardsAnswered is the number of shards whose results this stats
	// value merges. It equals the deployment's shard count when the
	// answer is complete, and it is 0 when the stats did not pass
	// through a scatter merge (plain single-node search).
	ShardsAnswered int
	// DTWEnvPruned counts candidates the envelope-vs-MBR lower bound
	// dismissed during a MetricDTW search, before any point data was
	// read. Zero for non-DTW searches.
	DTWEnvPruned int
	// DTWKeoghPruned counts envelope survivors the LB_Keogh refinement
	// bound dismissed before the exact dynamic program.
	DTWKeoghPruned int
	// DTWEvals counts exact DTW dynamic programs run (including early
	// abandoned ones).
	DTWEvals int
	// QuantPruned counts (query MBR, candidate) pairs the quantized-MBR
	// prefilter dismissed in phase 3 before any exact float64 bound was
	// read (Options.QuantizedMBR). Pruned pairs contribute no DnormEvals.
	// Zero when quantization is off.
	QuantPruned int
}

// Total returns the end-to-end wall-clock search duration. For merged
// scatter-gather stats each phase is the slowest shard's, so Total is an
// upper bound on observed wall-clock, not the cross-shard compute sum —
// that is CPUTime.
func (st SearchStats) Total() time.Duration { return st.Phase1 + st.Phase2 + st.Phase3 }

// Search runs the paper's SIMILARITY_SEARCH algorithm: partition the query
// (phase 1), prune with Dmbr through the R*-tree (phase 2), then prune
// with Dnorm and assemble solution intervals (phase 3). Results are
// ordered by ascending sequence id.
func (db *Database) Search(q *Sequence, eps float64) ([]Match, SearchStats, error) {
	return db.SearchCtx(context.Background(), q, eps)
}

// SearchCtx is Search honoring a context deadline or cancellation: the
// search checks ctx between phases and periodically inside the phase 2
// and phase 3 loops, abandoning the query with ctx's error as soon as a
// check fires. A canceled search records nothing into the metrics
// registry. The check granularity is a batch of candidates, so
// cancellation latency is bounded by one batch of metric work, not by the
// whole query.
func (db *Database) SearchCtx(ctx context.Context, q *Sequence, eps float64) ([]Match, SearchStats, error) {
	var st SearchStats
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
	// Cache lookup. The write-sequence counter is snapshotted here,
	// before the read lock: any write that lands after this point moves
	// the counter past the snapshot, so the entry we might store below
	// can never be served stale.
	ref := db.rangeRef(q, eps)
	tr := obs.FromContext(ctx)
	if ms, cst, ok := ref.getRange(); ok {
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

	// The whole query runs out of one pooled scratch: phase 1 segments
	// into its columnar arrays, phase 2 accumulates index hits into its
	// ref buffer, phase 3 reuses its Dnorm arrays per candidate. On a
	// warmed pool the only allocations left are the ones owned by the
	// result itself (match slice, intervals) — a no-match query allocates
	// nothing (enforced by TestHotpathAllocs).
	sc := getScratch()
	defer putScratch(sc)

	out, err := db.rangePhases(ctx, q, eps, sc, &st, tr)
	if err != nil {
		return nil, st, err
	}
	st.CPUTime = st.Total()
	db.met.RecordSearch(st)
	ref.putRange(out, st)
	return out, st, nil
}

// rangePhases runs the three phases of SIMILARITY_SEARCH out of the
// given scratch, accumulating into st. The caller holds the read lock,
// has verified the database is open, and owns stats finalization
// (CPUTime, metrics recording, caching). Shared by SearchCtx and the
// MetricD refinement path of SearchMetricCtx.
func (db *Database) rangePhases(ctx context.Context, q *Sequence, eps float64, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]Match, error) {
	// Phase 1: partition the query sequence.
	t0 := time.Now()
	sc.segmentQuery(q, db.opts.Partition)
	st.QueryMBRs = len(sc.qmbrs)
	st.Phase1 = time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "partition", st.Phase1,
			obs.Int("query_mbrs", st.QueryMBRs))
	}

	// Phase 2: first pruning. Any sequence owning an MBR within Dmbr ≤ ε
	// of any query MBR becomes a candidate. The flat kernel compares in
	// squared space and appends raw refs; one sort+dedup replaces the
	// candidate set map.
	t1 := time.Now()
	sc.refs = sc.refs[:0]
	for i := range sc.qmbrs {
		if err := searchCanceled(ctx); err != nil {
			return nil, err
		}
		var err error
		sc.refs, err = db.tree.AppendWithinDist(sc.qmbrs[i].Rect, eps, sc.refs)
		if err != nil {
			return nil, err
		}
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

	// Phase 3: second pruning with Dnorm; qualifying windows accumulate
	// into the solution interval.
	t2 := time.Now()
	var out []Match
	quant := db.opts.QuantizedMBR
	for ci, id := range ids {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		m, hit, evals, qpruned := phase3FlatQ(sc.qmbrs, &sc.p3, db.seqs[id], q.Len(), eps, quant)
		m.SeqID = id
		st.DnormEvals += evals
		st.QuantPruned += qpruned
		if hit {
			out = append(out, m)
		}
	}
	st.MatchesDnorm = len(out)
	st.Phase3 = time.Since(t2)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "refine", st.Phase3,
			obs.Int("candidates_in", st.CandidatesDmbr),
			obs.Int("dnorm_evals", st.DnormEvals),
			obs.Int("matches", st.MatchesDnorm),
			obs.Float("pruned_frac", prunedFrac(st.CandidatesDmbr, st.MatchesDnorm)))
	}
	return out, nil
}

// phase3One runs the Dnorm pruning and solution-interval assembly for one
// candidate sequence. It is pure read-only metric work. The production
// search paths use phase3Flat — the allocation-free columnar form with
// identical results; this closure-based original is kept as the reference
// implementation the hot-path equivalence tests compare against (and as
// the readable statement of the algorithm).
//
// The sweep visits every Dnorm window once; each qualifying window
// contributes its points to the solution interval (Example 3), widened to
// full-query extent: the window covers the data matching query offsets
// [qm.Start, qm.End), and the Definition 6 windows containing it are
// len(Q) long, so the match region extends left by the query prefix before
// this MBR and right by the suffix after it. Without the widening,
// interval recall loses the fringes of every match.
func phase3One(qseg *Segmented, g *Segmented, qLen int, eps float64) (m Match, hit bool, evals int) {
	m = Match{Seq: g.Seq, MinDnorm: math.Inf(1)}
	for _, qm := range qseg.MBRs {
		calc := newDnormCalc(qm.Rect, qm.Count(), g)
		evals += len(g.MBRs)
		minDist := calc.sweep(eps, func(dist float64, pstart, pend int) {
			hit = true
			start := pstart - qm.Start
			end := pend + (qLen - qm.End)
			if start < 0 {
				start = 0
			}
			if end > g.Seq.Len() {
				end = g.Seq.Len()
			}
			m.Interval.Add(PointRange{Start: start, End: end})
		})
		if minDist < m.MinDnorm {
			m.MinDnorm = minDist
		}
	}
	return m, hit, evals
}

// CandidatesDmbr runs only phase 1+2 and returns the candidate set — the
// paper's ASmbr, needed to measure Figure 6/7's Dmbr-only pruning rate.
func (db *Database) CandidatesDmbr(q *Sequence, eps float64) (map[uint32]bool, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}
	qseg, err := NewSegmented(q, db.opts.Partition)
	if err != nil {
		return nil, err
	}
	candidates := make(map[uint32]bool)
	for _, qm := range qseg.MBRs {
		err := db.tree.WithinDist(qm.Rect, eps, func(it rtree.Item) bool {
			seqID, _ := it.Ref.Unpack()
			candidates[seqID] = true
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return candidates, nil
}

func sortUint32s(xs []uint32) {
	slices.Sort(xs)
}

// cancelCheckEvery is how many candidates a ctx-aware search processes
// between cancellation checks. Checking ctx.Err() takes a lock in some
// context implementations, so the batch keeps the check cost well under
// the metric work it gates while still bounding cancellation latency to
// one batch.
const cancelCheckEvery = 64

// searchCanceled translates a fired context into the error a ctx-aware
// query returns. The context's own error is wrapped, so callers can keep
// using errors.Is(err, context.DeadlineExceeded / context.Canceled).
func searchCanceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: search canceled: %w", err)
	}
	return nil
}

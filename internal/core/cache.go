package core

import (
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
)

// Query-kind tags folded into cache fingerprints so a range search, a
// kNN query, and any future cached shape with identical point material
// can never alias each other.
const (
	fpKindRange       = 0x52 // 'R': three-phase range search (serial, parallel, batch member)
	fpKindKNN         = 0x4b // 'K': unbounded k-nearest-sequences query
	fpKindMetricRange = 0x4d // 'M': metric range search (exact-distance result set)
	fpKindMetricKNN   = 0x6b // 'k': metric k-nearest-sequences query
)

// fp accumulates the two independent 64-bit hash streams behind a
// cache.Key. Stream 1 is FNV-1a; stream 2 runs the same xor-multiply
// scheme with a different offset basis and multiplier, so a collision in
// one stream is independent of the other.
type fp struct{ h1, h2 uint64 }

// newFP seeds both streams.
func newFP() fp {
	return fp{h1: 14695981039346656037, h2: 9650029242287828579}
}

// byte folds one byte into both streams.
func (f *fp) byte(b byte) {
	f.h1 = (f.h1 ^ uint64(b)) * 1099511628211
	f.h2 = (f.h2 ^ uint64(b)) * 0x9E3779B185EBCA87
}

// word folds one 64-bit word, little-endian.
func (f *fp) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v))
		v >>= 8
	}
}

// float folds one float64 by bit pattern (so -0 and 0 hash differently,
// which only makes the key stricter).
func (f *fp) float(v float64) { f.word(math.Float64bits(v)) }

// key finalizes the fingerprint.
func (f *fp) key() cache.Key { return cache.Key{Hi: f.h1, Lo: f.h2} }

// queryFingerprint builds the cache key for a query: kind tag, the
// metric's distance semantics (id byte + parameter word, so a DTW result
// can never alias a D result for the same points and threshold — and two
// DTW results under different windows can't alias either), threshold (or
// k, via extra), the partitioning parameters that shape phase 1, and
// every query coordinate. Everything that can change the result is in
// the key; corpus changes are handled by write invalidation.
func queryFingerprint(kind byte, m Metric, q *Sequence, eps float64, cfg PartitionConfig, extra uint64) cache.Key {
	f := newFP()
	f.byte(kind)
	mid, mparam := m.fingerprint()
	f.byte(mid)
	f.word(mparam)
	f.float(eps)
	f.float(cfg.QueryExtent)
	f.word(uint64(cfg.MaxPoints))
	f.word(extra)
	f.word(uint64(q.Len()))
	f.word(uint64(q.Dim()))
	for _, p := range q.Points {
		for _, v := range p {
			f.float(v)
		}
	}
	return f.key()
}

// RangeCacheKey returns the fingerprint a range query's result is cached
// under — the key shared by the serial, parallel, and batch paths. The
// scatter layer uses it to key its merged-result cache with the same
// material (its config mirrors every shard's).
func RangeCacheKey(q *Sequence, eps float64, cfg PartitionConfig) cache.Key {
	return queryFingerprint(fpKindRange, MetricD{}, q, eps, cfg, 0)
}

// KNNCacheKey returns the fingerprint an unbounded kNN query's result is
// cached under.
func KNNCacheKey(q *Sequence, k int, cfg PartitionConfig) cache.Key {
	return queryFingerprint(fpKindKNN, MetricD{}, q, 0, cfg, uint64(k))
}

// MetricRangeCacheKey returns the fingerprint a metric range search is
// cached under: the metric's identity and window are part of the key.
func MetricRangeCacheKey(q *Sequence, eps float64, cfg PartitionConfig, m Metric) cache.Key {
	return queryFingerprint(fpKindMetricRange, m, q, eps, cfg, 0)
}

// MetricKNNCacheKey returns the fingerprint a metric kNN query is cached
// under.
func MetricKNNCacheKey(q *Sequence, k int, cfg PartitionConfig, m Metric) cache.Key {
	return queryFingerprint(fpKindMetricKNN, m, q, 0, cfg, uint64(k))
}

// cachedRange is the memoized product of one range search: the match
// slice exactly as returned (treated as read-only by every consumer) and
// the stats of the run that computed it.
type cachedRange struct {
	matches []Match
	stats   SearchStats
}

// cachedKNN is the memoized product of one unbounded kNN query. Results
// are copied on every hit because scatter-gather callers rewrite SeqID
// in place when mapping local ids to global ones.
type cachedKNN struct{ results []KNNResult }

// cachedMetricRange is the memoized product of one metric range search.
type cachedMetricRange struct {
	matches []MetricMatch
	stats   SearchStats
}

// approxRangeBytes estimates the retained size of a cached range result
// for the cache's byte cap: slice headers and fixed fields plus the
// interval ranges. Sequences are not charged — they are owned by the
// database and shared, not retained by the cache.
func approxRangeBytes(ms []Match) int {
	n := 160 // entry, stats, slice header
	for _, m := range ms {
		n += 64 + 16*len(m.Interval.Ranges())
	}
	return n
}

// approxKNNBytes estimates the retained size of a cached kNN result.
func approxKNNBytes(rs []KNNResult) int { return 96 + 40*len(rs) }

// SetCache attaches a query-result cache to the database (nil detaches).
// Search, SearchParallel, SearchBatch, and SearchKNN consult it before
// running and fill it after with the result's compute cost (CPUTime) and
// geometric region; every write (Add, AddAll, Remove, AppendPoints,
// ReplaceSegmented) advances the database's epoch and notifies the cache
// with the written sequence's MBR, so only entries the write could have
// affected are invalidated (see internal/cache). Safe to call while
// queries are in flight.
func (db *Database) SetCache(c *cache.Cache) { db.qcache.Store(c) }

// QueryCache returns the attached query cache, or nil.
func (db *Database) QueryCache() *cache.Cache { return db.qcache.Load() }

// Epoch returns the database's current write epoch: the number of
// completed write operations. It is the corpus-version observable
// (Snapshot staleness checks); cache invalidation rides the region
// notifications, not this counter.
func (db *Database) Epoch() uint64 { return db.epoch.Load() }

// notifyWrite marks a completed write covering the MBR w: the epoch
// advances and the attached cache (if any) invalidates every entry the
// write could have affected. Pass the empty Rect when the write's extent
// is unknown — everything is then invalidated.
func (db *Database) notifyWrite(w geom.Rect) {
	db.epoch.Add(1)
	if c := db.qcache.Load(); c != nil {
		c.Invalidate(w)
	}
}

// cacheRef is a resolved cache slot for one query: the cache (nil when
// none is attached), the key, the write-sequence snapshot taken *before*
// the query ran, and the query's region. Storing under a pre-query
// snapshot is what makes a concurrent write safe: if a write lands
// during the search, the cache's counter is already past the snapshot
// and Put drops the entry, so it can never be served stale.
type cacheRef struct {
	c      *cache.Cache
	key    cache.Key
	seq    uint64
	region cache.Region
}

// rangeRef resolves the cache slot for a range query (shared by the
// serial, parallel, and batch paths — their results are identical by
// construction, so they share entries). The region is the query's
// bounding rectangle with radius ε: by Lemma 1, no write farther than ε
// from every query point can change the answer.
func (db *Database) rangeRef(q *Sequence, eps float64) cacheRef {
	c := db.qcache.Load()
	if c == nil {
		return cacheRef{}
	}
	return cacheRef{
		c:      c,
		key:    queryFingerprint(fpKindRange, MetricD{}, q, eps, db.opts.Partition, 0),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points), Radius: eps},
	}
}

// metricRangeRef resolves the cache slot for a metric range search. The
// region semantics carry over to every supported metric: a write farther
// than ε from the query's bounding rectangle has MinDist > ε to every
// query point, and both D and windowed DTW are lower-bounded by that
// MinDist (each distance averages per-point Euclidean terms, every one
// at least the rect gap), so it cannot enter or leave the answer.
func (db *Database) metricRangeRef(q *Sequence, eps float64, m Metric) cacheRef {
	c := db.qcache.Load()
	if c == nil {
		return cacheRef{}
	}
	return cacheRef{
		c:      c,
		key:    queryFingerprint(fpKindMetricRange, m, q, eps, db.opts.Partition, 0),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points), Radius: eps},
	}
}

// metricKNNRef resolves the cache slot for an unbounded metric kNN
// query; putMetricKNN fills the region radius (the k-th distance) in.
func (db *Database) metricKNNRef(q *Sequence, k int, m Metric) cacheRef {
	c := db.qcache.Load()
	if c == nil {
		return cacheRef{}
	}
	return cacheRef{
		c:      c,
		key:    queryFingerprint(fpKindMetricKNN, m, q, 0, db.opts.Partition, uint64(k)),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points)},
	}
}

// knnRef resolves the cache slot for an unbounded kNN query. The
// region's radius is unknown until the result exists (it is the k-th
// neighbor's distance); putKNN fills it in.
func (db *Database) knnRef(q *Sequence, k int) cacheRef {
	c := db.qcache.Load()
	if c == nil {
		return cacheRef{}
	}
	return cacheRef{
		c:      c,
		key:    queryFingerprint(fpKindKNN, MetricD{}, q, 0, db.opts.Partition, uint64(k)),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points)},
	}
}

// getRange returns the cached result for this slot, stats flagged
// CacheHit, with the hit's (near-zero) latency in Phase timings left as
// the original run's — callers read them as "the cost this answer
// represents", not "the cost of this call".
func (r cacheRef) getRange() ([]Match, SearchStats, bool) {
	if r.c == nil {
		return nil, SearchStats{}, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, SearchStats{}, false
	}
	cr := v.Data.(*cachedRange)
	st := cr.stats
	st.CacheHit = true
	return cr.matches, st, true
}

// putRange stores a completed range search under the pre-query
// write-sequence snapshot, charging the run's CPUTime as the entry's
// cost. Partial results are refused by the cache itself (defense in
// depth; single-node searches are never partial).
func (r cacheRef) putRange(ms []Match, st SearchStats) {
	if r.c == nil {
		return
	}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:    &cachedRange{matches: ms, stats: st},
		Bytes:   approxRangeBytes(ms),
		Cost:    st.CPUTime,
		Region:  r.region,
		Partial: st.Partial,
	})
}

// getMetricRange returns the cached metric range result for this slot,
// stats flagged CacheHit.
func (r cacheRef) getMetricRange() ([]MetricMatch, SearchStats, bool) {
	if r.c == nil {
		return nil, SearchStats{}, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, SearchStats{}, false
	}
	cr := v.Data.(*cachedMetricRange)
	st := cr.stats
	st.CacheHit = true
	return cr.matches, st, true
}

// putMetricRange stores a completed metric range search under the
// pre-query write-sequence snapshot.
func (r cacheRef) putMetricRange(ms []MetricMatch, st SearchStats) {
	if r.c == nil {
		return
	}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:    &cachedMetricRange{matches: ms, stats: st},
		Bytes:   160 + 40*len(ms),
		Cost:    st.CPUTime,
		Region:  r.region,
		Partial: st.Partial,
	})
}

// getKNN returns a copy of the cached kNN result for this slot.
func (r cacheRef) getKNN() ([]KNNResult, bool) {
	if r.c == nil {
		return nil, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, false
	}
	return append([]KNNResult(nil), v.Data.(*cachedKNN).results...), true
}

// putKNN stores a completed kNN query under the pre-query write-sequence
// snapshot. The slice is copied so later in-place edits by the caller
// (global-id rewriting in the scatter layer) cannot corrupt the entry.
// The region radius is the k-th neighbor's distance when the answer is
// full — a write farther than that from the query cannot displace any
// neighbor — and +Inf (invalidate on every write) while the corpus holds
// fewer than k sequences, since any addition could then enter the
// answer.
func (r cacheRef) putKNN(rs []KNNResult, k int, took time.Duration) {
	if r.c == nil {
		return
	}
	rs = append([]KNNResult(nil), rs...)
	reg := r.region
	reg.Radius = math.Inf(1)
	if len(rs) == k {
		reg.Radius = rs[len(rs)-1].Dist
	}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:   &cachedKNN{results: rs},
		Bytes:  approxKNNBytes(rs),
		Cost:   took,
		Region: reg,
	})
}

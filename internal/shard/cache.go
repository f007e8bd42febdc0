package shard

import (
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
)

// SetCache attaches a merged-result cache in front of the scatter-gather
// (nil detaches). The front cache stores whole gathered answers —
// matches under global ids, merged stats, the per-shard breakdown — so a
// repeated query skips the entire fan-out, not just the per-shard work.
// The same budget, split evenly, is also installed as per-shard caches
// on the child databases: a query that misses the front (say, after one
// shard ingested) still reuses the other shards' local results.
//
// Invalidation mirrors the single-node protocol: every ShardedDB write
// notifies the front cache with the written sequence's MBR (the
// per-shard caches hear about it from their own databases), entries
// record the region their answer depends on, and a write racing a
// scatter can only waste an entry, never serve a stale one — the cache's
// write-sequence counter, snapshotted before the fan-out, makes Put drop
// any answer a concurrent write may have outdated (see internal/cache).
// Partial answers are never cached.
func (s *ShardedDB) SetCache(c *cache.Cache) {
	s.qcache.Store(c)
	if c == nil {
		for _, db := range s.shards {
			db.SetCache(nil)
		}
		return
	}
	cfg := c.Config()
	n := len(s.shards)
	per := cache.Config{
		MaxEntries: (cfg.MaxEntries + n - 1) / n,
		MaxBytes:   cfg.MaxBytes / int64(n),
		Shards:     cfg.Shards,
	}
	for _, db := range s.shards {
		db.SetCache(cache.New(per))
	}
}

// QueryCache returns the front (merged-result) cache, or nil.
func (s *ShardedDB) QueryCache() *cache.Cache { return s.qcache.Load() }

// Epoch returns the sharded database's write epoch — the number of
// completed writes across all shards, counted at the router.
func (s *ShardedDB) Epoch() uint64 { return s.epoch.Load() }

// notifyWrite marks a completed router write covering the MBR w: the
// epoch advances and the front cache (if any) invalidates every gathered
// answer the write could have affected. The per-shard caches are
// notified by their own databases as part of the shard-local write.
func (s *ShardedDB) notifyWrite(w geom.Rect) {
	s.epoch.Add(1)
	if c := s.qcache.Load(); c != nil {
		c.Invalidate(w)
	}
}

// cachedScatter is one memoized gathered answer: matches under global
// ids, the merged stats, and the per-shard breakdown (so SearchShardsCtx
// hits keep their authoritative shard list). All three are treated as
// read-only by consumers.
type cachedScatter struct {
	matches  []core.Match
	stats    core.SearchStats
	perShard []ShardStats
}

// cachedGatherKNN is one memoized gathered kNN answer. Copied on every
// hit — kNN consumers historically mutate their result slices.
type cachedGatherKNN struct{ results []core.KNNResult }

// approxScatterBytes estimates a cached scatter's retained size.
func approxScatterBytes(v *cachedScatter) int {
	n := 224 + 48*len(v.perShard)
	for _, m := range v.matches {
		n += 64 + 16*len(m.Interval.Ranges())
	}
	return n
}

// scatterRef is the front-cache slot for one range query: cache (nil
// when detached), key, the write-sequence snapshot taken before the
// scatter, and the query's region.
type scatterRef struct {
	c      *cache.Cache
	key    cache.Key
	seq    uint64
	region cache.Region
}

// rangeRef resolves the front-cache slot for a range query. The
// write-sequence counter is read before the fan-out starts, so a write
// landing mid-scatter leaves the stored entry unservable rather than
// stale. The region — query bounds plus ε — is the same Lemma 1 bound
// the per-shard caches use; shard-local and gathered answers depend on
// exactly the same geometry.
func (s *ShardedDB) rangeRef(q *core.Sequence, eps float64) scatterRef {
	c := s.qcache.Load()
	if c == nil {
		return scatterRef{}
	}
	return scatterRef{
		c:      c,
		key:    core.RangeCacheKey(q, eps, s.opts.Partition),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points), Radius: eps},
	}
}

// knnRef resolves the front-cache slot for a gathered kNN query; the
// region radius is filled in by putKNN once the k-th distance is known.
func (s *ShardedDB) knnRef(q *core.Sequence, k int) scatterRef {
	c := s.qcache.Load()
	if c == nil {
		return scatterRef{}
	}
	return scatterRef{
		c:      c,
		key:    core.KNNCacheKey(q, k, s.opts.Partition),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points)},
	}
}

// get returns the cached gathered answer, stats flagged CacheHit.
func (r scatterRef) get() ([]core.Match, core.SearchStats, []ShardStats, bool) {
	if r.c == nil {
		return nil, core.SearchStats{}, nil, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, core.SearchStats{}, nil, false
	}
	cs := v.Data.(*cachedScatter)
	st := cs.stats
	st.CacheHit = true
	return cs.matches, st, cs.perShard, true
}

// put stores a completed gather under the pre-scatter write-sequence
// snapshot, charging the merged cross-shard CPUTime as the entry's cost.
// Partial answers are refused by the cache (Value.Partial passes
// through).
func (r scatterRef) put(ms []core.Match, st core.SearchStats, ps []ShardStats) {
	if r.c == nil {
		return
	}
	v := &cachedScatter{matches: ms, stats: st, perShard: ps}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:    v,
		Bytes:   approxScatterBytes(v),
		Cost:    st.CPUTime,
		Region:  r.region,
		Partial: st.Partial,
	})
}

// getKNN returns a copy of the cached gathered kNN answer.
func (r scatterRef) getKNN() ([]core.KNNResult, bool) {
	if r.c == nil {
		return nil, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, false
	}
	return append([]core.KNNResult(nil), v.Data.(*cachedGatherKNN).results...), true
}

// putKNN stores a complete (non-partial) gathered kNN answer, copied so
// caller mutations cannot reach the entry. The cost is the gather's
// wall-clock (per-shard CPUTime is not merged on the kNN path); the
// region radius is the global k-th distance for a full answer, +Inf
// otherwise (see core's putKNN for the argument).
func (r scatterRef) putKNN(rs []core.KNNResult, k int, took time.Duration) {
	if r.c == nil {
		return
	}
	rs = append([]core.KNNResult(nil), rs...)
	reg := r.region
	reg.Radius = math.Inf(1)
	if len(rs) == k {
		reg.Radius = rs[len(rs)-1].Dist
	}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:   &cachedGatherKNN{results: rs},
		Bytes:  96 + 40*len(rs),
		Cost:   took,
		Region: reg,
	})
}

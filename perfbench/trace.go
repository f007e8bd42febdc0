package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/txn"
)

// The traced run records spans from the benchmark's side of each layer
// boundary, changing no program code:
//
//	client      the loopback round trip (load generator)
//	server      an http.Handler around server.New(...)
//	db          a shard.DB wrapper around the serving database
//	shard.node  a shard.Backend wrapper per shard (SetShardBackend)
//	core        the call into core.Database, split by the Phase1/2/3 of
//	            the SearchStats a range search returns
//
// Spans of one request share its X-Request-ID ("r<index>"), are kept in
// memory, and are written out when the run ends.

// maxShards bounds the per-request node span slots.
const maxShards = 8

// span is a [start, end) interval in nanoseconds since the tracer epoch.
type span struct{ Start, End int64 }

func (s span) dur() int64 {
	if s.End <= s.Start {
		return 0
	}
	return s.End - s.Start
}

// reqTrace is every span and counter one request recorded.
type reqTrace struct {
	Client   span
	Server   span
	DB       span
	Nodes    [maxShards]span
	Stats    core.SearchStats // the db call's (merged) stats, range searches
	HasStats bool
}

// tracer owns the span records of one traced phase. A nil *tracer
// records nothing.
type tracer struct {
	epoch    time.Time
	recs     []reqTrace
	inflight sync.WaitGroup // server spans still being written
}

func newTracer(n int) *tracer { return &tracer{epoch: time.Now(), recs: make([]reqTrace, n)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// client closes request i's client span.
func (t *tracer) client(i int, start int64) {
	if t == nil || i >= len(t.recs) {
		return
	}
	t.recs[i].Client = span{start, t.now()}
}

type reqKey struct{}

// rec returns the record of the request ctx belongs to, or nil.
func (t *tracer) rec(ctx context.Context) *reqTrace {
	if i, ok := ctx.Value(reqKey{}).(int); ok {
		return &t.recs[i]
	}
	return nil
}

// wait blocks until every traced handler has finished writing its span.
func (t *tracer) wait() { t.inflight.Wait() }

// handler wraps the server's handler with the server span.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		i, err := strconv.Atoi(id[min(1, len(id)):])
		if err != nil || id == "" || id[0] != 'r' || i < 0 || i >= len(t.recs) {
			next.ServeHTTP(w, r)
			return
		}
		t.inflight.Add(1)
		defer t.inflight.Done()
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, i)))
		t.recs[i].Server = span{start, t.now()}
	})
}

// dbCall is an open db span.
type dbCall struct {
	t     *tracer
	rec   *reqTrace
	start int64
}

func (t *tracer) beginDB(ctx context.Context) dbCall {
	return dbCall{t: t, rec: t.rec(ctx), start: t.now()}
}

func (c dbCall) end() {
	if c.rec != nil {
		c.rec.DB = span{c.start, c.t.now()}
	}
}

func (c dbCall) endStats(st core.SearchStats) {
	if c.rec != nil {
		c.rec.DB = span{c.start, c.t.now()}
		c.rec.Stats, c.rec.HasStats = st, true
	}
}

// tracedSharded is the db-span wrapper around a *shard.ShardedDB. It
// embeds the concrete pointer so every optional interface the server
// type-asserts (the per-shard search surface in particular) stays
// visible, and overrides each method the server calls for the
// workloads' requests.
type tracedSharded struct {
	*shard.ShardedDB
	t *tracer
}

func (d tracedSharded) SearchShardsCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, []shard.ShardStats, error) {
	c := d.t.beginDB(ctx)
	m, st, ps, err := d.ShardedDB.SearchShardsCtx(ctx, q, eps)
	c.endStats(st)
	return m, st, ps, err
}

func (d tracedSharded) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	c := d.t.beginDB(ctx)
	m, st, err := d.ShardedDB.SearchBatchCtx(ctx, qs, eps)
	c.end()
	return m, st, err
}

func (d tracedSharded) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	c := d.t.beginDB(ctx)
	r, err := d.ShardedDB.SearchKNNCtx(ctx, q, k)
	c.end()
	return r, err
}

func (d tracedSharded) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	c := d.t.beginDB(ctx)
	r, st, err := d.ShardedDB.SearchMetricCtx(ctx, q, eps, m)
	c.endStats(st)
	return r, st, err
}

func (d tracedSharded) SearchKNNMetricCtx(ctx context.Context, q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	c := d.t.beginDB(ctx)
	r, err := d.ShardedDB.SearchKNNMetricCtx(ctx, q, k, m)
	c.end()
	return r, err
}

// tracedTxn is the db-span wrapper around a *txn.DB (mdsserve -durable
// with one shard). Embedding keeps the context-carrying write surface and
// the /txnz stats surface the server type-asserts; the overrides are the
// calls durable_churn's requests make.
type tracedTxn struct {
	*txn.DB
	t *tracer
}

func (d tracedTxn) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	c := d.t.beginDB(ctx)
	m, st, err := d.DB.SearchCtx(ctx, q, eps)
	c.endStats(st)
	return m, st, err
}

func (d tracedTxn) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	c := d.t.beginDB(ctx)
	r, err := d.DB.SearchKNNCtx(ctx, q, k)
	c.end()
	return r, err
}

func (d tracedTxn) AddCtx(ctx context.Context, s *core.Sequence) (uint32, error) {
	c := d.t.beginDB(ctx)
	id, err := d.DB.AddCtx(ctx, s)
	c.end()
	return id, err
}

func (d tracedTxn) AppendPointsCtx(ctx context.Context, id uint32, pts []geom.Point) error {
	c := d.t.beginDB(ctx)
	err := d.DB.AppendPointsCtx(ctx, id, pts)
	c.end()
	return err
}

func (d tracedTxn) RemoveCtx(ctx context.Context, id uint32) error {
	c := d.t.beginDB(ctx)
	err := d.DB.RemoveCtx(ctx, id)
	c.end()
	return err
}

// tracedNode is the shard.node span: a Backend wrapper installed with
// ShardedDB.SetShardBackend around shard i's own database.
type tracedNode struct {
	inner shard.Backend
	i     int
	t     *tracer
}

// node runs one backend call under shard i's span.
func (n tracedNode) node(ctx context.Context, call func()) {
	rec := n.t.rec(ctx)
	start := n.t.now()
	call()
	if rec != nil && n.i < maxShards {
		rec.Nodes[n.i] = span{start, n.t.now()}
	}
}

func (n tracedNode) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) (m []core.Match, st core.SearchStats, err error) {
	n.node(ctx, func() { m, st, err = n.inner.SearchCtx(ctx, q, eps) })
	return
}

func (n tracedNode) SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound float64) (r []core.KNNResult, err error) {
	n.node(ctx, func() { r, err = n.inner.SearchKNNBoundedCtx(ctx, q, k, bound) })
	return
}

func (n tracedNode) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) (m [][]core.Match, st []core.SearchStats, err error) {
	n.node(ctx, func() { m, st, err = n.inner.SearchBatchCtx(ctx, qs, eps) })
	return
}

func (n tracedNode) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, mt core.Metric) (m []core.MetricMatch, st core.SearchStats, err error) {
	n.node(ctx, func() { m, st, err = n.inner.SearchMetricCtx(ctx, q, eps, mt) })
	return
}

func (n tracedNode) SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound float64, mt core.Metric) (r []core.KNNResult, err error) {
	n.node(ctx, func() { r, err = n.inner.SearchKNNMetricBoundedCtx(ctx, q, k, bound, mt) })
	return
}

// instrument returns the db-span wrapper for s's database and installs
// the node-span backends; uninstrument restores the shards' own backends.
func (t *tracer) instrument(s *served) shard.DB {
	if s.tdb != nil {
		return tracedTxn{DB: s.tdb, t: t}
	}
	for i := 0; i < s.sdb.Shards(); i++ {
		s.sdb.SetShardBackend(i, tracedNode{inner: s.sdb.Shard(i), i: i, t: t})
	}
	return tracedSharded{ShardedDB: s.sdb, t: t}
}

func uninstrument(s *served) {
	if s.sdb != nil {
		for i := 0; i < s.sdb.Shards(); i++ {
			s.sdb.SetShardBackend(i, nil)
		}
	}
}

// writeTrace stores the spans of a traced phase as JSON lines, one
// request per line, under dir.
func writeTrace(path string, t *tracer, kinds []opKind) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recs {
		r := &t.recs[i]
		line := struct {
			ID   string    `json:"id"`
			Op   string    `json:"op"`
			Span *reqTrace `json:"spans"`
		}{"r" + strconv.Itoa(i), opNames[kinds[i]], r}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var opNames = [numOps]string{"range", "knn", "dtw_range", "dtw_knn", "batch", "add", "append", "delete"}

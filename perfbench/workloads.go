package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/txn"
)

// spec fixes everything about a workload except its seed.
type spec struct {
	name string
	why  string

	seqs           int // corpus size
	minLen, maxLen int // corpus sequence lengths
	shards         int // mdsserve -shards
	durable        bool
	cacheEntries   int // mdsserve -cache-entries (0 = off)
	ckptEvery      int // mdsserve -checkpoint-every under -durable

	rate  float64         // open-loop offered rate, requests/s
	share [numOps]float64 // op mix; sums to 1

	rangeQLen int     // points per metric-d range query
	rangeEps  float64 // ε of metric-d range queries and batches
	knnQLen   int     // points per metric-d kNN query
	k         int     // kNN k (both metrics)
	dtwMaxLen int     // DTW queries copy stored sequences up to this length
	dtwWindow int     // Sakoe–Chiba half-width of DTW requests
	dtwEps    float64 // ε of DTW range requests
	batchSize int     // queries per /batch

	rangePool, knnPool, dtwPool, batchPool int     // distinct requests per kind
	zipf                                   float64 // >1: Zipf-skewed reuse of the read pools
}

const dim = 3

var specs = []spec{
	{
		name: "engine_heavy",
		why:  "1 shard, several thousand fractal sequences, small answers: time goes to filter-and-refine, kNN and the DTW bound ladder",
		seqs: 3000, minLen: 56, maxLen: 512, shards: 1,
		rate:      170,
		share:     [numOps]float64{opRange: 1.0 / 3, opKNN: 1.0 / 3, opDTWRange: 1.0 / 6, opDTWKNN: 1.0 / 6},
		rangeQLen: 50, rangeEps: 0.005,
		knnQLen: 30, k: 3,
		dtwMaxLen: 160, dtwWindow: 16, dtwEps: 0.02,
		rangePool: 256, knnPool: 256, dtwPool: 128,
	},
	{
		name: "codec_scatter",
		why:  "4 shards over 400 sequences, broad-eps search and 8-query batches: large JSON answers, cheap engine, fan-out and merge",
		seqs: 400, minLen: 56, maxLen: 512, shards: 4,
		rate:      120,
		share:     [numOps]float64{opRange: 0.5, opBatch: 0.5},
		rangeQLen: 50, rangeEps: 0.2, batchSize: 8,
		rangePool: 256, batchPool: 128,
	},
	{
		name: "durable_churn",
		why:  "one fsync'd WAL node with the GDSF query cache: Zipf-repeated reads beside adds, appends and deletes, folds inside the window",
		seqs: 400, minLen: 56, maxLen: 512, shards: 1, durable: true,
		cacheEntries: 4096, ckptEvery: 20,
		rate:      170,
		share:     [numOps]float64{opRange: 1.0 / 3, opKNN: 1.0 / 3, opAdd: 0.12, opAppend: 1.0/3 - 0.24, opDelete: 0.12},
		rangeQLen: 50, rangeEps: 0.01,
		knnQLen: 30, k: 3,
		rangePool: 200, knnPool: 200, zipf: 1.2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// served is the in-process server state for one setup: the database as
// mdsserve builds it for the workload's flags, and the options mdsserve
// passes to server.New.
type served struct {
	db    shard.DB
	sdb   *shard.ShardedDB // nil under -durable
	tdb   *txn.DB          // nil unless -durable
	ids   []uint32         // ids of the corpus, in input order
	reg   *obs.Registry
	opts  []server.Option
	dir   string      // durability directory
	topts txn.Options // how the durable node was opened
}

// setup builds the serving state from the corpus file on mdsserve's path
// for the workload's flags (-data, -shards, -durable, -cache-entries)
// plus the handler options, and reports how long that took. Under
// -durable the ingest is one WAL commit followed by one checkpoint fold.
func setup(sp spec, dataPath, dir string) (*served, time.Duration, error) {
	t0 := time.Now()
	seqs, err := seqio.ReadFile(dataPath)
	if err != nil {
		return nil, 0, err
	}
	s := &served{reg: obs.NewRegistry(), dir: dir}
	if sp.durable {
		s.topts = txn.Options{Dir: dir, Dim: dim, CheckpointEvery: sp.ckptEvery}
		tdb, err := txn.Open(s.topts)
		if err != nil {
			return nil, 0, err
		}
		if s.ids, err = tdb.AddAll(seqs); err == nil {
			err = tdb.Checkpoint()
		}
		if err != nil {
			tdb.Close()
			return nil, 0, err
		}
		s.db, s.tdb = tdb, tdb
	} else {
		sdb, err := shard.New(core.Options{Dim: dim}, sp.shards)
		if err != nil {
			return nil, 0, err
		}
		if s.ids, err = sdb.AddAll(seqs); err != nil {
			sdb.Close()
			return nil, 0, err
		}
		s.db, s.sdb = sdb, sdb
	}
	if sp.cacheEntries > 0 {
		s.db.SetCache(cache.New(cache.Config{MaxEntries: sp.cacheEntries}))
		name := "core"
		if s.db.Shards() > 1 {
			name = "front"
		}
		s.db.QueryCache().SetMetrics(cache.NewMetrics(s.reg, name))
	}
	s.opts = []server.Option{
		server.WithMetrics(s.reg),
		server.WithLogger(slog.New(slog.NewJSONHandler(io.Discard, nil))),
		server.WithSlowQueryThreshold(500 * time.Millisecond),
		server.WithRecorder(obs.NewRecorder(obs.RecorderConfig{PerBucket: 4})),
	}
	_ = server.New(s.db, s.opts...) // ready to serve: handler construction is part of setup
	return s, time.Since(t0), nil
}

// handler builds the HTTP handler mdsserve would serve over db (the state's
// own database, or a tracing wrapper around it).
func (s *served) handler(db shard.DB) http.Handler { return server.New(db, s.opts...) }

func (s *served) close() error { return s.db.Close() }

// inputs is everything generated from the seed.
type inputs struct {
	corpus []seqData
	reads  []request // distinct read requests (read-only pools, or the churn read pool)
	qs     []query   // query table the read requests index
	open   []int     // open-loop schedule: indexes into reads, or ^i into writes
	closed []int     // closed-loop request order, same encoding
	at     []time.Duration
	writes []request // durable_churn: every write, in schedule order
	prev   []int     // durable_churn: per write, the previous write to its slot (-1: none)
}

// query is one distinct query sequence of a read pool.
type query struct {
	kind   opKind
	points []geom.Point
	eps    float64
	k      int
}

// openFrac is the share of --seconds spent in the open-loop phase; the
// rest measures peak throughput closed-loop.
const openFrac = 0.75

// closedCap bounds the closed-loop request list (requests/s × seconds).
const closedCap = 3000

// generate draws the corpus, the request pools and both phase schedules
// from the seed.
func generate(sp spec, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{corpus: corpus(rng, sp.seqs, sp.minLen, sp.maxLen, dim, "seq")}
	pick := func() []geom.Point { return in.corpus[rng.Intn(len(in.corpus))].points }
	addQuery := func(q query) int {
		in.qs = append(in.qs, q)
		return len(in.qs) - 1
	}
	pools := [numOps][]int{}
	newRead := func(r request) {
		pools[r.kind] = append(pools[r.kind], len(in.reads))
		in.reads = append(in.reads, r)
	}
	for i := 0; i < sp.rangePool; i++ {
		qi := addQuery(query{kind: opRange, points: noisyWindow(rng, pick(), sp.rangeQLen, 0.002), eps: sp.rangeEps})
		if sp.share[opRange] > 0 {
			newRead(searchRequest(opRange, qi, in.qs[qi], sp))
		}
	}
	for i := 0; i < sp.knnPool; i++ {
		qi := addQuery(query{kind: opKNN, points: noisyWindow(rng, pick(), sp.knnQLen, 0.002), k: sp.k})
		newRead(searchRequest(opKNN, qi, in.qs[qi], sp))
	}
	var short [][]geom.Point
	for _, s := range in.corpus {
		if len(s.points) <= sp.dtwMaxLen {
			short = append(short, s.points)
		}
	}
	for i := 0; i < sp.dtwPool; i++ {
		pts := noisyWindow(rng, short[rng.Intn(len(short))], 0, 0.005)
		qi := addQuery(query{kind: opDTWRange, points: pts, eps: sp.dtwEps, k: sp.k})
		newRead(searchRequest(opDTWRange, qi, in.qs[qi], sp))
		newRead(searchRequest(opDTWKNN, qi, in.qs[qi], sp))
	}
	for i := 0; i < sp.batchPool; i++ {
		members := make([]int, sp.batchSize)
		var body BatchBody
		body.Eps = sp.rangeEps
		for j := range members {
			members[j] = rng.Intn(sp.rangePool) // the range queries come first in qs
			body.Queries = append(body.Queries, pointsJSON(in.qs[members[j]].points))
		}
		newRead(request{kind: opBatch, method: http.MethodPost, path: "/batch", body: mustJSON(body), batch: members})
	}

	nOpen := int(math.Round(sp.rate * seconds * openFrac))
	nClosed := int(closedCap * seconds * (1 - openFrac))
	in.at = arrivals(rng, nOpen, time.Duration(seconds*openFrac*float64(time.Second)))
	kinds := mixSequence(rng, sp.share, nOpen)
	kinds = append(kinds, mixSequence(rng, sp.share, nClosed)...)

	var zipfs [numOps]*rand.Zipf
	if sp.zipf > 1 {
		for k, p := range pools {
			if len(p) > 1 {
				zipfs[k] = rand.NewZipf(rng, sp.zipf, 1, uint64(len(p)-1))
			}
		}
	}
	var churn *churnPlan
	if sp.durable {
		churn = newChurnPlan(len(in.corpus))
	}
	sched := make([]int, len(kinds))
	for i, k := range kinds {
		if k.isWrite() {
			w := churn.next(rng, k, i)
			in.writes = append(in.writes, w)
			in.prev = append(in.prev, churn.prevOf(len(in.writes)-1))
			sched[i] = ^(len(in.writes) - 1)
			continue
		}
		p := pools[k]
		if z := zipfs[k]; z != nil {
			sched[i] = p[z.Uint64()]
		} else {
			sched[i] = p[rng.Intn(len(p))]
		}
	}
	in.open, in.closed = sched[:nOpen], sched[nOpen:]
	return in
}

// mixSequence returns n op kinds in random order with each kind's count
// fixed by its share, so every run offers the same mix.
func mixSequence(rng *rand.Rand, share [numOps]float64, n int) []opKind {
	out := make([]opKind, 0, n)
	for k, s := range share {
		for c := int(math.Round(s * float64(n))); c > 0 && len(out) < n; c-- {
			out = append(out, opKind(k))
		}
	}
	for len(out) < n {
		out = append(out, opRange)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Wire bodies. Field names follow internal/server's request types.
type (
	SearchBody struct {
		Points    [][]float64 `json:"points"`
		Eps       float64     `json:"eps"`
		Metric    string      `json:"metric,omitempty"`
		DTWWindow *int        `json:"dtwWindow,omitempty"`
	}
	KNNBody struct {
		Points    [][]float64 `json:"points"`
		K         int         `json:"k"`
		Metric    string      `json:"metric,omitempty"`
		DTWWindow *int        `json:"dtwWindow,omitempty"`
	}
	BatchBody struct {
		Queries [][][]float64 `json:"queries"`
		Eps     float64       `json:"eps"`
	}
)

func searchRequest(kind opKind, qi int, q query, sp spec) request {
	r := request{kind: kind, method: http.MethodPost, query: qi}
	w := sp.dtwWindow
	switch kind {
	case opRange:
		r.path, r.body = "/search", mustJSON(SearchBody{Points: pointsJSON(q.points), Eps: q.eps})
	case opKNN:
		r.path, r.body = "/knn", mustJSON(KNNBody{Points: pointsJSON(q.points), K: q.k})
	case opDTWRange:
		r.path, r.body = "/search", mustJSON(SearchBody{Points: pointsJSON(q.points), Eps: q.eps, Metric: "dtw", DTWWindow: &w})
	case opDTWKNN:
		r.path, r.body = "/knn", mustJSON(KNNBody{Points: pointsJSON(q.points), K: q.k, Metric: "dtw", DTWWindow: &w})
	}
	return r
}

// churnPlan assigns the writes of durable_churn to slots: slot i < n0 is
// the i-th corpus sequence, later slots are the sequences the schedule's
// adds create. Appends and deletes target live slots whose last write is
// at least minGap schedule positions back, so with two connections a
// write almost never waits for the previous write to its slot (the load
// generator still enforces that order: the final state is then fully
// determined by the acknowledged writes).
type churnPlan struct {
	n0     int
	live   []int // live slot numbers
	pos    []int // slot -> index in live, -1 once deleted
	last   []int // slot -> schedule position of its last write (-1: corpus)
	lastW  []int // slot -> index into writes of its last write (-1: none)
	prev   []int // write index -> previous write to the same slot
	nAdded int
}

const minGap = 64

func newChurnPlan(n0 int) *churnPlan {
	c := &churnPlan{n0: n0}
	for i := 0; i < n0; i++ {
		c.live = append(c.live, i)
		c.pos = append(c.pos, i)
		c.last = append(c.last, -minGap)
		c.lastW = append(c.lastW, -1)
	}
	return c
}

func (c *churnPlan) prevOf(w int) int { return c.prev[w] }

// next plans the write of kind k at schedule position at.
func (c *churnPlan) next(rng *rand.Rand, k opKind, at int) request {
	w := len(c.prev)
	if k != opAdd {
		// A live slot that has been quiet long enough; the corpus is
		// large enough that a few probes find one.
		for try := 0; try < 64; try++ {
			slot := c.live[rng.Intn(len(c.live))]
			if at-c.last[slot] < minGap {
				continue
			}
			c.prev = append(c.prev, c.lastW[slot])
			c.last[slot], c.lastW[slot] = at, w
			if k == opDelete {
				i := c.pos[slot]
				moved := c.live[len(c.live)-1]
				c.live[i], c.pos[moved] = moved, i
				c.live = c.live[:len(c.live)-1]
				c.pos[slot] = -1
				return request{kind: opDelete, method: http.MethodDelete, slot: slot}
			}
			pts := appendPoints(rng)
			return request{kind: opAppend, method: http.MethodPost, slot: slot, points: pts,
				body: mustJSON(map[string]any{"points": pointsJSON(pts)})}
		}
		k = opAdd // every live slot is busy: add instead
	}
	slot := len(c.pos)
	c.live = append(c.live, slot)
	c.pos = append(c.pos, len(c.live)-1)
	c.last = append(c.last, at)
	c.lastW = append(c.lastW, w)
	c.prev = append(c.prev, -1)
	c.nAdded++
	label := fmt.Sprintf("add-%05d", c.nAdded)
	pts := fractalPoints(rng, 56+rng.Intn(73), dim)
	return request{kind: opAdd, method: http.MethodPost, path: "/sequences", slot: slot, label: label, points: pts,
		body: mustJSON(map[string]any{"label": label, "points": pointsJSON(pts)})}
}

// appendPoints draws the 8 points one append request carries: a short
// random walk from a random point of the unit cube.
func appendPoints(rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, 8)
	cur := make(geom.Point, dim)
	for k := range cur {
		cur[k] = rng.Float64()
	}
	for i := range pts {
		p := make(geom.Point, dim)
		for k := range p {
			p[k] = math.Min(1, math.Max(0, cur[k]+0.01*rng.NormFloat64()))
		}
		pts[i], cur = p, p
	}
	return pts
}

// writeCorpus stores the corpus in mdsgen's binary format, the file
// mdsserve -data reads.
func writeCorpus(path string, c []seqData) error {
	seqs := make([]*core.Sequence, len(c))
	for i, s := range c {
		seqs[i] = &core.Sequence{Label: s.label, Points: s.points}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return seqio.WriteFile(path, seqs)
}

package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/txn"
)

// The optional surfaces internal/server type-asserts on its database.
type (
	shardSearcher interface {
		SearchShardsCtx(context.Context, *core.Sequence, float64) ([]core.Match, core.SearchStats, []shard.ShardStats, error)
	}
	ctxWriter interface {
		AddCtx(context.Context, *core.Sequence) (uint32, error)
		AddAllCtx(context.Context, []*core.Sequence) ([]uint32, error)
		AppendPointsCtx(context.Context, uint32, []geom.Point) error
		RemoveCtx(context.Context, uint32) error
	}
	txnStatser interface {
		Stats() txn.Stats
	}
)

// optional reports which optional surfaces db offers.
func optional(db shard.DB) [3]bool {
	_, a := db.(shardSearcher)
	_, b := db.(ctxWriter)
	_, c := db.(txnStatser)
	return [3]bool{a, b, c}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	sdb, err := shard.New(core.Options{Dim: dim}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	tdb, err := txn.Open(txn.Options{Dir: t.TempDir(), Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer tdb.Close()
	tr := newTracer(1)
	for _, c := range []struct {
		name       string
		raw, wrap  shard.DB
		wantTxnzOK bool
	}{
		{"sharded", sdb, tracedSharded{ShardedDB: sdb, t: tr}, false},
		{"txn", tdb, tracedTxn{DB: tdb, t: tr}, true},
	} {
		if got, want := optional(c.wrap), optional(c.raw); got != want {
			t.Errorf("%s: wrapper offers %v of (shardSearcher, ctxWriter, txnStatser), database offers %v", c.name, got, want)
		}
		// The server must still find the stats surface through the wrapper.
		rec := httptest.NewRecorder()
		server.New(c.wrap).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/txnz", nil))
		if ok := rec.Code == http.StatusOK; ok != c.wantTxnzOK {
			t.Errorf("%s: GET /txnz through the wrapper: status %d", c.name, rec.Code)
		}
	}
}

// small shrinks a workload so a test run takes a few seconds.
func small(name string) spec {
	sp, _ := specByName(name)
	sp.seqs = 60
	sp.rate = 50
	sp.rangePool, sp.knnPool = min(sp.rangePool, 24), min(sp.knnPool, 24)
	sp.dtwPool, sp.batchPool = min(sp.dtwPool, 12), min(sp.batchPool, 12)
	return sp
}

func runSmall(t *testing.T, sp spec, traced bool) *outcome {
	t.Helper()
	out, err := run(config{spec: sp, seed: 7, seconds: 2, trace: traced, work: t.TempDir(), keep: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%s traced=%v: %d of %d answers failed", sp.name, traced, out.failed, out.attempted)
	}
	return out
}

// The spans must not change what the server answers: for the same seed
// the traced and untraced open-loop passes return the same bodies byte
// for byte, apart from the per-request phase timings inside "stats".
// (durable_churn is left out: its write ids and cache flags depend on
// commit order and timing, not on tracing.)
func TestTracedAndUntracedBodiesIdentical(t *testing.T) {
	for _, name := range []string{"engine_heavy", "codec_scatter"} {
		sp := small(name)
		plain, traced := runSmall(t, sp, false), runSmall(t, sp, true)
		if len(plain.bodies) != len(traced.bodies) || len(plain.bodies) == 0 {
			t.Fatalf("%s: %d untraced bodies, %d traced", name, len(plain.bodies), len(traced.bodies))
		}
		for i := range plain.bodies {
			if !bytes.Equal(canonical(plain.bodies[i]), canonical(traced.bodies[i])) {
				t.Fatalf("%s: request %d differs:\nuntraced %.300s\ntraced   %.300s", name, i, plain.bodies[i], traced.bodies[i])
			}
		}
	}
}

// Span self-times must account for at least 95% of the wall time the
// client observed, on every workload.
func TestTraceCoverage(t *testing.T) {
	for _, s := range specs {
		out := runSmall(t, small(s.name), true)
		if c := out.rep.m["trace.coverage_frac"].Value; c < 0.95 || c > 1.0001 {
			t.Errorf("%s: trace.coverage_frac %.4f outside [0.95, 1]", s.name, c)
		}
		for _, k := range perLayer {
			if _, ok := out.rep.m[k]; !ok {
				t.Errorf("%s: per-layer metric %s missing", s.name, k)
			}
		}
	}
}

func TestUntracedRunReportsEndToEnd(t *testing.T) {
	for _, s := range specs {
		out := runSmall(t, small(s.name), false)
		for _, k := range append([]string{"mix_p50_ms", "peak_qps", "failed_frac"}, endToEnd...) {
			if k == "failed_frac" {
				if v := out.rep.m[k]; v.Value != 0 {
					t.Errorf("%s: failed_frac %v", s.name, v.Value)
				}
				continue
			}
			if v, ok := out.rep.m[k]; !ok || !(v.Value > 0) {
				t.Errorf("%s: %s = %v (measured %v)", s.name, k, v.Value, ok)
			}
		}
	}
}

// The oracle's early-abandoned scans must agree with the program's own
// exhaustive definitions.
func TestOracleMatchesExhaustiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := corpus(rng, 80, 20, 120, dim, "t")
	db, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	es := make([]entry, len(c))
	for i, s := range c {
		id, err := db.Add(&core.Sequence{Label: s.label, Points: s.points})
		if err != nil {
			t.Fatal(err)
		}
		es[i] = entry{id, s.points}
	}
	for trial := 0; trial < 20; trial++ {
		q := noisyWindow(rng, c[rng.Intn(len(c))].points, 10+rng.Intn(40), 0.002)
		eps := []float64{0.005, 0.05, 0.2}[trial%3]
		scan, err := db.SequentialSearch(&core.Sequence{Points: q}, eps)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for _, r := range scan {
			want = append(want, r.SeqID)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := relevant(q, eps, es); !slices.Equal(got, want) {
			t.Fatalf("trial %d: relevant %v, SequentialSearch %v", trial, got, want)
		}
		all := make([]neighbor, len(es))
		for i, e := range es {
			all[i] = neighbor{e.id, core.DPoints(q, e.points)}
		}
		sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
		for i, nb := range nearest(q, 4, es) {
			if nb.id != all[i].id || math.Abs(nb.dist-all[i].dist) > 1e-12 {
				t.Fatalf("trial %d rank %d: %+v, exhaustive %+v", trial, i, nb, all[i])
			}
		}
	}
}

func TestCanonicalDropsOnlyStats(t *testing.T) {
	a := []byte(`{"results":[{"matches":[{"id":1}],"stats":{"phase1Us":3,"cpuUs":9}},{"matches":[],"stats":{"phase1Us":4}}]}`)
	b := []byte(`{"results":[{"matches":[{"id":1}],"stats":{"phase1Us":7,"cpuUs":1}},{"matches":[],"stats":{"phase1Us":5}}]}`)
	c := []byte(`{"results":[{"matches":[{"id":2}],"stats":{"phase1Us":3,"cpuUs":9}},{"matches":[],"stats":{"phase1Us":4}}]}`)
	if !bytes.Equal(canonical(a), canonical(b)) || canonicalHash(a) != canonicalHash(b) {
		t.Error("answers differing only in stats should be equal")
	}
	if bytes.Equal(canonical(a), canonical(c)) || canonicalHash(a) == canonicalHash(c) {
		t.Error("answers with different matches should differ")
	}
	if got := string(canonical(a)); got != `{"results":[{"matches":[{"id":1}],"stats":{}},{"matches":[],"stats":{}}]}` {
		t.Errorf("canonical = %s", got)
	}
}

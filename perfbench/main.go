// Command perfbench is mdseq's end-to-end benchmark. It serves the real
// internal/server handler over a loopback TCP listener from in-process
// state built the way cmd/mdsserve builds it for each workload's flags,
// drives it from one process on at most two connections — open-loop at a
// fixed offered rate for latency, then closed-loop for peak throughput —
// and checks every answer. A traced run (--trace 1) of the same workload
// and seed reports the per-layer split instead. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload engine_heavy --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the mode.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/txn"
)

// endToEnd and perLayer are the metric sets of the final JSON line for
// --trace 0 and --trace 1 (BENCHMARK.json lists the same names). The
// end-to-end set holds the metrics every workload exercises whose
// seed-to-seed spread on a 2-CPU VM stays well inside a 0.25 bound;
// the human-readable lines above it carry every metric the workload
// exercises (see README.md).
var (
	endToEnd = []string{"range_p50_ms", "setup_s", "heap_mb"}
	perLayer = []string{
		"loadgen.lag_p99_ms", "loadgen.sent",
		"net.self_p50_us",
		"server.self_p50_us", "server.self_frac", "server.req_kb", "server.resp_kb",
		"shard.self_p50_us", "shard.straggler_gap_p50_us", "shard.self_frac",
		"core.partition_us", "core.filter_us", "core.refine_us", "core.candidates_per_query",
		"core.pr_mbr", "core.pr_dnorm", "core.dnorm_evals_per_query", "core.quant_pruned_frac", "core.self_frac",
		"core.dtw_pruned_before_dp_frac", "core.dtw_evals_per_query", "core.dtw_self_p50_us",
		"cache.hit_ratio", "cache.evictions", "cache.invalidations", "cache.hit_p50_us",
		"txn.commit_p50_us", "txn.commit_p99_us", "txn.mean_group_size", "txn.fsyncs_per_commit",
		"txn.delta_adds_mean", "txn.checkpoints", "txn.checkpoint_s", "txn.drain_wait_ms", "txn.recovery_ms",
		"obs.trace_overhead_frac", "trace.coverage_frac",
	}
)

const (
	// setup_s is the median of at least minSetups setups per run, more
	// while they total under setupBudget (at most maxSetups).
	minSetups   = 3
	maxSetups   = 60
	setupBudget = time.Second
	lagLimit    = 10 // ms: an open-loop phase whose generator lag p99 exceeds this is invalid
	sampleN     = 24 // durable_churn: range and kNN queries re-checked on the final state
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: engine_heavy, codec_scatter or durable_churn")
		seed     = flag.Int64("seed", 1, "input seed (corpus, queries, arrival schedule)")
		seconds  = flag.Int("seconds", 25, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || *traceOn < 0 || *traceOn > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed N --seconds N --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	cfg := config{spec: sp, seed: *seed, seconds: float64(*seconds), trace: *traceOn == 1,
		work: work, traceOut: filepath.Join(".bench_build", "traces")}
	out, err := run(cfg, os.Stdout)
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	keys := endToEnd
	if cfg.trace {
		keys = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]metric{}}
	for _, k := range keys {
		m, ok := out.rep.m[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", k)
			os.Exit(1)
		}
		line.Metrics[k] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if out.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return strings.Join(ns, "|")
}

// config is one benchmark run.
type config struct {
	spec     spec
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory (corpus file, durable directories)
	traceOut string // where a traced run writes its spans ("" = nowhere)
	keep     bool   // retain the open-loop response bodies (tests)
}

// outcome is what run measured.
type outcome struct {
	rep               *report
	attempted, failed int
	bodies            [][]byte // open-loop bodies of the last pass, with keep
}

// tally counts checked requests and keeps the first few failures.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

func (t *tally) add(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, what+": "+err.Error())
		}
	}
}

func (t *tally) results(what string, rs []result) {
	for i := range rs {
		t.add(fmt.Sprintf("%s request %d (%s)", what, i, opNames[rs[i].kind]), rs[i].err)
	}
}

// run executes one benchmark run and prints the human-readable report.
func run(cfg config, stdout io.Writer) (*outcome, error) {
	sp := cfg.spec
	t0 := time.Now()
	in := generate(sp, cfg.seed, cfg.seconds)
	dataPath := filepath.Join(cfg.work, "corpus.mds")
	if err := writeCorpus(dataPath, in.corpus); err != nil {
		return nil, err
	}
	rep := newReport()
	var tl tally

	// Set-up, repeated; the last state serves.
	var (
		s      *served
		setups []float64
		heap   float64
	)
	var total time.Duration
	for r := 0; r < maxSetups && (r < minSetups || total < setupBudget); r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil // unreachable before the GC, so every set-up starts from the same heap
		}
		runtime.GC()
		before := heapAlloc()
		var took time.Duration
		var err error
		s, took, err = setup(sp, dataPath, filepath.Join(cfg.work, fmt.Sprintf("durable%d", r)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		total += took
		runtime.GC()
		heap = float64(int64(heapAlloc())-int64(before)) / (1 << 20)
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	rep.set("setup_s", median(setups), "s")
	rep.set("heap_mb", heap, "MiB")

	// Expected answers, outside any timed window.
	es := make([]entry, len(in.corpus))
	for i, c := range in.corpus {
		es[i] = entry{s.ids[i], c.points}
	}
	tSetup := time.Now()
	want, err := buildOracle(in, es, s.db, sp)
	if err != nil {
		return nil, err
	}
	tOracle := time.Now()

	// Warm-up: every distinct read once, fully verified; its canonical
	// hash is what the measured passes compare against.
	if err := warm(s, in, want, &tl); err != nil {
		return nil, err
	}
	tWarm := time.Now()

	nOpen := len(in.open)
	openDur := time.Duration(cfg.seconds * openFrac * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", sp.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "  %s\n", sp.why)
	fmt.Fprintf(stdout, "  preparation: inputs+set-up %.1f s, oracle %.1f s, warm-up %.1f s\n",
		tSetup.Sub(t0).Seconds(), tOracle.Sub(tSetup).Seconds(), tWarm.Sub(tOracle).Seconds())
	fmt.Fprintf(stdout, "  setup: %d runs %s s; open loop: %d requests at %.0f/s over %v on %d connections\n",
		len(setups), fmtList(setups), nOpen, sp.rate, openDur, conns)

	churn := func() *churnState { return nil }
	if sp.durable {
		churn = func() *churnState { return newChurnState(in, s.ids) }
	}
	cs := churn()
	untraced := s.handler(s.db)

	if !cfg.trace {
		rs, bodies, err := openPass(in, in.open, untraced, nil, want, cs, cfg.keep)
		if err != nil {
			return nil, err
		}
		tl.results("open-loop", rs)
		latencyMetrics(rep, rs)
		var reqB, respB float64
		for i := range rs {
			reqB, respB = reqB+float64(rs[i].reqBytes), respB+float64(rs[i].respBytes)
		}
		fmt.Fprintf(stdout, "  open loop: mean request %.2f KiB, mean answer %.2f KiB\n", reqB/float64(len(rs))/1024, respB/float64(len(rs))/1024)
		lag := lagP99(rs)
		closedDur := time.Duration(cfg.seconds * (1 - openFrac) * float64(time.Second))
		crs, elapsed, err := closedPass(in, untraced, want, cs, closedDur)
		if err != nil {
			return nil, err
		}
		tl.results("closed-loop", crs)
		rep.set("peak_qps", peakQPS(crs, elapsed), "1/s")
		fmt.Fprintf(stdout, "  generator lag p99 %.3f ms; closed loop: %d requests in %v\n", lag, len(crs), elapsed.Round(time.Millisecond))
		if lag > lagLimit {
			return nil, fmt.Errorf("invalid run: generator lag p99 %.3f ms exceeds %d ms", lag, lagLimit)
		}
		if sp.durable {
			if err := finish(s, in, cs, rep, &tl); err != nil {
				return nil, err
			}
		}
		rep.set("failed_frac", frac(float64(tl.failed), float64(tl.attempted)), "ratio")
		printReport(stdout, rep, &tl)
		return &outcome{rep: rep, attempted: tl.attempted, failed: tl.failed, bodies: bodies}, nil
	}

	// Traced run: the untraced open-loop pass for the overhead baseline,
	// then the same schedule through the span wrappers on equal state.
	rsU, _, err := openPass(in, in.open, untraced, nil, want, cs, false)
	if err != nil {
		return nil, err
	}
	tl.results("untraced open-loop", rsU)
	if sp.durable {
		if err := s.close(); err != nil {
			return nil, err
		}
		if s, _, err = setup(sp, dataPath, filepath.Join(cfg.work, "durable-traced")); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cs = churn()
	}
	t := newTracer(nOpen)
	db := t.instrument(s)
	traced := t.handler(s.handler(db))
	before := snapshotCounters(s)
	smp := startSampler(s.tdb)
	rsT, bodies, err := openPass(in, in.open, traced, t, want, cs, cfg.keep)
	samples := smp.stop()
	if err != nil {
		return nil, err
	}
	uninstrument(s)
	tl.results("traced open-loop", rsT)
	after := snapshotCounters(s)

	rep.set("loadgen.lag_p99_ms", lagP99(rsT), "ms")
	rep.set("loadgen.sent", float64(len(rsT)), "count")
	var relevant func(int) int
	if !sp.durable {
		relevant = func(i int) int {
			if enc := in.open[i]; enc >= 0 {
				return len(want[in.reads[enc].query].relevant)
			}
			return 0
		}
	}
	layerMetrics(rep, layerInputs{rs: rsT, t: t, relevant: relevant, shards: s.db.Shards()})
	cacheMetrics(rep, before, after)
	txnMetrics(rep, rsT, t, before, after, samples)
	untr, tr := latencies(rsU, ""), latencies(rsT, "")
	rep.set("obs.trace_overhead_frac", quantile(tr, 0.5)/quantile(untr, 0.5)-1, "ratio")
	rep.set("txn.recovery_ms", 0, "ms")
	if sp.durable {
		if err := finish(s, in, cs, rep, &tl); err != nil {
			return nil, err
		}
	}
	if cfg.traceOut != "" {
		kinds := make([]opKind, nOpen)
		for i := range rsT {
			kinds[i] = rsT[i].kind
		}
		path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed))
		if err := writeTrace(path, t, kinds); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  spans of %d requests written to %s\n", nOpen, path)
	}
	for _, lag := range []float64{lagP99(rsU), rep.m["loadgen.lag_p99_ms"].Value} {
		if lag > lagLimit {
			return nil, fmt.Errorf("invalid run: generator lag p99 %.3f ms exceeds %d ms", lag, lagLimit)
		}
	}
	rep.note("kNN returns no SearchStats through shard.DB: its core time is the shard.node span (db span on a txn node) with no phase split")
	printReport(stdout, rep, &tl)
	return &outcome{rep: rep, attempted: tl.attempted, failed: tl.failed, bodies: bodies}, nil
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, "/")
}

// requestAt resolves one schedule entry (read index, or ^write index).
func requestAt(in *inputs, cs *churnState, enc int) (*request, string) {
	if enc >= 0 {
		return &in.reads[enc], in.reads[enc].path
	}
	w := &in.writes[^enc]
	return w, cs.path(w)
}

// newPhase serves h on loopback and prepares a phase over the schedule
// sched: read-only answers are checked against the verified warm-up
// answers (and the oracle on a mismatch), durable_churn writes against
// the model.
func newPhase(in *inputs, sched []int, h http.Handler, t *tracer, want []expected, cs *churnState) (*phase, error) {
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	p := &phase{l: l, trace: t}
	p.req = func(i int) (*request, string) { return requestAt(in, cs, sched[i]) }
	if cs != nil {
		p.before = func(i int) { cs.before(sched[i]) }
		p.check = func(i int, r *request, status int, body []byte) error { return cs.answer(sched[i], r, status, body) }
		return p, nil
	}
	p.check = func(i int, r *request, status int, body []byte) error {
		if err := statusErr(status, http.StatusOK, body); err != nil {
			return err
		}
		if canonicalHash(body) == r.expect {
			return nil
		}
		return verify(r, body, want, in.qs)
	}
	return p, nil
}

// openPass runs the open-loop schedule against h.
func openPass(in *inputs, sched []int, h http.Handler, t *tracer, want []expected, cs *churnState, keep bool) ([]result, [][]byte, error) {
	p, err := newPhase(in, sched, h, t, want, cs)
	if err != nil {
		return nil, nil, err
	}
	if keep {
		p.keep = make([][]byte, len(sched))
	}
	rs := p.runOpen(in.at)
	if t != nil {
		t.wait()
	}
	return rs, p.keep, p.l.close()
}

// closedPass runs the closed-loop list against h for d.
func closedPass(in *inputs, h http.Handler, want []expected, cs *churnState, d time.Duration) ([]result, time.Duration, error) {
	p, err := newPhase(in, in.closed, h, nil, want, cs)
	if err != nil {
		return nil, 0, err
	}
	rs, elapsed := p.runClosed(len(in.closed), d)
	return rs, elapsed, p.l.close()
}

// warm sends every distinct read once, verifies it against the oracle
// and records the canonical hash of the verified answer.
func warm(s *served, in *inputs, want []expected, tl *tally) error {
	l, err := listen(s.handler(s.db))
	if err != nil {
		return err
	}
	p := &phase{l: l, start: time.Now()}
	p.req = func(i int) (*request, string) { return &in.reads[i], in.reads[i].path }
	p.check = func(i int, r *request, status int, body []byte) error {
		if err := statusErr(status, http.StatusOK, body); err != nil {
			return err
		}
		if err := verify(r, body, want, in.qs); err != nil {
			return err
		}
		r.expect = canonicalHash(body)
		return nil
	}
	var buf bytes.Buffer
	for i := range in.reads {
		var res result
		p.do(i, &res, &buf)
		tl.add(fmt.Sprintf("warm-up %s query %d", opNames[in.reads[i].kind], i), res.err)
	}
	return l.close()
}

// finish ends a durable_churn run: with the server quiesced it re-checks
// a sample of reads over HTTP against exhaustive scans of the final
// state, measures disk use, then closes and reopens the durability
// directory and checks every acknowledged write survived.
func finish(s *served, in *inputs, cs *churnState, rep *report, tl *tally) error {
	var sample []int
	for _, k := range []opKind{opRange, opKNN} {
		n := 0
		for ri := range in.reads {
			if in.reads[ri].kind == k && n < sampleN {
				sample = append(sample, ri)
				n++
			}
		}
	}
	es := cs.entries()
	want, err := finalExpect(in, sample, es, s.tdb)
	if err != nil {
		return err
	}
	l, err := listen(s.handler(s.db))
	if err != nil {
		return err
	}
	p := &phase{l: l, start: time.Now()}
	p.req = func(i int) (*request, string) { return &in.reads[sample[i]], in.reads[sample[i]].path }
	p.check = func(i int, r *request, status int, body []byte) error {
		if err := statusErr(status, http.StatusOK, body); err != nil {
			return err
		}
		return verify(r, body, want, in.qs)
	}
	var buf bytes.Buffer
	for i := range sample {
		var res result
		p.do(i, &res, &buf)
		tl.add(fmt.Sprintf("final-state %s query %d", opNames[in.reads[sample[i]].kind], sample[i]), res.err)
	}
	if err := l.close(); err != nil {
		return err
	}

	disk, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	rep.set("disk_bytes_per_user_byte", float64(disk)/float64(cs.ackedBytes), "ratio")
	db, took, err := cs.recover(s.tdb, s.topts)
	if db != nil {
		s.db, s.tdb = db, db
	}
	if db == nil && err != nil {
		return err
	}
	tl.add("durability check after reopen", err)
	rep.set("txn.recovery_ms", ms(took), "ms")
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// counters is a snapshot of the cache and txn counters around a pass.
type counters struct {
	hits, misses, evictions, invalidations uint64
	txn                                    txn.Stats
}

func snapshotCounters(s *served) counters {
	var c counters
	if s.db.QueryCache() != nil {
		l := obs.Label{Key: "cache", Value: "core"}
		c.hits = s.reg.Counter("mdseq_cache_hits_total", "", l).Value()
		c.misses = s.reg.Counter("mdseq_cache_misses_total", "", l).Value()
		c.evictions = s.reg.Counter("mdseq_cache_evictions_total", "", l).Value()
		c.invalidations = s.reg.Counter("mdseq_cache_invalidations_total", "", l).Value()
	}
	if s.tdb != nil {
		c.txn = s.tdb.Stats()
	}
	return c
}

func cacheMetrics(rep *report, a, b counters) {
	h, m := float64(b.hits-a.hits), float64(b.misses-a.misses)
	rep.set("cache.hit_ratio", frac(h, h+m), "ratio")
	rep.set("cache.evictions", float64(b.evictions-a.evictions), "count")
	rep.set("cache.invalidations", float64(b.invalidations-a.invalidations), "count")
}

// sampler polls txn.DB.Stats during a traced pass: the delta size a
// query scans, and each checkpoint's duration as it completes.
type sampler struct {
	stopc chan struct{}
	done  chan txnSamples
}

type txnSamples struct {
	deltaAdds []float64
	ckpt      []float64 // seconds
}

func startSampler(db *txn.DB) *sampler {
	sm := &sampler{stopc: make(chan struct{}), done: make(chan txnSamples, 1)}
	go func() {
		var out txnSamples
		defer func() { sm.done <- out }()
		if db == nil {
			<-sm.stopc
			return
		}
		last := db.Stats().Checkpoints
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stopc:
				return
			case <-tick.C:
			}
			st := db.Stats()
			out.deltaAdds = append(out.deltaAdds, float64(st.DeltaAdds))
			if st.Checkpoints != last {
				last = st.Checkpoints
				out.ckpt = append(out.ckpt, st.LastCheckpoint.Seconds())
			}
		}
	}()
	return sm
}

func (sm *sampler) stop() txnSamples {
	close(sm.stopc)
	return <-sm.done
}

func txnMetrics(rep *report, rs []result, t *tracer, a, b counters, smp txnSamples) {
	var commit []float64
	for i := range rs {
		if rs[i].ok && rs[i].kind.isWrite() {
			commit = append(commit, us(t.recs[i].DB.dur()))
		}
	}
	d := func(x, y uint64) float64 { return float64(y - x) }
	rep.set("txn.commit_p50_us", orZero(quantile(commit, 0.5)), "us")
	rep.set("txn.commit_p99_us", orZero(quantile(commit, 0.99)), "us")
	rep.set("txn.mean_group_size", frac(d(a.txn.Commits, b.txn.Commits), d(a.txn.Groups, b.txn.Groups)), "count")
	rep.set("txn.fsyncs_per_commit", frac(d(a.txn.Fsyncs, b.txn.Fsyncs), d(a.txn.Commits, b.txn.Commits)), "ratio")
	rep.set("txn.delta_adds_mean", mean(smp.deltaAdds), "count")
	rep.set("txn.checkpoints", d(a.txn.Checkpoints, b.txn.Checkpoints), "count")
	rep.set("txn.checkpoint_s", mean(smp.ckpt), "s")
	rep.set("txn.drain_wait_ms", ms(b.txn.DrainWait-a.txn.DrainWait), "ms")
}

// printReport writes every measured metric, one per line.
func printReport(w io.Writer, rep *report, tl *tally) {
	names := append([]string(nil), rep.names...)
	sort.Strings(names)
	for _, n := range names {
		m := rep.m[n]
		v := m.Value
		s := fmt.Sprintf("%.6g", v)
		if math.IsInf(v, 1) {
			s = "+Inf"
		}
		fmt.Fprintf(w, "  %-32s %14s %s\n", n, s, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  checked %d answers, %d wrong or failed\n", tl.attempted, tl.failed)
	for _, e := range tl.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
	notes []string
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{v, unit}
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(ns int64) float64        { return float64(ns) / 1e3 }

// latencies returns the latencies (ms, from the intended send to the
// complete answer; failures +Inf) of the results whose op belongs to
// group ("" = all).
func latencies(rs []result, group string) []float64 {
	var out []float64
	for i := range rs {
		if group != "" && rs[i].kind.group() != group {
			continue
		}
		if !rs[i].ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(rs[i].done-rs[i].intended))
	}
	return out
}

// minP99Samples is the sample count below which a p99 is not reported.
const minP99Samples = 1000

// latencyMetrics sets <group>_p50_ms and <group>_p99_ms for every group
// the open-loop phase exercised, and mix_p50_ms / mix_p99_ms over all.
func latencyMetrics(rep *report, rs []result) {
	for _, g := range []string{"range", "knn", "dtw", "batch", "write"} {
		xs := latencies(rs, g)
		if len(xs) == 0 {
			continue
		}
		rep.set(g+"_p50_ms", quantile(xs, 0.5), "ms")
		rep.set(g+"_p90_ms", quantile(xs, 0.9), "ms")
		if len(xs) >= minP99Samples {
			rep.set(g+"_p99_ms", quantile(xs, 0.99), "ms")
		} else {
			rep.note(g + "_p99_ms not reported: fewer than 1000 samples")
		}
	}
	xs := latencies(rs, "")
	rep.set("mix_mean_ms", mean(xs), "ms")
	rep.set("mix_p50_ms", quantile(xs, 0.5), "ms")
	rep.set("mix_p90_ms", quantile(xs, 0.9), "ms")
	rep.set("mix_p99_ms", quantile(xs, 0.99), "ms")
}

// qpsBin is the width of the closed-loop throughput bins.
const qpsBin = 500 * time.Millisecond

// peakQPS is the median, over the whole qpsBin-wide bins of a closed-loop
// phase of length d, of the successful completions per second: a
// transient stall moves one bin, not the result.
func peakQPS(rs []result, d time.Duration) float64 {
	bins := make([]float64, max(1, int(d/qpsBin)))
	n := len(bins)
	for i := range rs {
		if b := int(rs[i].done / qpsBin); rs[i].ok && b < n {
			bins[b]++
		}
	}
	return median(bins) / qpsBin.Seconds()
}

// lagP99 is the generator's p99 lateness in ms.
func lagP99(rs []result) float64 {
	xs := make([]float64, len(rs))
	for i := range rs {
		xs[i] = ms(rs[i].lag)
	}
	return quantile(xs, 0.99)
}

// layerInputs is what the per-layer metrics are computed from besides the
// spans.
type layerInputs struct {
	rs       []result
	t        *tracer
	relevant func(i int) int // exhaustive answer size of request i's range query (0 if unknown)
	shards   int
}

// layerMetrics derives the per-layer numbers of one traced phase. Self
// time is a span's duration minus what its children cover. The shard
// layer's child is the slowest shard.node (nodes run in parallel); the
// core layer is the span that calls into core.Database — the slowest
// shard.node on a ShardedDB, the db span itself on a durable txn node —
// split into Phase1/2/3 by the SearchStats of range searches. kNN returns
// no SearchStats, so its core time has no phase split.
func layerMetrics(rep *report, in layerInputs) {
	var (
		net, srv, shardSelf, gap, dtwCore, hits []float64
		p1, p2, p3, cand, evals, prm, prn       []float64
		sumClient, sumSrv, sumShard, sumCore    float64
		sumSelf, sumObserved, reqB, respB       float64
		quant, qden, dtwPre, dtwDen, dtwEvals   float64
		dtwN                                    int
	)
	for i := range in.rs {
		res, r := &in.rs[i], &in.t.recs[i]
		reqB += float64(res.reqBytes)
		respB += float64(res.respBytes)
		if !res.ok {
			continue
		}
		client, server, db := r.Client.dur(), r.Server.dur(), r.DB.dur()
		core, fast, nodes := int64(0), int64(math.MaxInt64), 0
		for j := 0; j < min(in.shards, maxShards); j++ {
			if r.Nodes[j].End == 0 {
				continue
			}
			d := r.Nodes[j].dur()
			nodes++
			core, fast = max(core, d), min(fast, d)
		}
		shardNs := int64(0)
		if nodes == 0 {
			core = db
		} else {
			shardNs = max(0, db-core)
			shardSelf = append(shardSelf, us(shardNs))
			if nodes > 1 {
				gap = append(gap, us(core-fast))
			}
		}
		netNs, srvNs := max(0, client-server), max(0, server-db)
		net = append(net, us(netNs))
		srv = append(srv, us(srvNs))
		sumClient += float64(client)
		sumSrv += float64(srvNs)
		sumShard += float64(shardNs)
		sumCore += float64(core)
		sumSelf += float64(netNs + srvNs + shardNs + core)
		sumObserved += float64(res.done - res.send)

		st := r.Stats
		switch {
		case res.kind == opRange && r.HasStats && st.CacheHit:
			hits = append(hits, us(db))
		case res.kind == opRange && r.HasStats:
			p1 = append(p1, us(int64(st.Phase1)))
			p2 = append(p2, us(int64(st.Phase2)))
			p3 = append(p3, us(int64(st.Phase3)))
			cand = append(cand, float64(st.CandidatesDmbr))
			evals = append(evals, float64(st.DnormEvals))
			quant += float64(st.QuantPruned)
			qden += float64(st.QuantPruned + st.DnormEvals)
			rel := 0
			if in.relevant != nil {
				rel = in.relevant(i)
			}
			if d := float64(st.TotalSequences - rel); d > 0 {
				prm = append(prm, float64(st.TotalSequences-st.CandidatesDmbr)/d)
				prn = append(prn, float64(st.TotalSequences-st.MatchesDnorm)/d)
			}
		case res.kind == opDTWRange || res.kind == opDTWKNN:
			dtwCore = append(dtwCore, us(core))
			if r.HasStats {
				pre := float64(st.DTWEnvPruned + st.DTWKeoghPruned)
				dtwPre += pre
				dtwDen += pre + float64(st.DTWEvals)
				dtwEvals += float64(st.DTWEvals)
				dtwN++
			}
		}
	}
	n := float64(max(1, len(in.rs)))
	rep.set("net.self_p50_us", orZero(quantile(net, 0.5)), "us")
	rep.set("server.self_p50_us", orZero(quantile(srv, 0.5)), "us")
	rep.set("server.self_frac", frac(sumSrv, sumClient), "ratio")
	rep.set("server.req_kb", reqB/n/1024, "KiB")
	rep.set("server.resp_kb", respB/n/1024, "KiB")
	rep.set("shard.self_p50_us", orZero(quantile(shardSelf, 0.5)), "us")
	rep.set("shard.straggler_gap_p50_us", orZero(quantile(gap, 0.5)), "us")
	rep.set("shard.self_frac", frac(sumShard, sumClient), "ratio")
	rep.set("core.partition_us", mean(p1), "us")
	rep.set("core.filter_us", mean(p2), "us")
	rep.set("core.refine_us", mean(p3), "us")
	rep.set("core.candidates_per_query", mean(cand), "count")
	rep.set("core.pr_mbr", mean(prm), "ratio")
	rep.set("core.pr_dnorm", mean(prn), "ratio")
	rep.set("core.dnorm_evals_per_query", mean(evals), "count")
	rep.set("core.quant_pruned_frac", frac(quant, qden), "ratio")
	rep.set("core.self_frac", frac(sumCore, sumClient), "ratio")
	rep.set("core.dtw_pruned_before_dp_frac", frac(dtwPre, dtwDen), "ratio")
	rep.set("core.dtw_evals_per_query", frac(dtwEvals, float64(dtwN)), "count")
	rep.set("core.dtw_self_p50_us", orZero(quantile(dtwCore, 0.5)), "us")
	rep.set("cache.hit_p50_us", orZero(quantile(hits, 0.5)), "us")
	rep.set("trace.coverage_frac", frac(sumSelf, sumObserved), "ratio")
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
)

// slack widens the early-abandon limits of the exhaustive scans below so
// that summation-order rounding can never abandon a window the program's
// own distance (core.Dmean) would accept; every survivor is then decided
// with core.Dmean itself.
const slack = 1 + 1e-9

// entry is one stored sequence as the exhaustive scans see it.
type entry struct {
	id     uint32
	points []geom.Point
}

// windowSums returns the early-abandoned running sum of point distances
// of short against long[j:j+len(short)], or +Inf once it exceeds limit.
func windowSum(short, long []geom.Point, limit float64) float64 {
	var sum float64
	for i, p := range short {
		q := long[i]
		var d2 float64
		for k := range p {
			d := p[k] - q[k]
			d2 += d * d
		}
		sum += math.Sqrt(d2)
		if sum > limit {
			return math.Inf(1)
		}
	}
	return sum
}

// distWithin returns D(q, s) (Definitions 2–3: the best mean point
// distance over all alignments of the shorter inside the longer) when it
// is at most bound, and +Inf otherwise. Windows are screened with an
// early-abandoned sum; survivors are measured with core.Dmean so the
// value is the one the program's exhaustive scan computes.
func distWithin(q, s []geom.Point, bound float64) float64 {
	short, long := q, s
	if len(short) > len(long) {
		short, long = long, short
	}
	k := len(short)
	best := math.Inf(1)
	for j := 0; j+k <= len(long); j++ {
		lim := math.Min(bound, best) * float64(k) * slack
		if windowSum(short, long[j:j+k], lim) == math.Inf(1) {
			continue
		}
		if d := core.Dmean(short, long[j:j+k]); d < best {
			best = d
		}
	}
	if best > bound {
		return math.Inf(1)
	}
	return best
}

// relevant returns the ids of every entry with D(q, s) <= eps, ascending:
// the exact answer set of core's SequentialSearch.
func relevant(q []geom.Point, eps float64, es []entry) []uint32 {
	var out []uint32
	for _, e := range es {
		if distWithin(q, e.points, eps) <= eps {
			out = append(out, e.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// neighbor is one ranked answer of a kNN oracle.
type neighbor struct {
	id   uint32
	dist float64
}

// nearest ranks every entry by exact D and returns the n nearest by
// (distance, id).
func nearest(q []geom.Point, n int, es []entry) []neighbor {
	var top []neighbor
	bound := math.Inf(1)
	for _, e := range es {
		d := distWithin(q, e.points, bound)
		if math.IsInf(d, 1) {
			continue
		}
		top = insertNeighbor(top, neighbor{e.id, d}, n)
		if len(top) == n {
			bound = top[n-1].dist
		}
	}
	return top
}

func insertNeighbor(top []neighbor, nb neighbor, n int) []neighbor {
	i := sort.Search(len(top), func(i int) bool { return less(nb, top[i]) })
	if i >= n {
		return top
	}
	top = append(top, neighbor{})
	copy(top[i+1:], top[i:])
	top[i] = nb
	if len(top) > n {
		top = top[:n]
	}
	return top
}

func less(a, b neighbor) bool { return a.dist < b.dist || a.dist == b.dist && a.id < b.id }

// expected is the precomputed answer to one query of a read pool.
type expected struct {
	relevant []uint32     // metric d range: exhaustive answer ids
	indexed  []core.Match // metric d range: the in-process indexed answer
	ranked   []neighbor   // kNN (d: k+1 nearest; dtw: every alignable sequence)
}

// buildOracle computes the expected answers of every query on the
// serving state, outside any timed window, on all CPUs.
func buildOracle(in *inputs, es []entry, db shard.DB, sp spec) ([]expected, error) {
	out := make([]expected, len(in.qs))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
		next = make(chan int)
	)
	m, err := core.ParseMetric("dtw", sp.dtwWindow)
	if err != nil {
		return nil, err
	}
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := in.qs[i]
				var err error
				switch q.kind {
				case opRange:
					out[i].relevant = relevant(q.points, q.eps, es)
					out[i].indexed, _, err = db.Search(&core.Sequence{Points: q.points}, q.eps)
				case opKNN:
					out[i].ranked = nearest(q.points, q.k+1, es)
				case opDTWRange:
					var all []core.MetricMatch
					all, err = db.SequentialSearchMetric(&core.Sequence{Points: q.points}, math.Inf(1), m)
					for _, a := range all {
						if !math.IsInf(a.Dist, 1) {
							out[i].ranked = append(out[i].ranked, neighbor{a.SeqID, a.Dist})
						}
					}
					sort.Slice(out[i].ranked, func(a, b int) bool { return less(out[i].ranked[a], out[i].ranked[b]) })
				}
				if err != nil {
					mu.Lock()
					ferr = fmt.Errorf("oracle for query %d: %w", i, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range in.qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, ferr
}

// Wire answers, decoded for checking.
type (
	matchWire struct {
		ID        uint32   `json:"id"`
		Label     string   `json:"label"`
		MinDnorm  float64  `json:"minDnorm"`
		Intervals [][2]int `json:"intervals"`
		Dist      float64  `json:"dist"`
	}
	searchWire struct {
		Matches []matchWire `json:"matches"`
		Partial bool        `json:"partial"`
	}
	knnWire struct {
		Neighbors []struct {
			ID   uint32  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	batchWire struct {
		Results []searchWire `json:"results"`
	}
)

// checkRange verifies a metric d range answer: no false dismissal against
// the exhaustive answer, and exactly the in-process indexed answer (ids,
// filter bounds and solution intervals).
func checkRange(got searchWire, want expected) error {
	if got.Partial {
		return fmt.Errorf("partial answer")
	}
	if len(got.Matches) != len(want.indexed) {
		return fmt.Errorf("%d matches, indexed search gives %d", len(got.Matches), len(want.indexed))
	}
	ids := make(map[uint32]bool, len(got.Matches))
	for i, g := range got.Matches {
		w := want.indexed[i]
		if g.ID != w.SeqID || g.MinDnorm != w.MinDnorm {
			return fmt.Errorf("match %d is id %d minDnorm %v, want id %d minDnorm %v", i, g.ID, g.MinDnorm, w.SeqID, w.MinDnorm)
		}
		rs := w.Interval.Ranges()
		if len(rs) != len(g.Intervals) {
			return fmt.Errorf("id %d: %d intervals, want %d", g.ID, len(g.Intervals), len(rs))
		}
		for j, r := range rs {
			if g.Intervals[j] != [2]int{r.Start, r.End} {
				return fmt.Errorf("id %d interval %d is %v, want [%d,%d)", g.ID, j, g.Intervals[j], r.Start, r.End)
			}
		}
		ids[g.ID] = true
	}
	for _, id := range want.relevant {
		if !ids[id] {
			return fmt.Errorf("false dismissal of id %d", id)
		}
	}
	return nil
}

// checkKNN verifies a metric d kNN answer against the exhaustive ranking
// (want holds k+1 entries so a tie at the k-th place is recognisable).
func checkKNN(got knnWire, want []neighbor, k int) error {
	n := k
	if len(want) < n {
		n = len(want)
	}
	if len(got.Neighbors) != n {
		return fmt.Errorf("%d neighbors, want %d", len(got.Neighbors), n)
	}
	const tol = 1e-9
	for i, g := range got.Neighbors {
		w := want[i]
		if math.Abs(g.Dist-w.dist) > tol*math.Max(1, w.dist) {
			return fmt.Errorf("rank %d dist %v, want %v", i, g.Dist, w.dist)
		}
		if g.ID == w.id {
			continue
		}
		// Only a distance tie may reorder ids.
		tied := false
		for _, o := range want {
			if o.id == g.ID && math.Abs(o.dist-w.dist) <= tol*math.Max(1, w.dist) {
				tied = true
			}
		}
		if !tied {
			return fmt.Errorf("rank %d is id %d, want %d", i, g.ID, w.id)
		}
	}
	return nil
}

// checkDTWRange verifies a DTW range answer: exactly the exhaustive
// scan's ids and distances, bit for bit.
func checkDTWRange(got searchWire, all []neighbor, eps float64) error {
	var want []neighbor
	for _, a := range all {
		if a.dist <= eps {
			want = append(want, a)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].id < want[j].id })
	if len(got.Matches) != len(want) {
		return fmt.Errorf("%d dtw matches, exhaustive scan gives %d", len(got.Matches), len(want))
	}
	for i, g := range got.Matches {
		if g.ID != want[i].id || g.Dist != want[i].dist {
			return fmt.Errorf("dtw match %d is id %d dist %v, want id %d dist %v", i, g.ID, g.Dist, want[i].id, want[i].dist)
		}
	}
	return nil
}

// checkDTWKNN verifies a DTW kNN answer: the k nearest alignable
// sequences of the exhaustive scan, ids and distances bit for bit.
func checkDTWKNN(got knnWire, all []neighbor, k int) error {
	n := k
	if len(all) < n {
		n = len(all)
	}
	if len(got.Neighbors) != n {
		return fmt.Errorf("%d dtw neighbors, want %d", len(got.Neighbors), n)
	}
	for i, g := range got.Neighbors {
		if g.Dist != all[i].dist {
			return fmt.Errorf("dtw rank %d dist %v, want %v", i, g.Dist, all[i].dist)
		}
		if g.ID != all[i].id && (i+1 >= len(all) || all[i+1].dist != all[i].dist) && (i == 0 || all[i-1].dist != all[i].dist) {
			return fmt.Errorf("dtw rank %d is id %d, want %d", i, g.ID, all[i].id)
		}
	}
	return nil
}

// verify checks one read-only answer against the oracle.
func verify(r *request, body []byte, want []expected, qs []query) error {
	switch r.kind {
	case opRange, opDTWRange:
		var got searchWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if r.kind == opDTWRange {
			return checkDTWRange(got, want[r.query].ranked, qs[r.query].eps)
		}
		return checkRange(got, want[r.query])
	case opKNN, opDTWKNN:
		var got knnWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if r.kind == opDTWKNN {
			return checkDTWKNN(got, want[r.query].ranked, qs[r.query].k)
		}
		return checkKNN(got, want[r.query].ranked, qs[r.query].k)
	case opBatch:
		var got batchWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(r.batch) {
			return fmt.Errorf("%d batch results for %d queries", len(got.Results), len(r.batch))
		}
		for i, qi := range r.batch {
			if err := checkRange(got.Results[i], want[qi]); err != nil {
				return fmt.Errorf("batch member %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for op %d", r.kind)
}

var hashSeed = maphash.MakeSeed()

// statsKey opens the one object of a search answer whose content varies
// between identical queries (phase timings).
var statsKey = []byte(`"stats":{`)

// canonical returns body with the contents of every "stats" object
// removed: what two answers to the same read-only query must share byte
// for byte.
func canonical(body []byte) []byte {
	if !bytes.Contains(body, statsKey) {
		return body
	}
	out := make([]byte, 0, len(body))
	for {
		i := bytes.Index(body, statsKey)
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i+len(statsKey)]...)
		body = body[i+len(statsKey):]
		if j := bytes.IndexByte(body, '}'); j >= 0 {
			body = body[j:]
		}
	}
}

// canonicalHash hashes canonical(body) without building it.
func canonicalHash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for {
		i := bytes.Index(body, statsKey)
		if i < 0 {
			h.Write(body)
			return h.Sum64()
		}
		h.Write(body[:i+len(statsKey)])
		body = body[i+len(statsKey):]
		if j := bytes.IndexByte(body, '}'); j >= 0 {
			body = body[j:]
		}
	}
}

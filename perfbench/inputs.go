package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geom"
)

// opKind is one kind of request the load generator sends.
type opKind uint8

const (
	opRange    opKind = iota // POST /search, metric d
	opKNN                    // POST /knn, metric d
	opDTWRange               // POST /search, metric dtw
	opDTWKNN                 // POST /knn, metric dtw
	opBatch                  // POST /batch
	opAdd                    // POST /sequences
	opAppend                 // POST /sequences/{id}/append
	opDelete                 // DELETE /sequences/{id}
	numOps
)

// group is the end-to-end latency family an op reports under.
func (k opKind) group() string {
	switch k {
	case opRange:
		return "range"
	case opKNN:
		return "knn"
	case opDTWRange, opDTWKNN:
		return "dtw"
	case opBatch:
		return "batch"
	default:
		return "write"
	}
}

func (k opKind) isWrite() bool { return k >= opAdd }

// fractalPoints draws one sequence of n points with the recursive
// midpoint-displacement construction of the paper's Section 4.1 (the
// Table 2 synthetic set): random endpoints in the unit cube, the midpoint
// displaced by dev·U(-1,1) per coordinate and clamped, recursing on both
// halves with dev halved. It is the benchmark's own copy so the inputs do
// not change when the program's generator does.
func fractalPoints(rng *rand.Rand, n, dim int) []geom.Point {
	rp := func() geom.Point {
		p := make(geom.Point, dim)
		for k := range p {
			p[k] = rng.Float64()
		}
		return p
	}
	start, end := rp(), rp()
	pts := make([]geom.Point, 0, n)
	pts = append(pts, start)
	if n > 1 {
		pts = subdivide(rng, pts, start, end, n-2, 0.25)
		pts = append(pts, end)
	}
	return pts
}

func subdivide(rng *rand.Rand, pts []geom.Point, a, b geom.Point, interior int, dev float64) []geom.Point {
	if interior <= 0 {
		return pts
	}
	mid := make(geom.Point, len(a))
	for k := range mid {
		mid[k] = math.Min(1, math.Max(0, (a[k]+b[k])/2+dev*(rng.Float64()*2-1)))
	}
	left := (interior - 1) / 2
	pts = subdivide(rng, pts, a, mid, left, dev/2)
	pts = append(pts, mid)
	return subdivide(rng, pts, mid, b, interior-1-left, dev/2)
}

// seqData is one generated sequence as the benchmark holds it.
type seqData struct {
	label  string
	points []geom.Point
}

// corpus draws count fractal sequences with lengths uniform in
// [minLen, maxLen].
func corpus(rng *rand.Rand, count, minLen, maxLen, dim int, prefix string) []seqData {
	out := make([]seqData, count)
	for i := range out {
		n := minLen + rng.Intn(maxLen-minLen+1)
		out[i] = seqData{label: fmt.Sprintf("%s-%05d", prefix, i), points: fractalPoints(rng, n, dim)}
	}
	return out
}

// noisyWindow copies qlen consecutive points of s starting at a random
// offset (the whole sequence when qlen <= 0) and adds N(0, sigma²) noise
// to every coordinate.
func noisyWindow(rng *rand.Rand, s []geom.Point, qlen int, sigma float64) []geom.Point {
	if qlen <= 0 || qlen > len(s) {
		qlen = len(s)
	}
	from := rng.Intn(len(s) - qlen + 1)
	out := make([]geom.Point, qlen)
	for i := range out {
		p := make(geom.Point, len(s[from+i]))
		for k, v := range s[from+i] {
			p[k] = v + sigma*rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

// request is one HTTP request the generator can send: a pre-encoded body
// and what the answer must be.
type request struct {
	kind   opKind
	method string
	path   string
	body   []byte

	// Read-only workloads: index into the oracle's query table and the
	// canonical hash of a verified answer (filled by the warm-up pass).
	query  int
	batch  []int
	expect uint64

	// durable_churn writes: the slot written (see churnPlan) and, for
	// adds and appends, the points sent.
	slot   int
	label  string
	points []geom.Point
}

// arrivals returns n send offsets for an open-loop phase of length d: the
// arrival instants of a Poisson process conditioned on n arrivals in d
// (sorted uniform draws), so every run of a workload offers exactly the
// same number of requests.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pointsJSON renders points as the wire format's coordinate arrays.
func pointsJSON(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

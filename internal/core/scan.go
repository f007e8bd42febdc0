package core

import (
	"math"

	"repro/internal/geom"
)

// ScanResult is the exact answer for one relevant sequence under a
// sequential scan: its true distance D(Q,S) and the exact solution
// interval of Definition 6.
type ScanResult struct {
	SeqID    uint32      // database id of the relevant sequence
	Seq      *Sequence   // the relevant sequence itself
	Dist     float64     // exact distance D(Q,S)
	Interval IntervalSet // exact solution interval (Definition 6)
}

// OffsetProfile returns, for a query q (length k) against data points s
// (length m ≥ k is not required), the mean distance of every alignment:
// profile[j] = Dmean(q, s[j:j+k]) for 0 ≤ j ≤ m−k. When the query is
// longer than the data, the roles swap per Definition 3 and profile[j] =
// Dmean(q[j:j+m], s). The profile is threshold-independent, so experiment
// harnesses compute it once per (query, sequence) pair and derive
// relevance and solution intervals for every ε from it.
func OffsetProfile(q, s []geom.Point) []float64 {
	short, long := q, s
	if len(short) > len(long) {
		short, long = long, short
	}
	k := len(short)
	if k == 0 {
		return nil
	}
	out := make([]float64, len(long)-k+1)
	for j := range out {
		out[j] = Dmean(short, long[j:j+k])
	}
	return out
}

// SolutionIntervalFromProfile converts an offset profile into the exact
// solution interval for threshold eps: every window whose mean distance
// falls under eps contributes its k points. queryLonger reports whether
// the query was the longer side (then any qualifying window makes the
// whole data sequence the interval, since the data slid inside the query).
func SolutionIntervalFromProfile(profile []float64, k, dataLen int, queryLonger bool, eps float64) IntervalSet {
	var si IntervalSet
	for j, d := range profile {
		if d > eps {
			continue
		}
		if queryLonger {
			si.Add(PointRange{Start: 0, End: dataLen})
			return si
		}
		si.Add(PointRange{Start: j, End: j + k})
	}
	return si
}

// MinOfProfile returns the smallest profile value (D(Q,S)), or +Inf for an
// empty profile.
func MinOfProfile(profile []float64) float64 {
	best := math.Inf(1)
	for _, d := range profile {
		if d < best {
			best = d
		}
	}
	return best
}

// SequentialSearch is the exact baseline the paper compares against: it
// scans every stored sequence, computes D(Q,S) by sliding alignment, and
// reports each sequence with D ≤ eps together with its exact solution
// interval. It touches raw points only — no MBRs, no index.
func (db *Database) SequentialSearch(q *Sequence, eps float64) ([]ScanResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []ScanResult
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		s := g.Seq
		profile := OffsetProfile(q.Points, s.Points)
		dist := MinOfProfile(profile)
		if dist > eps {
			continue
		}
		queryLonger := len(q.Points) > len(s.Points)
		k := len(q.Points)
		if queryLonger {
			k = len(s.Points)
		}
		si := SolutionIntervalFromProfile(profile, k, len(s.Points), queryLonger, eps)
		out = append(out, ScanResult{SeqID: uint32(id), Seq: s, Dist: dist, Interval: si})
	}
	return out, nil
}

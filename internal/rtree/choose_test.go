package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// chooseSubtreeRef is the reference R*-tree CS2 step: every pair of
// entries is evaluated with geom.Rect's own methods, no skips. The
// production chooseSubtree must pick the same index on every node.
func chooseSubtreeRef(n *node, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnlarge, bestArea := +1e308, +1e308, +1e308
		for i := range n.entries {
			enlarged := n.entries[i].rect.Union(r)
			var overlapDelta float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlapDelta += enlarged.IntersectionVolume(n.entries[j].rect) -
					n.entries[i].rect.IntersectionVolume(n.entries[j].rect)
			}
			enlarge := enlarged.Volume() - n.entries[i].rect.Volume()
			area := n.entries[i].rect.Volume()
			if overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
				(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
				best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
			}
		}
		return best
	}
	bestEnlarge, bestArea := +1e308, +1e308
	for i := range n.entries {
		enlarge := n.entries[i].rect.Enlargement(r)
		area := n.entries[i].rect.Volume()
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return best
}

// chooseCaseRect draws a rectangle for the randomized choose test. The
// mix is biased toward the cases the skips and tie-breaks hinge on:
// rects nested in others, duplicates, zero-width sides, disjoint boxes,
// and occasionally non-finite or overflowing coordinates.
func chooseCaseRect(rng *rand.Rand, dim int, pool []geom.Rect) geom.Rect {
	switch k := rng.Intn(20); {
	case k < 3 && len(pool) > 0: // duplicate
		return pool[rng.Intn(len(pool))].Clone()
	case k < 7 && len(pool) > 0: // nested inside an existing rect
		p := pool[rng.Intn(len(pool))]
		lo, hi := make(geom.Point, dim), make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			a := p.L[d] + rng.Float64()*(p.H[d]-p.L[d])
			b := a + rng.Float64()*(p.H[d]-a)
			lo[d], hi[d] = a, b
		}
		return geom.Rect{L: lo, H: hi}
	case k < 9: // degenerate: a point
		pt := make(geom.Point, dim)
		for d := range pt {
			pt[d] = rng.Float64()
		}
		return geom.RectFromPoint(pt)
	case k == 9: // non-finite or overflowing coordinate
		r := randRect(rng, dim, 0.3)
		switch rng.Intn(4) {
		case 0:
			r.L[rng.Intn(dim)] = math.NaN()
		case 1:
			r.H[rng.Intn(dim)] = math.Inf(1)
		case 2:
			r.L[rng.Intn(dim)] = math.Inf(-1)
		default:
			for d := range r.L {
				r.L[d], r.H[d] = -1e200, 1e200
			}
		}
		return r
	}
	return randRect(rng, dim, 0.1+0.5*rng.Float64())
}

// TestChooseSubtreeMatchesReference draws random nodes and insert rects
// and requires the production chooseSubtree to pick the reference's
// index, for leaf-parent and inner nodes alike.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 2, 3, 6} {
		tr := newMemTree(t, dim, 16)
		for trial := 0; trial < 3000; trial++ {
			m := 1 + rng.Intn(20)
			var pool []geom.Rect
			n := &node{}
			for i := 0; i < m; i++ {
				r := chooseCaseRect(rng, dim, pool)
				pool = append(pool, r)
				n.entries = append(n.entries, entry{rect: r})
			}
			r := chooseCaseRect(rng, dim, pool)
			for _, leaves := range []bool{true, false} {
				want := chooseSubtreeRef(n, r, leaves)
				if got := tr.chooseSubtree(n, r, leaves); got != want {
					t.Fatalf("dim %d trial %d leaves=%v: chose %d, reference %d\nnode %v\nrect %v",
						dim, trial, leaves, got, want, n.entries, r)
				}
			}
		}
	}
}

// TestInsertTreesPageIdentical builds the same tree twice by N inserts —
// once with the production chooseSubtree, once with the reference — and
// requires every page to match byte for byte.
func TestInsertTreesPageIdentical(t *testing.T) {
	for _, tc := range []struct {
		dim, maxEntries, n int
		seed               int64
	}{
		{2, 8, 1500, 41},
		{3, 16, 2000, 42},
		{4, 0, 2500, 43}, // page-derived fanout
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		fast := newMemTree(t, tc.dim, tc.maxEntries)
		ref := newMemTree(t, tc.dim, tc.maxEntries)
		ref.chooseHook = chooseSubtreeRef
		var pool []geom.Rect
		for i := 0; i < tc.n; i++ {
			var r geom.Rect
			if rng.Intn(4) == 0 && len(pool) > 0 {
				r = chooseCaseRect(rng, tc.dim, pool[len(pool)-min(len(pool), 32):])
			} else {
				r = randRect(rng, tc.dim, 0.05)
			}
			if !finiteRect(r) {
				r = randRect(rng, tc.dim, 0.05)
			}
			pool = append(pool, r)
			if err := fast.Insert(r, Ref(i)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Insert(r, Ref(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if fast.pg.NumPages() != ref.pg.NumPages() {
			t.Fatalf("dim %d: %d pages vs reference %d", tc.dim, fast.pg.NumPages(), ref.pg.NumPages())
		}
		a := make([]byte, fast.pg.PageSize())
		b := make([]byte, ref.pg.PageSize())
		for id := 0; id < fast.pg.NumPages(); id++ {
			if err := fast.pg.Read(pager.PageID(id), a); err != nil {
				t.Fatal(err)
			}
			if err := ref.pg.Read(pager.PageID(id), b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("dim %d: page %d differs from the reference build", tc.dim, id)
			}
		}
	}
}

// finiteRect reports whether every coordinate of r is finite.
func finiteRect(r geom.Rect) bool {
	for d := range r.L {
		if math.IsNaN(r.L[d]) || math.IsInf(r.L[d], 0) || math.IsNaN(r.H[d]) || math.IsInf(r.H[d], 0) {
			return false
		}
	}
	return true
}

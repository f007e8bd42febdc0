package rtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/pager"
)

// pendingReinsert is an entry removed during overflow treatment or tree
// condensation, waiting to be re-inserted at its original level.
type pendingReinsert struct {
	e     entry
	level uint32 // 1 = leaf level
}

// Insert adds a rectangle with its reference to the index.
func (t *Tree) Insert(r geom.Rect, ref Ref) error {
	if r.IsEmpty() || r.Dim() != t.dim {
		return fmt.Errorf("rtree: insert rect dim %d, want %d", r.Dim(), t.dim)
	}
	return t.restoreHeaderOnError(func() error {
		reinsertDone := make(map[uint32]bool)
		if err := t.insertEntry(entry{rect: r.Clone(), ref: ref}, 1, reinsertDone); err != nil {
			return err
		}
		t.size++
		t.dirtyMeta = true
		return t.flushMeta()
	})
}

// restoreHeaderOnError runs a structural mutation and, if it fails, puts
// back the in-memory tree header (root, height, size, free-list head) so
// a failed Insert, Delete or bulk load cannot leave the tree pointing at
// a half-built structure.
func (t *Tree) restoreHeaderOnError(fn func() error) error {
	savedRoot, savedHeight, savedSize, savedFree := t.root, t.height, t.size, t.freeHead
	if err := fn(); err != nil {
		t.root, t.height, t.size, t.freeHead = savedRoot, savedHeight, savedSize, savedFree
		t.dirtyMeta = true
		return err
	}
	return nil
}

// insertEntry inserts e at targetLevel, draining any reinsertions that the
// R*-tree overflow treatment scheduled along the way.
func (t *Tree) insertEntry(e entry, targetLevel uint32, reinsertDone map[uint32]bool) error {
	var pending []pendingReinsert
	if err := t.insertAt(t.root, t.height, targetLevel, e, reinsertDone, &pending); err != nil {
		return err
	}
	// Drain deferred reinserts. Each may itself overflow; with its level
	// already marked in reinsertDone, further overflow splits instead of
	// reinserting again, so this terminates.
	for len(pending) > 0 {
		p := pending[0]
		pending = pending[1:]
		if err := t.insertAt(t.root, t.height, p.level, p.e, reinsertDone, &pending); err != nil {
			return err
		}
	}
	return nil
}

// insertAt descends from page (at the given level) to targetLevel, inserts
// e there, and handles overflow on the way back up. It returns the node's
// new MBR and, when the node split, the entry describing the new sibling.
func (t *Tree) insertAt(page pager.PageID, level, targetLevel uint32, e entry,
	reinsertDone map[uint32]bool, pending *[]pendingReinsert) error {
	newMBR, split, err := t.insertRec(page, level, targetLevel, e, reinsertDone, pending)
	if err != nil {
		return err
	}
	_ = newMBR
	if split != nil {
		// Root split: grow the tree by one level.
		oldRoot := t.root
		newRootPage, err := t.allocNodePage()
		if err != nil {
			return err
		}
		oldRootNode, err := t.readNode(oldRoot)
		if err != nil {
			return err
		}
		root := &node{
			page: newRootPage,
			leaf: false,
			entries: []entry{
				{rect: oldRootNode.mbr(), child: oldRoot},
				*split,
			},
		}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = newRootPage
		t.height++
		t.dirtyMeta = true
	}
	return nil
}

func (t *Tree) insertRec(page pager.PageID, level, targetLevel uint32, e entry,
	reinsertDone map[uint32]bool, pending *[]pendingReinsert) (geom.Rect, *entry, error) {
	n, err := t.readNode(page)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	if level == targetLevel {
		n.entries = append(n.entries, e)
	} else {
		choose := t.chooseSubtree
		if t.chooseHook != nil {
			choose = t.chooseHook
		}
		i := choose(n, e.rect, level-1 == 1)
		childMBR, childSplit, err := t.insertRec(n.entries[i].child, level-1, targetLevel, e, reinsertDone, pending)
		if err != nil {
			return geom.Rect{}, nil, err
		}
		n.entries[i].rect = childMBR
		if childSplit != nil {
			n.entries = append(n.entries, *childSplit)
		}
	}

	if len(n.entries) <= t.maxEntries {
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.mbr(), nil, nil
	}

	// Overflow treatment (R*): on the first overflow at a non-root level
	// within one logical insertion, remove the p entries farthest from the
	// node center and schedule them for reinsertion; otherwise split.
	if page != t.root && !reinsertDone[level] {
		reinsertDone[level] = true
		kept, removed := t.pickReinsertVictims(n)
		n.entries = kept
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		for _, r := range removed {
			*pending = append(*pending, pendingReinsert{e: r, level: level})
		}
		return n.mbr(), nil, nil
	}

	left, right, err := t.splitNode(n)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	sibling := entry{rect: right.mbr(), child: right.page}
	return left.mbr(), &sibling, nil
}

// chooseSubtree implements the R*-tree CS2 step: when the children are
// leaves, pick the entry needing least overlap enlargement (ties: least
// area enlargement, then least area); otherwise least area enlargement.
//
// The overlap criterion costs O(M²) intersection volumes per call — the
// bulk of an insert — so two exact skips prune it, keeping the choice
// bit-identical to evaluating every pair with geom.Rect's methods:
//
//   - When the enlarged rect misses entry j (volume 0 from a disjoint
//     axis), entry i, which lies inside it, misses j on that axis too,
//     so the term is 0 − 0.
//   - When r already lies inside entry i, the enlarged rect is entry i
//     itself and every term is a − a, which is 0 only for finite a. This
//     skip therefore applies only to nodes whose coordinates are all
//     finite and whose bounding volume does not overflow.
func (t *Tree) chooseSubtree(n *node, r geom.Rect, childrenAreLeaves bool) int {
	d := t.dim
	if cap(t.chooseBuf) < 2*d {
		t.chooseBuf = make([]float64, 2*d)
	}
	enlarged := geom.Rect{L: t.chooseBuf[:d], H: t.chooseBuf[d : 2*d]}
	best := 0
	if !childrenAreLeaves {
		bestEnlarge, bestArea := +1e308, +1e308
		for i := range n.entries {
			ri := n.entries[i].rect
			unionInto(enlarged, ri, r)
			area := ri.Volume()
			enlarge := enlarged.Volume() - area
			if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = i, enlarge, area
			}
		}
		return best
	}
	exact := finiteNode(n, r)
	bestOverlap, bestEnlarge, bestArea := +1e308, +1e308, +1e308
	for i := range n.entries {
		ri := n.entries[i].rect
		unionInto(enlarged, ri, r)
		var overlapDelta float64
		if !exact || !ri.ContainsRect(r) {
			for j := range n.entries {
				if j == i {
					continue
				}
				rj := n.entries[j].rect
				a := intersectionVolume(enlarged.L, enlarged.H, rj.L, rj.H)
				if a == 0 {
					continue
				}
				overlapDelta += a - intersectionVolume(ri.L, ri.H, rj.L, rj.H)
			}
		}
		area := ri.Volume()
		enlarge := enlarged.Volume() - area
		if overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
			(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
		}
	}
	return best
}

// finiteNode reports whether every coordinate of n's entries and r is
// finite and the volume of their joint bounding box is finite, so no
// intersection volume among them can be NaN or infinite.
func finiteNode(n *node, r geom.Rect) bool {
	vol := 1.0
	for k := range r.L {
		lo, hi := r.L[k], r.H[k]
		if lo-lo != 0 || hi-hi != 0 { // x−x is NaN exactly when x is ±Inf or NaN
			return false
		}
		for i := range n.entries {
			l, h := n.entries[i].rect.L[k], n.entries[i].rect.H[k]
			if l-l != 0 || h-h != 0 {
				return false
			}
			lo, hi = min(lo, l), max(hi, h)
		}
		if side := hi - lo; side > 0 {
			vol *= side
		}
	}
	return vol-vol == 0
}

// unionInto writes the bounding box of a and b into dst, with exactly
// geom.Rect.Union's comparisons.
func unionInto(dst, a, b geom.Rect) {
	for k := range dst.L {
		dst.L[k], dst.H[k] = a.L[k], a.H[k]
		if b.L[k] < dst.L[k] {
			dst.L[k] = b.L[k]
		}
		if b.H[k] > dst.H[k] {
			dst.H[k] = b.H[k]
		}
	}
}

// intersectionVolume is geom.Rect.IntersectionVolume over the raw
// bounds of two non-empty rects of equal dimension, with math.Max/Min
// inlined. A NaN bound propagates as it does through math.Max/Min; the
// sign of a zero bound cannot change the result, since equal bounds
// return 0 before any product.
func intersectionVolume(aL, aH, bL, bH []float64) float64 {
	v := 1.0
	for k := range aL {
		lo := aL[k]
		if bL[k] > lo || bL[k] != bL[k] {
			lo = bL[k]
		}
		hi := aH[k]
		if bH[k] < hi || bH[k] != bH[k] {
			hi = bH[k]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// pickReinsertVictims removes the reinsertFraction of entries whose centers
// lie farthest from the node MBR's center, returning (kept, removed) with
// removed ordered closest-first ("close reinsert"). Centers are computed
// into reused buffers (CenterInto) and compared by squared distance —
// order-preserving, so the sort is the same while skipping one allocation
// and one sqrt per entry.
func (t *Tree) pickReinsertVictims(n *node) (kept, removed []entry) {
	center := make(geom.Point, t.dim)
	n.mbr().CenterInto(center)
	ec := make(geom.Point, t.dim)
	type distEntry struct {
		d float64 // squared center distance
		e entry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		e.rect.CenterInto(ec)
		des[i] = distEntry{d: ec.DistSq(center), e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	p := int(reinsertFraction * float64(len(des)))
	if p < 1 {
		p = 1
	}
	cut := len(des) - p
	for _, de := range des[:cut] {
		kept = append(kept, de.e)
	}
	for _, de := range des[cut:] {
		removed = append(removed, de.e)
	}
	return kept, removed
}

// splitNode splits an overflowing node with the R*-tree topological split:
// choose the axis minimizing total margin over all legal distributions,
// then the distribution minimizing overlap (ties: total area). The left
// half reuses n's page; the right half gets a fresh page.
func (t *Tree) splitNode(n *node) (left, right *node, err error) {
	entries := n.entries
	m := t.minEntries
	M := len(entries) - 1 // == maxEntries; len is M+1

	axis := t.chooseSplitAxis(entries, m, M)

	// Along the chosen axis, evaluate both sort orders and all legal split
	// indices; minimize overlap, then total area.
	bestOverlap, bestArea := +1e308, +1e308
	var bestSorted []entry
	bestK := -1
	for _, byUpper := range []bool{false, true} {
		sorted := make([]entry, len(entries))
		copy(sorted, entries)
		sortEntriesAxis(sorted, axis, byUpper)
		for k := m; k <= M+1-m; k++ {
			g1 := boundOf(sorted[:k])
			g2 := boundOf(sorted[k:])
			overlap := g1.IntersectionVolume(g2)
			area := g1.Volume() + g2.Volume()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestSorted = sorted
				bestK = k
			}
		}
	}

	rightPage, err := t.allocNodePage()
	if err != nil {
		return nil, nil, err
	}
	left = &node{page: n.page, leaf: n.leaf, entries: append([]entry(nil), bestSorted[:bestK]...)}
	right = &node{page: rightPage, leaf: n.leaf, entries: append([]entry(nil), bestSorted[bestK:]...)}
	if err := t.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// chooseSplitAxis returns the axis with the minimum sum of group margins
// over every legal distribution in both sort orders.
func (t *Tree) chooseSplitAxis(entries []entry, m, M int) int {
	bestAxis, bestMargin := 0, +1e308
	tmp := make([]entry, len(entries))
	for axis := 0; axis < t.dim; axis++ {
		var marginSum float64
		for _, byUpper := range []bool{false, true} {
			copy(tmp, entries)
			sortEntriesAxis(tmp, axis, byUpper)
			for k := m; k <= M+1-m; k++ {
				marginSum += boundOf(tmp[:k]).Margin() + boundOf(tmp[k:]).Margin()
			}
		}
		if marginSum < bestMargin {
			bestAxis, bestMargin = axis, marginSum
		}
	}
	return bestAxis
}

func sortEntriesAxis(es []entry, axis int, byUpper bool) {
	sort.SliceStable(es, func(i, j int) bool {
		if byUpper {
			if es[i].rect.H[axis] != es[j].rect.H[axis] {
				return es[i].rect.H[axis] < es[j].rect.H[axis]
			}
			return es[i].rect.L[axis] < es[j].rect.L[axis]
		}
		if es[i].rect.L[axis] != es[j].rect.L[axis] {
			return es[i].rect.L[axis] < es[j].rect.L[axis]
		}
		return es[i].rect.H[axis] < es[j].rect.H[axis]
	})
}

func boundOf(es []entry) geom.Rect {
	var r geom.Rect
	for i := range es {
		r.ExtendRect(es[i].rect)
	}
	return r
}

package rtree

import (
	"repro/internal/geom"
	"repro/internal/pager"
)

// Delete removes the entry with exactly this rectangle and reference.
// It returns ErrNotFound when no such entry exists.
func (t *Tree) Delete(r geom.Rect, ref Ref) error {
	return t.restoreHeaderOnError(func() error { return t.deleteLocked(r, ref) })
}

func (t *Tree) deleteLocked(r geom.Rect, ref Ref) error {
	var orphans []pendingReinsert
	found, _, underflow, err := t.deleteRec(t.root, t.height, r, ref, &orphans)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	_ = underflow // root may not underflow structurally; handled below

	// Shrink the tree: while the root is internal with a single child,
	// promote the child.
	for t.height > 1 {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if len(root.entries) != 1 {
			break
		}
		child := root.entries[0].child
		if err := t.freeNodePage(t.root); err != nil {
			return err
		}
		t.root = child
		t.height--
		t.dirtyMeta = true
	}

	// Reinsert orphaned entries at their original levels.
	reinsertDone := make(map[uint32]bool)
	for len(orphans) > 0 {
		o := orphans[0]
		orphans = orphans[1:]
		// Condensation can have lowered the tree below an orphan's level;
		// clamp so internal entries rejoin at the treetop if needed.
		lvl := o.level
		if lvl > t.height {
			lvl = t.height
		}
		if err := t.insertEntry(o.e, lvl, reinsertDone); err != nil {
			return err
		}
	}

	t.size--
	t.dirtyMeta = true
	return t.flushMeta()
}

// deleteRec removes (r, ref) from the subtree rooted at page. It reports
// whether the entry was found, the node's new MBR, and whether the node now
// underflows (so the parent should dissolve it).
func (t *Tree) deleteRec(page pager.PageID, level uint32, r geom.Rect, ref Ref,
	orphans *[]pendingReinsert) (found bool, newMBR geom.Rect, underflow bool, err error) {
	n, err := t.readNode(page)
	if err != nil {
		return false, geom.Rect{}, false, err
	}
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].ref == ref && n.entries[i].rect.Equal(r) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				if err := t.writeNode(n); err != nil {
					return false, geom.Rect{}, false, err
				}
				return true, n.mbr(), len(n.entries) < t.minEntries, nil
			}
		}
		return false, n.mbr(), false, nil
	}
	for i := range n.entries {
		if !n.entries[i].rect.ContainsRect(r) && !n.entries[i].rect.Intersects(r) {
			continue
		}
		childFound, childMBR, childUnderflow, err := t.deleteRec(n.entries[i].child, level-1, r, ref, orphans)
		if err != nil {
			return false, geom.Rect{}, false, err
		}
		if !childFound {
			continue
		}
		if childUnderflow {
			// Dissolve the child: orphan its remaining entries and drop it.
			child, err := t.readNode(n.entries[i].child)
			if err != nil {
				return false, geom.Rect{}, false, err
			}
			for _, ce := range child.entries {
				*orphans = append(*orphans, pendingReinsert{e: ce, level: level - 1})
			}
			if err := t.freeNodePage(child.page); err != nil {
				return false, geom.Rect{}, false, err
			}
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		} else {
			n.entries[i].rect = childMBR
		}
		if err := t.writeNode(n); err != nil {
			return false, geom.Rect{}, false, err
		}
		minHere := t.minEntries
		if page == t.root {
			minHere = 1 // the root may hold as few as one entry
		}
		return true, n.mbr(), len(n.entries) < minHere, nil
	}
	return false, n.mbr(), false, nil
}

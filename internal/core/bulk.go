package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// AddAll stores a whole corpus at once. Sequences are validated and
// partitioned in parallel before any lock is taken; on an empty database
// the R*-tree is then bulk-loaded with STR packing — much faster and more
// compact than repeated Add — while on a non-empty database the
// pre-partitioned sequences are inserted under one lock hold. Either way
// the batch is all-or-nothing: a failure mid-insert rolls back every
// entry of the batch, so a partial bulk is never visible to readers or to
// a later crash recovery. Returned ids are dense and in input order. As
// with Add, the database keeps references to the sequences.
func (db *Database) AddAll(seqs []*Sequence) ([]uint32, error) {
	segs, err := PartitionAll(seqs, db.opts.Dim, db.opts.Partition)
	if err != nil || len(segs) == 0 {
		return nil, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}
	if len(db.seqs) == 0 {
		return db.bulkLoadLocked(segs, nil)
	}

	// Bulk path needs an empty tree; insert the pre-partitioned batch
	// sequentially, undoing the whole batch on any failure. One region
	// notification covers the whole batch: the union of every added
	// sequence's bounds.
	var wrote geom.Rect
	ids := make([]uint32, len(seqs))
	for i, g := range segs {
		id, err := db.addSegmentedLocked(g)
		if err != nil {
			db.unwindLocked(ids[:i])
			return nil, fmt.Errorf("core: bulk insert of sequence %d: %w", i, err)
		}
		ids[i] = id
		wrote.ExtendRect(g.Bounds())
	}
	db.notifyWrite(wrote)
	db.met.RecordBulkAdd(len(seqs))
	db.met.SetShape(db.live, db.tree.Len())
	return ids, nil
}

// AddAllSegmented bulk-loads an already-partitioned directory into an
// empty database — the single bulk entry point for every id layout: the
// v2 segment store's zero-deserialization load, and the transaction
// layer's first checkpoint fold and snapshot reload. segs[i] receives id
// i. A nil slot is a tombstone: its id is reserved with no sequence and
// no index entries, and looking it up yields nil — the state Remove
// leaves behind — so a directory with removed ids round-trips with every
// live id in place. Len and the metrics count only non-nil slots.
//
// With leaves nil the R*-tree is STR bulk-loaded from the sequences'
// MBRs. With leaves set (each inner slice one packed leaf page of refs,
// as recorded by the store's packed-tree section) the leaf grouping is
// reused verbatim and only the upper levels are tiled, skipping the
// leaf-level sorts. Packed leaves are keyed by dense position, so they
// are rejected for a directory with holes. Every ref must name a valid
// (sequence, MBR) pair and the refs must cover every MBR exactly once;
// violations reject the whole load. The returned ids are 0..len(segs)-1,
// tombstones included. The database keeps references to the segments
// (and adopts segs as its directory); callers must not mutate them
// afterwards.
func (db *Database) AddAllSegmented(segs []*Segmented, leaves [][]rtree.Ref) ([]uint32, error) {
	if len(segs) == 0 {
		return nil, nil
	}
	holes := false
	for i, g := range segs {
		if g == nil {
			holes = true
			continue
		}
		if g.Seq == nil {
			return nil, fmt.Errorf("core: segment %d has no sequence", i)
		}
		if g.Seq.Dim() != db.opts.Dim {
			return nil, fmt.Errorf("core: sequence %d dim %d, database dim %d: %w",
				i, g.Seq.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
		}
	}
	if holes && leaves != nil {
		return nil, errors.New("core: packed leaves cannot index a directory with tombstones")
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}
	if len(db.seqs) > 0 {
		return nil, errors.New("core: AddAllSegmented requires an empty database")
	}
	return db.bulkLoadLocked(segs, leaves)
}

// bulkLoadLocked builds the index of an empty database over segs (nil
// slots are tombstones) and adopts segs as the directory. On an index
// error the database is left empty. Caller holds db.mu and has checked
// that leaves is nil whenever segs has holes.
func (db *Database) bulkLoadLocked(segs []*Segmented, leaves [][]rtree.Ref) ([]uint32, error) {
	total, live := 0, 0
	var wrote geom.Rect
	for _, g := range segs {
		if g != nil {
			total += len(g.MBRs)
			live++
			wrote.ExtendRect(g.Bounds())
		}
	}
	if leaves != nil {
		leafItems, err := leavesToItems(segs, leaves, total)
		if err != nil {
			return nil, err
		}
		if err := db.tree.BulkLoadLeaves(leafItems); err != nil {
			return nil, err
		}
	} else {
		items := make([]rtree.Item, 0, total)
		for i, g := range segs {
			if g == nil {
				continue
			}
			for j, m := range g.MBRs {
				items = append(items, rtree.Item{Rect: m.Rect, Ref: rtree.PackRef(uint32(i), uint32(j))})
			}
		}
		if err := db.tree.BulkLoad(items); err != nil {
			return nil, err
		}
	}
	ids := make([]uint32, len(segs))
	for i, g := range segs {
		ids[i] = uint32(i)
		if g != nil {
			g.Seq.ID = uint32(i)
		}
	}
	db.seqs = segs
	db.live = live
	db.notifyWrite(wrote)
	db.met.RecordBulkAdd(live)
	db.met.SetShape(db.live, db.tree.Len())
	return ids, nil
}

// leavesToItems resolves a packed leaf grouping of refs against the
// segments, verifying that every ref names a live (sequence, MBR) pair
// and that the grouping covers every MBR exactly once — a corrupt or
// foreign tree section must fail the load, never produce a tree that
// silently misses entries.
func leavesToItems(segs []*Segmented, leaves [][]rtree.Ref, total int) ([][]rtree.Item, error) {
	seen := make([]bool, total)
	// base[i] = number of MBRs before sequence i, for the coverage bitmap.
	base := make([]int, len(segs)+1)
	for i, g := range segs {
		base[i+1] = base[i] + len(g.MBRs)
	}
	out := make([][]rtree.Item, len(leaves))
	covered := 0
	for li, leaf := range leaves {
		items := make([]rtree.Item, len(leaf))
		for k, ref := range leaf {
			id, j := ref.Unpack()
			if int(id) >= len(segs) || int(j) >= len(segs[id].MBRs) {
				return nil, fmt.Errorf("core: packed leaf %d ref (%d,%d) out of range", li, id, j)
			}
			ord := base[id] + int(j)
			if seen[ord] {
				return nil, fmt.Errorf("core: packed leaf %d ref (%d,%d) duplicated", li, id, j)
			}
			seen[ord] = true
			covered++
			items[k] = rtree.Item{Rect: segs[id].MBRs[j].Rect, Ref: ref}
		}
		out[li] = items
	}
	if covered != total {
		return nil, fmt.Errorf("core: packed leaves cover %d of %d MBRs", covered, total)
	}
	return out, nil
}

// PartitionAll validates every sequence against dim and partitions them
// with cfg in parallel (partitioning is CPU-bound and independent), one
// worker per GOMAXPROCS. It touches no database state, so bulk loaders
// run it before taking any lock. The result is in input order.
func PartitionAll(seqs []*Sequence, dim int, cfg PartitionConfig) ([]*Segmented, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	for i, s := range seqs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: sequence %d: %w", i, err)
		}
		if s.Dim() != dim {
			return nil, fmt.Errorf("core: sequence %d dim %d, database dim %d: %w",
				i, s.Dim(), dim, geom.ErrDimensionMismatch)
		}
	}
	segs := make([]*Segmented, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				segs[i], errs[i] = NewSegmented(seqs[i], cfg)
			}
		}()
	}
	for i := range seqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: partitioning sequence %d: %w", i, err)
		}
	}
	return segs, nil
}

// unwindLocked removes the just-inserted batch prefix (ids, in insertion
// order) so a failed AddAll leaves the database exactly as it was.
// Caller holds db.mu. The ids are the most recent directory entries, so
// truncating the directory after deleting the index entries restores the
// pre-batch state (ids stay dense).
func (db *Database) unwindLocked(ids []uint32) {
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		g := db.seqs[id]
		for j, m := range g.MBRs {
			db.tree.Delete(m.Rect, rtree.PackRef(id, uint32(j)))
		}
		db.seqs = db.seqs[:id]
		db.live--
	}
}

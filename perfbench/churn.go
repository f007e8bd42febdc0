package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/txn"
)

// churnState is durable_churn's model of what the server has
// acknowledged: per slot (see churnPlan) its id, label and points. Writes
// to one slot are sent in schedule order, one at a time, so the model is
// exactly the state every acknowledged write implies.
type churnState struct {
	in *inputs

	mu         sync.Mutex
	ids        []uint32
	labels     []string
	points     [][]geom.Point
	live       []bool
	done       []chan struct{} // per write: closed once answered
	ackedBytes int64           // point bytes of every acknowledged add/append (corpus included)
}

func newChurnState(in *inputs, ids []uint32) *churnState {
	slots := len(in.corpus)
	for _, w := range in.writes {
		slots = max(slots, w.slot+1)
	}
	c := &churnState{
		in:     in,
		ids:    make([]uint32, slots),
		labels: make([]string, slots),
		points: make([][]geom.Point, slots),
		live:   make([]bool, slots),
		done:   make([]chan struct{}, len(in.writes)),
	}
	for i := range c.done {
		c.done[i] = make(chan struct{})
	}
	for i, s := range in.corpus {
		c.ids[i], c.labels[i], c.points[i], c.live[i] = ids[i], s.label, s.points, true
		c.ackedBytes += pointBytes(s.points)
	}
	return c
}

func pointBytes(pts []geom.Point) int64 { return int64(len(pts) * dim * 8) }

// deadID addresses a slot whose add was never acknowledged: the server
// answers 404 and the dependent write counts as failed.
const deadID = math.MaxUint32

// before waits until the previous write to the same slot has been
// answered (and so, for an add, until the slot has an id).
func (c *churnState) before(enc int) {
	if enc >= 0 {
		return
	}
	if p := c.in.prev[^enc]; p >= 0 {
		<-c.done[p]
	}
}

// path resolves a write's URL once its slot's id is known.
func (c *churnState) path(w *request) string {
	c.mu.Lock()
	id := c.ids[w.slot]
	if !c.live[w.slot] {
		id = deadID
	}
	c.mu.Unlock()
	switch w.kind {
	case opAppend:
		return "/sequences/" + strconv.FormatUint(uint64(id), 10) + "/append"
	case opDelete:
		return "/sequences/" + strconv.FormatUint(uint64(id), 10)
	}
	return w.path
}

// answer checks a write's answer, applies it to the model, and releases
// writes waiting on it.
func (c *churnState) answer(enc int, r *request, status int, body []byte) error {
	if enc >= 0 {
		return statusErr(status, http.StatusOK, body)
	}
	defer close(c.done[^enc])
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r.kind {
	case opAdd:
		if err := statusErr(status, http.StatusCreated, body); err != nil {
			return err
		}
		var got struct{ ID uint32 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		c.ids[r.slot], c.labels[r.slot], c.points[r.slot], c.live[r.slot] = got.ID, r.label, r.points, true
		c.ackedBytes += pointBytes(r.points)
	case opAppend:
		if err := statusErr(status, http.StatusOK, body); err != nil {
			return err
		}
		var got struct{ Length int }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		pts := append(slices.Clip(c.points[r.slot]), r.points...)
		if got.Length != len(pts) {
			return fmt.Errorf("append to slot %d: length %d, want %d", r.slot, got.Length, len(pts))
		}
		c.points[r.slot] = pts
		c.ackedBytes += pointBytes(r.points)
	case opDelete:
		if err := statusErr(status, http.StatusNoContent, body); err != nil {
			return err
		}
		c.live[r.slot] = false
	}
	return nil
}

// entries is the model's live corpus, for the exhaustive scans.
func (c *churnState) entries() []entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var es []entry
	for s, ok := range c.live {
		if ok {
			es = append(es, entry{c.ids[s], c.points[s]})
		}
	}
	return es
}

// acked reports whether slot s was ever acknowledged into existence.
func (c *churnState) acked(s int) bool {
	return s < len(c.in.corpus) || c.labels[s] != ""
}

// recover closes the durable database, reopens its directory (the
// restart an operator would do), and checks that every acknowledged add,
// append and delete is visible under its id. It returns the reopened
// database and how long the reopen took.
func (c *churnState) recover(db *txn.DB, opts txn.Options) (*txn.DB, time.Duration, error) {
	if err := db.Close(); err != nil {
		return nil, 0, fmt.Errorf("closing durable database: %w", err)
	}
	t0 := time.Now()
	db, err := txn.Open(opts)
	took := time.Since(t0)
	if err != nil {
		return nil, took, fmt.Errorf("reopening durable database: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for s := range c.ids {
		if !c.acked(s) {
			continue
		}
		g := db.Segmented(c.ids[s])
		if !c.live[s] {
			if g != nil {
				return db, took, fmt.Errorf("deleted id %d visible after reopen", c.ids[s])
			}
			continue
		}
		live++
		if g == nil {
			return db, took, fmt.Errorf("acknowledged id %d missing after reopen", c.ids[s])
		}
		if g.Seq.Label != c.labels[s] || !samePoints(g.Seq.Points, c.points[s]) {
			return db, took, fmt.Errorf("id %d differs after reopen (%d points, want %d)", c.ids[s], g.Seq.Len(), len(c.points[s]))
		}
	}
	if db.Len() != live {
		return db, took, fmt.Errorf("%d sequences after reopen, want %d", db.Len(), live)
	}
	return db, took, nil
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// finalExpect recomputes the expected answers of the sampled read
// requests on the quiesced final state: exhaustive scans over the model
// for relevance and ranking, the in-process indexed search for the exact
// d-range answer.
func finalExpect(in *inputs, sample []int, es []entry, db *txn.DB) ([]expected, error) {
	want := make([]expected, len(in.qs))
	for _, ri := range sample {
		r := &in.reads[ri]
		q := in.qs[r.query]
		switch r.kind {
		case opRange:
			want[r.query].relevant = relevant(q.points, q.eps, es)
			m, _, err := db.Search(&core.Sequence{Points: q.points}, q.eps)
			if err != nil {
				return nil, err
			}
			want[r.query].indexed = m
		case opKNN:
			want[r.query].ranked = nearest(q.points, q.k+1, es)
		}
	}
	return want, nil
}

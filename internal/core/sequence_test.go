package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestNewSequenceValidates(t *testing.T) {
	if _, err := NewSequence("ok", []geom.Point{{0.1, 0.2}}); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if _, err := NewSequence("empty", nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := NewSequence("zero-dim", []geom.Point{{}}); err == nil {
		t.Error("zero-dim point accepted")
	}
	if _, err := NewSequence("ragged", []geom.Point{{0.1}, {0.1, 0.2}}); err == nil {
		t.Error("ragged sequence accepted")
	}
}

// TestRejectsNonFinite pins fail-closed input checks: a NaN or infinite
// coordinate is refused by every write entry point, and a NaN threshold
// by every range search, instead of matching at MinDnorm=0 or returning
// an empty answer. +Inf stays a legal threshold for the exhaustive scans.
func TestRejectsNonFinite(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(5))
	populateWalks(t, db, 5, rng)
	bad := []geom.Point{{0.1, 0.2, 0.3}, {0.1, math.NaN(), 0.3}}
	writes := map[string]func() error{
		"NewSequence(NaN)": func() error { _, err := NewSequence("nan", bad); return err },
		"NewSequence(+Inf)": func() error {
			_, err := NewSequence("inf", []geom.Point{{math.Inf(1), 0, 0}})
			return err
		},
		"Add":          func() error { _, err := db.Add(&Sequence{Points: bad}); return err },
		"AddAll":       func() error { _, err := db.AddAll([]*Sequence{{Points: bad}}); return err },
		"AppendPoints": func() error { return db.AppendPoints(0, bad[1:]) },
		"Search(query)": func() error {
			_, _, err := db.Search(&Sequence{Points: bad}, 0.1)
			return err
		},
	}
	for name, f := range writes {
		if f() == nil {
			t.Errorf("%s accepted a NaN coordinate", name)
		}
	}
	if db.Len() != 5 {
		t.Errorf("Len = %d after rejected writes; want 5", db.Len())
	}

	q := randWalkSeq(rng, 20, 3)
	nan := math.NaN()
	searches := map[string]func() error{
		"Search":           func() error { _, _, err := db.Search(q, nan); return err },
		"SearchParallel":   func() error { _, _, err := db.SearchParallel(q, nan, 2); return err },
		"SearchBatch":      func() error { _, _, err := db.SearchBatch([]*Sequence{q}, nan); return err },
		"SearchMetric":     func() error { _, _, err := db.SearchMetric(q, nan, MetricD{}); return err },
		"SequentialSearch": func() error { _, err := db.SequentialSearch(q, nan); return err },
		"SequentialSearchMetric": func() error {
			_, err := db.SequentialSearchMetric(q, nan, MetricD{})
			return err
		},
	}
	for name, f := range searches {
		if f() == nil {
			t.Errorf("%s accepted eps=NaN", name)
		}
	}
	all, err := db.SequentialSearchMetric(q, math.Inf(1), MetricD{})
	if err != nil || len(all) != 5 {
		t.Errorf("SequentialSearchMetric(+Inf) = %d matches, %v; want 5, nil", len(all), err)
	}
}

func TestSequenceAccessors(t *testing.T) {
	s, err := NewSequence("abc", []geom.Point{{0.1, 0.9}, {0.2, 0.8}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	if (&Sequence{}).Dim() != 0 {
		t.Error("empty Dim should be 0")
	}
	sl := s.Slice(1, 3)
	if len(sl) != 2 || !sl[0].Equal(geom.Point{0.2, 0.8}) {
		t.Errorf("Slice = %v", sl)
	}
	b := s.Bounds()
	want := geom.MustRect(geom.Point{0.1, 0.7}, geom.Point{0.3, 0.9})
	if !b.Equal(want) {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
}

func TestSequenceCloneDeep(t *testing.T) {
	s, _ := NewSequence("x", []geom.Point{{0.5, 0.5}})
	s.ID = 42
	c := s.Clone()
	c.Points[0][0] = 0.9
	if s.Points[0][0] != 0.5 {
		t.Error("Clone shares point storage")
	}
	if c.ID != 42 || c.Label != "x" {
		t.Error("Clone lost metadata")
	}
}

func TestSequenceInUnitCube(t *testing.T) {
	in, _ := NewSequence("in", []geom.Point{{0, 0.5, 1}})
	if !in.InUnitCube() {
		t.Error("boundary sequence should be in cube")
	}
	out, _ := NewSequence("out", []geom.Point{{0.5, 0.5, 1.01}})
	if out.InUnitCube() {
		t.Error("escaping sequence reported in cube")
	}
}

func TestSegmentedRoundTripThroughDatabase(t *testing.T) {
	// The Segmented a Database stores must reference the exact sequence
	// object added (no copying) so labels and IDs stay authoritative.
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(140))
	s := randWalkSeq(rng, 60, 3)
	s.Label = "the-one"
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	g := db.Segmented(id)
	if g.Seq != s {
		t.Error("database copied the sequence")
	}
	if s.ID != id {
		t.Errorf("Add did not stamp ID: %d vs %d", s.ID, id)
	}
}

// Package core implements the paper's contribution: multidimensional data
// sequences, the MCOST partitioning algorithm that segments them into
// minimum bounding rectangles, the distance metrics D, Dmean, Dmbr and
// Dnorm, solution intervals, and the three-phase MBR-based similarity
// search over an R*-tree index, together with the exact sequential-scan
// baseline it is evaluated against.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Sequence is a multidimensional data sequence (Definition 1): a series of
// n-dimensional vectors, e.g. one color-feature point per video frame.
type Sequence struct {
	// ID identifies the sequence within a Database. Databases assign it on
	// Add; standalone sequences may leave it zero.
	ID uint32
	// Label is an optional human-readable name (file name, ticker, …).
	Label string
	// Points holds the ordered component vectors. All must share one
	// dimensionality.
	Points []geom.Point
}

// ErrEmptySequence is returned when an operation needs at least one point.
var ErrEmptySequence = errors.New("core: empty sequence")

// NewSequence validates points and wraps them in a Sequence.
func NewSequence(label string, points []geom.Point) (*Sequence, error) {
	s := &Sequence{Label: label, Points: points}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks that the sequence is non-empty, dimensionally
// consistent, and finite: a NaN or infinite coordinate would poison the
// MBR bounds, so the index could no longer promise no false dismissals.
func (s *Sequence) Validate() error {
	if len(s.Points) == 0 {
		return ErrEmptySequence
	}
	dim := len(s.Points[0])
	if dim == 0 {
		return errors.New("core: zero-dimensional point")
	}
	for i, p := range s.Points {
		if len(p) != dim {
			return fmt.Errorf("core: point %d has dim %d, want %d: %w", i, len(p), dim, geom.ErrDimensionMismatch)
		}
		for j, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("core: point %d coordinate %d is %g, want a finite value", i, j, x)
			}
		}
	}
	return nil
}

// checkEps rejects a negative or NaN range threshold. +Inf is legal and
// matches every sequence.
func checkEps(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("core: threshold %g, want >= 0", eps)
	}
	return nil
}

// Len returns the number of points.
func (s *Sequence) Len() int { return len(s.Points) }

// Dim returns the dimensionality (0 for an empty sequence).
func (s *Sequence) Dim() int {
	if len(s.Points) == 0 {
		return 0
	}
	return len(s.Points[0])
}

// Slice returns the subsequence S[i:j] (half-open, 0-based) sharing the
// backing array, mirroring the paper's S[i:j] notation (which is 1-based
// and inclusive; callers of the public API use Go conventions).
func (s *Sequence) Slice(i, j int) []geom.Point { return s.Points[i:j] }

// Clone deep-copies the sequence.
func (s *Sequence) Clone() *Sequence {
	pts := make([]geom.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = p.Clone()
	}
	return &Sequence{ID: s.ID, Label: s.Label, Points: pts}
}

// Bounds returns the MBR of the whole sequence.
func (s *Sequence) Bounds() geom.Rect {
	return geom.BoundingRect(s.Points)
}

// InUnitCube reports whether every point lies in [0,1]^n, the normalized
// space the paper's similarity mapping assumes.
func (s *Sequence) InUnitCube() bool {
	for _, p := range s.Points {
		if !p.InUnitCube() {
			return false
		}
	}
	return true
}

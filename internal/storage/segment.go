package storage

import (
	"math"
	"sync"

	"repro/internal/colvec"
	"repro/internal/schema"
	"repro/internal/types"
)

// ZoneMap summarizes one column of one sealed segment for scan pruning.
type ZoneMap struct {
	// Min and Max bound the column's non-null values in this segment
	// (NaN floats excluded); both Null when the segment has no usable
	// non-null values.
	Min, Max types.Value
	// NullCount is the number of NULLs in this segment's column.
	NullCount int
	// HasNaN disables pruning on this column: NaN breaks the ordering
	// min/max relies on (it compares as equal to everything).
	HasNaN bool
	// Mixed disables pruning when the column holds incomparable kinds.
	Mixed bool
}

// ZonePred is a pushed-down range predicate the scan operator checks
// against segment zone maps: rows can match only where the column's
// [Min, Max] intersects the bounds.
type ZonePred struct {
	Col    int
	Bounds Bounds
}

// Segment is one horizontal slice of a table: sealed segments are
// immutable columnar vectors with zone maps; the tail segment is the
// mutable row-form buffer Append writes into. Sealed segments memoize
// their row materialization on first use, so repeated full scans pay the
// boxing cost once per segment, not once per query.
type Segment struct {
	// Base is the table-wide row ID of this segment's first row.
	Base   int
	n      int
	sealed bool

	cols []*colvec.Vec // per-column vectors; sealed segments only
	zone []ZoneMap     // per-column zone maps; sealed segments only

	rows     []schema.Row // tail: live rows; sealed: memoized materialization
	rowsOnce sync.Once
}

// Len returns the segment's row count.
func (s *Segment) Len() int { return s.n }

// Sealed reports whether the segment is an immutable columnar segment
// (true) or the mutable row-form tail (false).
func (s *Segment) Sealed() bool { return s.sealed }

// Col returns the column vector for ordinal ord, or nil for the tail.
func (s *Segment) Col(ord int) *colvec.Vec {
	if !s.sealed {
		return nil
	}
	return s.cols[ord]
}

// Cols returns the segment's column vectors (nil for the tail).
func (s *Segment) Cols() []*colvec.Vec { return s.cols }

// Zone returns the column's zone map; the zero ZoneMap (never prunable)
// for the tail.
func (s *Segment) Zone(ord int) ZoneMap {
	if !s.sealed {
		return ZoneMap{Mixed: true}
	}
	return s.zone[ord]
}

// Value reads one cell without materializing the row.
func (s *Segment) Value(ord, i int) types.Value {
	if !s.sealed {
		return s.rows[i][ord]
	}
	return s.cols[ord].Value(i)
}

// Rows returns the segment as materialized rows. For the tail this is the
// live buffer; for sealed segments the rows are built from the column
// vectors once and memoized (they are immutable and shared by every
// subsequent caller).
func (s *Segment) Rows() []schema.Row {
	if !s.sealed {
		return s.rows
	}
	s.rowsOnce.Do(func() {
		ncols := len(s.cols)
		rows := make([]schema.Row, s.n)
		flat := make([]types.Value, s.n*ncols)
		for i := 0; i < s.n; i++ {
			rows[i] = flat[i*ncols : (i+1)*ncols : (i+1)*ncols]
		}
		for ord, vec := range s.cols {
			for i := 0; i < s.n; i++ {
				rows[i][ord] = vec.Value(i)
			}
		}
		s.rows = rows
	})
	return s.rows
}

// Row materializes a single row (memoizing the whole segment when sealed).
func (s *Segment) Row(i int) schema.Row { return s.Rows()[i] }

// MemBytes estimates the segment's columnar heap footprint (the memoized
// row cache is excluded — it is a derived view).
func (s *Segment) MemBytes() int64 {
	var b int64
	for _, c := range s.cols {
		b += c.MemBytes()
	}
	if !s.sealed {
		// Row-form tail: slice headers plus boxed values.
		for _, r := range s.rows {
			b += 24 + int64(len(r))*48
		}
	}
	return b
}

// CanMatch reports whether any row of this segment could satisfy the
// pushed-down range predicate. False means the whole segment is skipped;
// correctness requires only that false is never returned when a matching
// row exists, so every uncertain case (tail, NaN, mixed kinds,
// incomparable bound) answers true.
func (s *Segment) CanMatch(p ZonePred) bool {
	if !s.sealed || p.Col < 0 || p.Col >= len(s.zone) {
		return true
	}
	z := s.zone[p.Col]
	if z.HasNaN || z.Mixed {
		return true
	}
	// A column that is entirely NULL in this segment can never satisfy a
	// range predicate: comparisons with NULL are UNKNOWN, and WHERE keeps
	// only TRUE.
	if z.NullCount == s.n || z.Min.IsNull() {
		return false
	}
	b := p.Bounds.ranged()
	if b.Lo != nil {
		c, err := types.Compare(z.Max, *b.Lo)
		if err != nil {
			return true
		}
		if c < 0 || (c == 0 && !b.LoIncl) {
			return false
		}
	}
	if b.Hi != nil {
		c, err := types.Compare(z.Min, *b.Hi)
		if err != nil {
			return true
		}
		if c > 0 || (c == 0 && !b.HiIncl) {
			return false
		}
	}
	return true
}

// CanMatchAll applies CanMatch over a conjunction of zone predicates.
func (s *Segment) CanMatchAll(preds []ZonePred) bool {
	for _, p := range preds {
		if !s.CanMatch(p) {
			return false
		}
	}
	return true
}

// sealSegment columnarizes rows into an immutable segment with zone maps.
func sealSegment(base int, ncols int, rows []schema.Row) *Segment {
	seg := &Segment{Base: base, n: len(rows), sealed: true}
	seg.cols = make([]*colvec.Vec, ncols)
	seg.zone = make([]ZoneMap, ncols)
	for ord := 0; ord < ncols; ord++ {
		b := colvec.NewBuilder(len(rows))
		z := ZoneMap{Min: types.Null, Max: types.Null}
		for _, r := range rows {
			v := r[ord]
			b.Append(v)
			if v.IsNull() {
				z.NullCount++
				continue
			}
			if v.Kind() == types.KindFloat && math.IsNaN(v.Float()) {
				z.HasNaN = true
				continue
			}
			if z.Min.IsNull() {
				z.Min, z.Max = v, v
				continue
			}
			if c, err := types.Compare(v, z.Min); err != nil {
				z.Mixed = true
			} else if c < 0 {
				z.Min = v
			}
			if c, err := types.Compare(v, z.Max); err != nil {
				z.Mixed = true
			} else if c > 0 {
				z.Max = v
			}
		}
		seg.cols[ord] = b.Build()
		seg.zone[ord] = z
	}
	return seg
}

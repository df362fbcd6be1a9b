package storage

import (
	"math"

	"repro/internal/types"
)

// ColStats summarizes one column for the planner's cardinality model.
type ColStats struct {
	// NonNull is the number of non-null values.
	NonNull int
	// Distinct estimates the number of distinct non-null values.
	Distinct int
	// Min and Max are the least and greatest non-null values, NaN aside;
	// both are Null when there are none.
	Min, Max types.Value
}

// Analyze computes statistics for every column. A column with an index
// over every row takes them from it (BuildIndex read them off the sorted
// order); any other column gets a hash pass. Either way the distinct
// count is exact; at the scales this engine targets that is cheap and
// removes one source of noise from plan choices.
func (t *Table) Analyze() {
	segs := t.Segments()
	for ord := range t.Schema.Columns {
		if ix := t.indexes[ord]; ix != nil && ix.covered == t.RowCount() {
			st := ix.stats
			t.stats[ord] = &st
			continue
		}
		st := &ColStats{Min: types.Null, Max: types.Null}
		seen := make(map[string]struct{})
		var key []byte
		for _, seg := range segs {
			for i := 0; i < seg.Len(); i++ {
				v := seg.Value(ord, i)
				if v.IsNull() {
					continue
				}
				st.NonNull++
				key = types.AppendSortKey(key[:0], v, false)
				if _, ok := seen[string(key)]; !ok {
					seen[string(key)] = struct{}{}
				}
				if st.Min.IsNull() {
					st.Min, st.Max = v, v
					continue
				}
				if c, err := types.Compare(v, st.Min); err == nil && c < 0 {
					st.Min = v
				}
				if c, err := types.Compare(v, st.Max); err == nil && c > 0 {
					st.Max = v
				}
			}
		}
		st.Distinct = len(seen)
		t.stats[ord] = st
	}
}

// Stats returns the statistics for a column ordinal, or nil when Analyze
// has not run.
func (t *Table) Stats(ord int) *ColStats {
	return t.stats[ord]
}

// RangeSelectivity estimates the fraction of rows selected by a range
// predicate on this column assuming a uniform distribution between Min and
// Max. It returns a default when statistics are unavailable.
func (s *ColStats) RangeSelectivity(lo, hi *types.Value) float64 {
	const fallback = 1.0 / 3
	if s == nil || s.NonNull == 0 || s.Min.IsNull() {
		return fallback
	}
	minF, ok1 := asFloat(s.Min)
	maxF, ok2 := asFloat(s.Max)
	if !ok1 || !ok2 || maxF <= minF {
		return fallback
	}
	loF, hiF := minF, maxF
	if lo != nil {
		if f, ok := asFloat(*lo); ok {
			loF = math.Max(loF, f)
		}
	}
	if hi != nil {
		if f, ok := asFloat(*hi); ok {
			hiF = math.Min(hiF, f)
		}
	}
	if hiF <= loF {
		return 0
	}
	return (hiF - loF) / (maxF - minF)
}

// EqSelectivity estimates the fraction of rows selected by an equality
// predicate on this column.
func (s *ColStats) EqSelectivity() float64 {
	if s == nil || s.Distinct == 0 {
		return 0.1
	}
	return 1.0 / float64(s.Distinct)
}

// DistinctAfter estimates the number of distinct values remaining when a
// uniform random subset of n of the column's rows is kept, using the
// standard Cardenas formula d·(1−(1−1/d)^n). This drives the join-back
// cost model: a selective predicate correlated with the cluster key keeps
// the relevant-sequence set small (§6.2 of the paper).
func (s *ColStats) DistinctAfter(n float64) float64 {
	if s == nil || s.Distinct == 0 {
		return n
	}
	d := float64(s.Distinct)
	if n <= 0 {
		return 0
	}
	return d * (1 - math.Pow(1-1/d, n))
}

func isNaN(v types.Value) bool { return v.Kind() == types.KindFloat && math.IsNaN(v.Float()) }

func asFloat(v types.Value) (float64, bool) {
	switch v.Kind() {
	case types.KindInt, types.KindTime, types.KindInterval:
		return float64(v.Raw()), true
	case types.KindFloat:
		return v.Float(), true
	}
	return 0, false
}

// Package storage provides the in-memory table store: append-only tables
// held as immutable columnar segments (typed arrays + null bitmaps + zone
// maps, see segment.go) behind a mutable row-form tail, with optional
// sorted per-column indexes and lightweight statistics (row count,
// distinct-value estimate, min/max) consumed by the planner's cardinality
// model. It stands in for the disk/bufferpool layer of the DBMS the paper
// ran on; all rewrite strategies in the benchmarks run against the same
// store, so relative comparisons carry over.
package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/types"
)

// DefaultSegmentRows is the sealing threshold: Append columnarizes the
// mutable tail into an immutable segment every time it reaches exactly
// this many rows, so every sealed segment holds DefaultSegmentRows rows
// and rowID→segment is a single division. Overridable at process start
// with the REPRO_SEGMENT_ROWS environment variable (min 1).
var DefaultSegmentRows = 16384

func init() {
	if s := os.Getenv("REPRO_SEGMENT_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			DefaultSegmentRows = n
		}
	}
}

// Table is an in-memory relation: sealed columnar segments plus a
// row-form tail, with optional sorted indexes.
type Table struct {
	Name    string
	Schema  *schema.Schema
	segRows int
	sealed  []*Segment
	tail    []schema.Row
	indexes map[int]*Index // column ordinal -> index
	stats   map[int]*ColStats
}

// NewTable creates an empty table. The segment size is captured from
// DefaultSegmentRows at creation time.
func NewTable(name string, s *schema.Schema) *Table {
	segRows := DefaultSegmentRows
	if segRows < 1 {
		segRows = 1
	}
	return &Table{
		Name:    strings.ToLower(name),
		Schema:  s,
		segRows: segRows,
		indexes: map[int]*Index{},
		stats:   map[int]*ColStats{},
	}
}

// Append adds rows to the table's mutable tail, sealing exact
// segRows-sized chunks into immutable columnar segments as the tail
// fills. An index keeps covering the rows it was built over, and Lookup
// checks the rows appended since, so index reads stay exact; statistics
// go stale until Analyze. The loader pattern in this repo is bulk-load
// then index, matching the paper's load-then-query experiments.
func (t *Table) Append(rows ...schema.Row) error {
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("storage: row arity %d does not match schema %d for table %s", len(r), t.Schema.Len(), t.Name)
		}
	}
	t.tail = append(t.tail, rows...)
	if len(t.tail) < t.segRows {
		return nil
	}
	for len(t.tail) >= t.segRows {
		base := len(t.sealed) * t.segRows
		t.sealed = append(t.sealed, sealSegment(base, t.Schema.Len(), t.tail[:t.segRows]))
		t.tail = t.tail[t.segRows:]
	}
	// Re-home the remainder so the sealed chunks' row headers are freed.
	rest := make([]schema.Row, len(t.tail), t.segRows)
	copy(rest, t.tail)
	t.tail = rest
	return nil
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return len(t.sealed)*t.segRows + len(t.tail) }

// Segments returns the table's segments in row order: every sealed
// columnar segment, then (when non-empty) the mutable tail wrapped as an
// unsealed segment. The tail wrapper aliases the live buffer; callers
// hold the catalog read lock for the duration of a scan, so Append cannot
// run concurrently.
func (t *Table) Segments() []*Segment {
	segs := make([]*Segment, 0, len(t.sealed)+1)
	segs = append(segs, t.sealed...)
	if len(t.tail) > 0 {
		segs = append(segs, &Segment{Base: len(t.sealed) * t.segRows, n: len(t.tail), rows: t.tail})
	}
	return segs
}

// RowAt materializes the row with table-wide ID id.
func (t *Table) RowAt(id int) schema.Row {
	if k := id / t.segRows; k < len(t.sealed) {
		return t.sealed[k].Row(id - k*t.segRows)
	}
	return t.tail[id-len(t.sealed)*t.segRows]
}

// value reads column ord of the row with table-wide ID id.
func (t *Table) value(ord, id int) types.Value {
	if k := id / t.segRows; k < len(t.sealed) {
		return t.sealed[k].Value(ord, id-k*t.segRows)
	}
	return t.tail[id-len(t.sealed)*t.segRows][ord]
}

// AllRows materializes every row in table order. When the table fits one
// segment the underlying (memoized or live) slice is returned directly;
// otherwise the segments are concatenated into a fresh slice.
func (t *Table) AllRows() []schema.Row {
	if len(t.sealed) == 0 {
		return t.tail
	}
	if len(t.sealed) == 1 && len(t.tail) == 0 {
		return t.sealed[0].Rows()
	}
	out := make([]schema.Row, 0, t.RowCount())
	for _, seg := range t.Segments() {
		out = append(out, seg.Rows()...)
	}
	return out
}

// MemBytes estimates the table's segment storage footprint.
func (t *Table) MemBytes() int64 {
	var b int64
	for _, seg := range t.sealed {
		b += seg.MemBytes()
	}
	b += int64(len(t.tail)) * int64(t.Schema.Len()+1) * 48
	return b
}

// SegmentCount returns the number of sealed segments.
func (t *Table) SegmentCount() int { return len(t.sealed) }

// Index is a sorted (value, rowID) list over one column, held as parallel
// slices so range scans can hand out rowID sub-slices without copying.
// NULLs are excluded: SQL predicates never select them from an index
// range scan. It covers the table's first covered rows — those that
// existed when it was built; Table.Lookup checks the rest. stats is the
// column's statistics over those rows, read off the sorted order.
type Index struct {
	Column  int
	vals    []types.Value
	rows    []int32
	covered int
	stats   ColStats
}

// BuildIndex builds (or rebuilds) a sorted index on the named column. The
// column's non-null values are encoded into one arena of sort keys
// (types.AppendSortKey) and their entries sorted by key bytes, ties to
// the lower row ID: the (value, row ID) order.
func (t *Table) BuildIndex(column string) error {
	ord := t.Schema.IndexOf(column)
	if ord < 0 {
		return fmt.Errorf("storage: no column %q in table %s", column, t.Name)
	}
	// An entry is row id's key, arena[off:off+n].
	type entry struct {
		off int
		n   uint32
		id  int32
	}
	n := t.RowCount()
	ents := make([]entry, 0, n)
	var arena []byte
	for k, seg := range t.Segments() {
		if k == 1 { // size the arena from the first, sealed, segment's keys
			arena = slices.Grow(arena, len(arena)*(n/t.segRows))
		}
		for i := 0; i < seg.Len(); i++ {
			v := seg.Value(ord, i)
			if v.IsNull() {
				continue
			}
			off := len(arena)
			arena = types.AppendSortKey(arena, v, false)
			ents = append(ents, entry{off: off, n: uint32(len(arena) - off), id: int32(seg.Base + i)})
		}
	}
	key := func(e entry) []byte { return arena[e.off : e.off+int(e.n)] }
	slices.SortFunc(ents, func(a, b entry) int {
		if c := bytes.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	idx := &Index{
		Column:  ord,
		vals:    make([]types.Value, len(ents)),
		rows:    make([]int32, len(ents)),
		covered: n,
		stats:   ColStats{NonNull: len(ents), Min: types.Null, Max: types.Null},
	}
	for i, e := range ents {
		v := t.value(ord, int(e.id))
		idx.vals[i], idx.rows[i] = v, e.id
		if i > 0 && bytes.Equal(key(e), key(ents[i-1])) {
			continue
		}
		// A new distinct value. NaN sorts last; Max bounds the others.
		idx.stats.Distinct++
		if i == 0 || !isNaN(v) {
			idx.stats.Max = v
		}
	}
	if len(ents) > 0 {
		idx.stats.Min = idx.vals[0]
	}
	t.indexes[ord] = idx
	return nil
}

// IndexOn returns the index on the named column, or nil.
func (t *Table) IndexOn(column string) *Index {
	ord := t.Schema.IndexOf(column)
	if ord < 0 {
		return nil
	}
	return t.indexes[ord]
}

// HasIndex reports whether an index exists on the column ordinal.
func (t *Table) HasIndex(ord int) bool { return t.indexes[ord] != nil }

// Bounds describe a one-sided or two-sided range on an indexed column.
// Nil pointers mean unbounded on that side.
type Bounds struct {
	Lo     *types.Value
	LoIncl bool
	Hi     *types.Value
	HiIncl bool
	Equals *types.Value // exact-match lookup; overrides Lo/Hi
}

// ranged spells an exact-match lookup as the closed range it is.
func (b Bounds) ranged() Bounds {
	if b.Equals == nil {
		return b
	}
	v := *b.Equals
	return Bounds{Lo: &v, LoIncl: true, Hi: &v, HiIncl: true}
}

// belowLo reports whether v lies below the lower bound of a ranged b; an
// incomparable v does not.
func (b Bounds) belowLo(v types.Value) bool {
	if b.Lo == nil {
		return false
	}
	c, err := types.Compare(v, *b.Lo)
	return err == nil && (c < 0 || c == 0 && !b.LoIncl)
}

// aboveHi reports whether v lies above the upper bound of a ranged b; an
// incomparable v does.
func (b Bounds) aboveHi(v types.Value) bool {
	if b.Hi == nil {
		return false
	}
	c, err := types.Compare(v, *b.Hi)
	return err != nil || c > 0 || c == 0 && !b.HiIncl
}

// span returns the index positions [lo, hi) whose values fall inside b.
func (ix *Index) span(b Bounds) (int, int) {
	b = b.ranged()
	lo := sort.Search(len(ix.vals), func(i int) bool { return !b.belowLo(ix.vals[i]) })
	hi := sort.Search(len(ix.vals), func(i int) bool { return b.aboveHi(ix.vals[i]) })
	return lo, max(lo, hi)
}

// Lookup returns, for each of ranges (sorted ascending and disjoint), the
// IDs of the rows whose value in column ord lies inside it, in (value,
// row ID) order — the order an index range scan emits. The index on ord
// answers for the prefix it covers; the rows appended since are checked
// one by one, in sealed segments only where the zone map admits a value
// in the ranges' envelope, and merged in. A range with no such late match
// is a sub-slice view of the index's rowID array — no copy — to be
// treated as read-only; it stays valid until the index is rebuilt.
// Lookup returns nil when ord has no index.
func (t *Table) Lookup(ord int, ranges []Bounds) [][]int32 {
	ix := t.indexes[ord]
	if ix == nil {
		return nil
	}
	ranges = slices.Clone(ranges)
	for i := range ranges {
		ranges[i] = ranges[i].ranged()
	}
	type hit struct {
		v  types.Value
		id int32
	}
	late := make([][]hit, len(ranges))
	if len(ranges) > 0 && ix.covered < t.RowCount() {
		env := ZonePred{Col: ord, Bounds: Bounds{
			Lo: ranges[0].Lo, LoIncl: ranges[0].LoIncl,
			Hi: ranges[len(ranges)-1].Hi, HiIncl: ranges[len(ranges)-1].HiIncl,
		}}
		t.scanSince(ix.covered, ord, env, func(id int, v types.Value) {
			if v.IsNull() {
				return
			}
			i := sort.Search(len(ranges), func(i int) bool { return !ranges[i].aboveHi(v) })
			if i < len(ranges) && !ranges[i].belowLo(v) && !ranges[i].aboveHi(v) {
				late[i] = append(late[i], hit{v, int32(id)})
			}
		})
	}
	less := func(a, b types.Value) bool {
		c, err := types.Compare(a, b)
		return err == nil && c < 0
	}
	out := make([][]int32, len(ranges))
	for i, b := range ranges {
		lo, hi := ix.span(b)
		l := late[i]
		if len(l) == 0 {
			out[i] = ix.rows[lo:hi:hi]
			continue
		}
		// Late rows follow every covered row in ID order, so among equal
		// values they come after the index's.
		slices.SortStableFunc(l, func(a, b hit) int { c, _ := types.Compare(a.v, b.v); return c })
		ids := make([]int32, 0, hi-lo+len(l))
		j := 0
		for k := lo; k < hi; k++ {
			for ; j < len(l) && less(l[j].v, ix.vals[k]); j++ {
				ids = append(ids, l[j].id)
			}
			ids = append(ids, ix.rows[k])
		}
		for ; j < len(l); j++ {
			ids = append(ids, l[j].id)
		}
		out[i] = ids
	}
	return out
}

// scanSince calls fn with the ID and column-ord value of every row from
// ID from on, skipping the sealed segments whose zone map rules zp out.
func (t *Table) scanSince(from, ord int, zp ZonePred, fn func(id int, v types.Value)) {
	for k := from / t.segRows; k < len(t.sealed); k++ {
		seg := t.sealed[k]
		if !seg.CanMatch(zp) {
			continue
		}
		for i := max(from-seg.Base, 0); i < seg.n; i++ {
			fn(seg.Base+i, seg.Value(ord, i))
		}
	}
	base := len(t.sealed) * t.segRows
	for i := max(from-base, 0); i < len(t.tail); i++ {
		fn(base+i, t.tail[i][ord])
	}
}

// Len returns the number of non-null entries in the index.
func (ix *Index) Len() int { return len(ix.vals) }

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
	"fmt"
	"os"
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
// row-form tail, with optional sorted indexes (index.go).
type Table struct {
	Name    string
	Schema  *schema.Schema
	segRows int
	sealed  []*Segment
	tail    []schema.Row
	indexes map[int]*Index // column ordinal -> index
	stats   map[int]*ColStats
	sorter  keyed // Append's buffer for sorting index entries
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
// fills. Every index covers the new rows by the time Append returns:
// each sorts their entries into one run and folds it into its tail runs,
// or, at a seal, into the sealed segment's run (Index.add), so one row
// costs amortized O(log segRows) per index. Statistics go stale until
// Analyze.
func (t *Table) Append(rows ...schema.Row) error {
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("storage: row arity %d does not match schema %d for table %s", len(r), t.Schema.Len(), t.Name)
		}
	}
	base, from := len(t.sealed)*t.segRows, len(t.tail)
	t.tail = append(t.tail, rows...)
	seal := len(t.tail) / t.segRows
	for _, ix := range t.indexes {
		run := sortBatch(t.tail[from:], base+from, ix.Column, &t.sorter)
		ix.add(run, t.tail, base, seal, t.segRows)
	}
	if cap(t.sorter.arena) > 256<<10 { // a bulk append's buffer is not kept
		t.sorter = keyed{}
	}
	if seal == 0 {
		return nil
	}
	for k := 0; k < seal; k++ {
		t.sealed = append(t.sealed, sealSegment(base+k*t.segRows, t.Schema.Len(), t.tail[k*t.segRows:(k+1)*t.segRows]))
	}
	// Re-home the remainder so the sealed chunks' row headers are freed.
	rest := make([]schema.Row, len(t.tail)-seal*t.segRows, t.segRows)
	copy(rest, t.tail[seal*t.segRows:])
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

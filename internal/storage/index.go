package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/schema"
	"repro/internal/types"
)

// Index is a sorted (value, row ID) list over one column, held as
// immutable runs that together cover every row of the table by the time
// Append returns. NULLs are excluded: SQL predicates never select them
// from an index range scan. Each run is sorted by (sort key, row ID), the
// order types.AppendSortKey gives, and never changes once published; a
// merge allocates a new one. There are three kinds of run:
//
//   - the build run, made by BuildIndex over the rows that existed then
//     (the first covered), holds the values beside the row IDs, so a
//     lookup it alone answers is a view of its row IDs;
//   - each segment sealed since the build has a run of its later rows'
//     IDs;
//   - the tail's runs hold the IDs of the rows appended since the last
//     seal, O(log segRows) of them (see add).
//
// stats is the column's statistics over the build run.
type Index struct {
	Column  int
	vals    []types.Value
	rows    []int32
	covered int
	stats   ColStats
	segs    [][]int32 // segs[k] is the run of segment covered/segRows + k
	tail    [][]int32 // the tail's runs, oldest (and largest) first
}

// BuildIndex builds (or rebuilds) a sorted index on the named column: one
// build run over every row, its entries sorted by keyed.
func (t *Table) BuildIndex(column string) error {
	ord := t.Schema.IndexOf(column)
	if ord < 0 {
		return fmt.Errorf("storage: no column %q in table %s", column, t.Name)
	}
	n := t.RowCount()
	ks := keyed{ents: make([]keyedID, 0, n)}
	for k, seg := range t.Segments() {
		if k == 1 { // size the arena from the first, sealed, segment's keys
			ks.arena = slices.Grow(ks.arena, len(ks.arena)*(n/t.segRows))
		}
		for i := 0; i < seg.Len(); i++ {
			if v := seg.Value(ord, i); !v.IsNull() {
				ks.add(v, int32(seg.Base+i))
			}
		}
	}
	ks.sort()
	idx := &Index{
		Column:  ord,
		vals:    make([]types.Value, len(ks.ents)),
		rows:    make([]int32, len(ks.ents)),
		covered: n,
		stats:   ColStats{NonNull: len(ks.ents), Min: types.Null, Max: types.Null},
	}
	for i, e := range ks.ents {
		v := t.value(ord, int(e.id))
		idx.vals[i], idx.rows[i] = v, e.id
		if i > 0 && bytes.Equal(ks.key(e), ks.key(ks.ents[i-1])) {
			continue
		}
		// A new distinct value. NaN sorts last; Max bounds the others.
		idx.stats.Distinct++
		if i == 0 || !isNaN(v) {
			idx.stats.Max = v
		}
	}
	if len(ks.ents) > 0 {
		idx.stats.Min = idx.vals[0]
	}
	t.indexes[ord] = idx
	return nil
}

// keyed sorts row IDs by (value, row ID): each value is encoded once into
// an arena of sort keys (types.AppendSortKey), and the entries compare key
// bytes, ties to the lower row ID. Neither slice holds a pointer, and the
// keys lie side by side wherever the rows do.
type keyed struct {
	arena []byte
	ents  []keyedID
}

// keyedID is row id's key, arena[off:off+n]; pre abbreviates it (see
// sort).
type keyedID struct {
	off int
	pre uint64
	n   uint32
	id  int32
}

func (ks *keyed) add(v types.Value, id int32) {
	off := len(ks.arena)
	ks.arena = types.AppendSortKey(ks.arena, v, false)
	ks.ents = append(ks.ents, keyedID{off: off, n: uint32(len(ks.arena) - off), id: id})
}

func (ks *keyed) key(e keyedID) []byte { return ks.arena[e.off : e.off+int(e.n)] }

// sort orders the entries. Keys are abbreviated first: past the prefix
// they all share, their next 8 bytes, zero-padded, as a big-endian
// integer. A smaller abbreviation means a smaller key (a shorter key is
// padded with the lowest byte), so most comparisons are one integer
// comparison, and only equal abbreviations compare key bytes.
func (ks *keyed) sort() {
	if len(ks.ents) == 0 {
		return
	}
	first := ks.key(ks.ents[0])
	lcp := len(first)
	for _, e := range ks.ents[1:] {
		for !bytes.HasPrefix(ks.key(e), first[:lcp]) {
			lcp--
		}
	}
	for i, e := range ks.ents {
		var b [8]byte
		copy(b[:], ks.key(e)[lcp:])
		ks.ents[i].pre = binary.BigEndian.Uint64(b[:])
	}
	slices.SortFunc(ks.ents, func(a, b keyedID) int {
		if a.pre != b.pre {
			return cmp.Compare(a.pre, b.pre)
		}
		if c := bytes.Compare(ks.key(a), ks.key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
}

// sortBatch returns the IDs of the rows whose column col is not NULL, in
// (value, row ID) order; the first of rows has ID base. ks is a reused
// buffer.
func sortBatch(rows []schema.Row, base, col int, ks *keyed) []int32 {
	ks.arena, ks.ents = ks.arena[:0], ks.ents[:0]
	for i, r := range rows {
		if v := r[col]; !v.IsNull() {
			ks.add(v, int32(base+i))
		}
	}
	ks.sort()
	run := make([]int32, len(ks.ents))
	for i, e := range ks.ents {
		run[i] = e.id
	}
	return run
}

// add folds run, the sorted entries of rows appended to the tail, into
// the tail runs. tail is the tail as Append extended it, before sealing;
// its first row has ID base. If the tail's first seal whole segments are
// sealing, each one's entries leave the tail runs and merge into that
// segment's run, and the rest merge into one tail run. Otherwise the two
// newest tail runs merge while the older holds at most twice the newer's
// entries, so sizes at least double towards the oldest: O(log segRows)
// runs, and each entry is merged O(log segRows) times before its
// segment seals.
func (ix *Index) add(run []int32, tail []schema.Row, base, seal, segRows int) {
	val := rowVals{tail, base, ix.Column}
	// Appending writes past the published list's length, so a holder of
	// that list never sees it; a merge rewrites its slots, so it works
	// on a copy.
	runs := ix.tail
	if len(run) > 0 {
		runs = append(runs, run)
	}
	if seal == 0 {
		n := len(runs)
		if n >= 2 && len(runs[n-2]) <= 2*len(runs[n-1]) {
			runs = slices.Clone(runs)
		}
		for ; n >= 2 && len(runs[n-2]) <= 2*len(runs[n-1]); n-- {
			runs = append(runs[:n-2], merge(runs[n-2], runs[n-1], val))
		}
		ix.tail = runs
		return
	}
	// Split each run by segment; every piece keeps its run's order.
	pieces := make([][][]int32, seal+1) // pieces[seal]: what stays in the tail
	for _, r := range runs {
		split := make([][]int32, seal+1)
		for _, id := range r {
			k := min((int(id)-base)/segRows, seal)
			split[k] = append(split[k], id)
		}
		for k, p := range split {
			if len(p) > 0 {
				pieces[k] = append(pieces[k], p)
			}
		}
	}
	for k := 0; k < seal; k++ {
		ix.segs = append(ix.segs, mergeAll(pieces[k], val))
	}
	ix.tail = nil
	if rest := mergeAll(pieces[seal], val); len(rest) > 0 {
		ix.tail = [][]int32{rest}
	}
}

// rowVals reads column col of rows, the first of which has ID base.
type rowVals struct {
	rows      []schema.Row
	base, col int
}

func (r rowVals) at(id int32) types.Value { return r.rows[int(id)-r.base][r.col] }

// merge returns a new run holding the entries of runs a and b, whose
// values val reads, in (value, row ID) order. Every row ID of a is below
// every one of b (runs cover consecutive rows), so equal values take a's
// first. It copies stretches: a's entries up to b's head, then b's below
// a's new head, and so on, each found by galloping, so a merge costs
// comparisons per switch between the runs rather than per entry.
func merge(a, b []int32, val rowVals) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		vb := val.at(b[0])
		k := gallop(a, func(id int32) bool { return types.CompareSortKey(val.at(id), vb) > 0 })
		out, a = append(out, a[:k]...), a[k:]
		if len(a) == 0 {
			break
		}
		va := val.at(a[0])
		k = gallop(b, func(id int32) bool { return types.CompareSortKey(val.at(id), va) >= 0 })
		out, b = append(out, b[:k]...), b[k:]
	}
	return append(append(out, a...), b...)
}

// gallop returns the first position of run at which past holds (it holds
// from there on), probing positions 0, 1, 3, 7, ... and then searching
// between the last two probes.
func gallop(run []int32, past func(int32) bool) int {
	lo, hi := 0, 0 // past is false before lo; hi is the next probe
	for hi < len(run) && !past(run[hi]) {
		lo, hi = hi+1, 2*hi+1
	}
	hi = min(hi, len(run))
	return lo + sort.Search(hi-lo, func(i int) bool { return past(run[lo+i]) })
}

// mergeAll merges runs, oldest first, into one, the newest two first.
func mergeAll(runs [][]int32, val rowVals) []int32 {
	if len(runs) == 0 {
		return nil
	}
	for n := len(runs); n > 1; n-- {
		runs[n-2] = merge(runs[n-2], runs[n-1], val)
	}
	return runs[0]
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

// An index range is an interval of the index's order, inside the sort
// class of its bounds: a value of another class than a bound is outside
// it (SQL never compares them true), and so is every value when the two
// bounds' classes differ. Within a class, sort-key order is Compare's,
// except that NaN is one value above +Inf and an INT beyond ±2^53 is
// ordered exactly against a FLOAT.

// belowLo reports whether v sorts below the ranged b: before Lo, or,
// when only Hi bounds b, in a class before Hi's.
func (b Bounds) belowLo(v types.Value) bool {
	if b.Lo == nil {
		return b.Hi != nil && types.CompareSortClass(v, *b.Hi) < 0
	}
	c := types.CompareSortKey(v, *b.Lo)
	return c < 0 || c == 0 && !b.LoIncl
}

// aboveHi reports whether v sorts above the ranged b: after Hi, or, when
// only Lo bounds b, in a class after Lo's.
func (b Bounds) aboveHi(v types.Value) bool {
	if b.Hi == nil {
		return b.Lo != nil && types.CompareSortClass(v, *b.Lo) > 0
	}
	c := types.CompareSortKey(v, *b.Hi)
	return c > 0 || c == 0 && !b.HiIncl
}

// span returns the positions [lo, hi) of an n-entry run, whose values at
// reads, that fall inside the ranged b.
func (b Bounds) span(n int, at func(int) types.Value) (int, int) {
	if b.Lo != nil && b.Hi != nil && types.CompareSortClass(*b.Lo, *b.Hi) != 0 {
		return 0, 0
	}
	lo := sort.Search(n, func(i int) bool { return !b.belowLo(at(i)) })
	hi := lo + sort.Search(n-lo, func(i int) bool { return b.aboveHi(at(lo + i)) })
	return lo, hi
}

// Lookup returns, for each of ranges (sorted ascending and disjoint), the
// IDs of the rows whose value in column ord lies inside it, in (value,
// row ID) order — the order an index range scan emits. It binary-searches
// every run of the index on ord: the build run, the run of each segment
// sealed since whose zone map admits a value in the ranges' envelope,
// and the tail's runs; the later runs' hits are merged in. A range no
// later run matches is a sub-slice view of the build run's row IDs — no
// copy — to be treated as read-only; it stays valid until the index is
// rebuilt. Lookup returns nil when ord has no index.
func (t *Table) Lookup(ord int, ranges []Bounds) [][]int32 {
	ix := t.indexes[ord]
	if ix == nil {
		return nil
	}
	out := make([][]int32, len(ranges))
	if len(ranges) == 0 {
		return out
	}
	late := ix.tail
	if len(ix.segs) > 0 {
		first, last := ranges[0].ranged(), ranges[len(ranges)-1].ranged()
		env := ZonePred{Col: ord, Bounds: Bounds{Lo: first.Lo, LoIncl: first.LoIncl, Hi: last.Hi, HiIncl: last.HiIncl}}
		late = nil
		for k, r := range ix.segs {
			if len(r) > 0 && t.sealed[ix.covered/t.segRows+k].CanMatch(env) {
				late = append(late, r)
			}
		}
		late = append(late, ix.tail...)
	}
	type hit struct {
		v  types.Value
		id int32
	}
	var hits []hit
	for i, b := range ranges {
		b = b.ranged()
		lo, hi := b.span(len(ix.vals), func(k int) types.Value { return ix.vals[k] })
		hits = hits[:0]
		for _, r := range late {
			l, h := b.span(len(r), func(k int) types.Value { return t.value(ord, int(r[k])) })
			for _, id := range r[l:h] {
				hits = append(hits, hit{t.value(ord, int(id)), id})
			}
		}
		if len(hits) == 0 {
			out[i] = ix.rows[lo:hi:hi]
			continue
		}
		slices.SortFunc(hits, func(a, b hit) int {
			if c := types.CompareSortKey(a.v, b.v); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		// Later runs hold rows appended after the build, so among equal
		// values their IDs come after the build run's.
		ids := make([]int32, 0, hi-lo+len(hits))
		j := 0
		for k := lo; k < hi; k++ {
			for ; j < len(hits) && types.CompareSortKey(hits[j].v, ix.vals[k]) < 0; j++ {
				ids = append(ids, hits[j].id)
			}
			ids = append(ids, ix.rows[k])
		}
		for ; j < len(hits); j++ {
			ids = append(ids, hits[j].id)
		}
		out[i] = ids
	}
	return out
}

// Len returns the number of entries in the index: the non-null values of
// its column.
func (ix *Index) Len() int {
	n := len(ix.rows)
	for _, runs := range [][][]int32{ix.segs, ix.tail} {
		for _, r := range runs {
			n += len(r)
		}
	}
	return n
}

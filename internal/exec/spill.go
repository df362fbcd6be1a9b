// Spill-to-disk execution paths. When an operator's memory reservation
// fails under a per-query budget (govern.Resources) and spilling is
// enabled, the three materialization-heavy operators degrade gracefully
// instead of failing the query:
//
//   - SortNode runs an external merge sort: contiguous input chunks are
//     key-evaluated and stable-sorted within a bounded memory window, each
//     run is written to a temp file as (row index, key values) records, and
//     a k-way merge re-reads the runs picking the smallest head with ties
//     toward the earliest run. Chunks are contiguous input ranges, so
//     earliest-run tie-breaking is exactly the stability rule and the merge
//     yields the same permutation as the serial stable sort.
//
//   - GroupNode runs a grace-hash aggregation: row indexes are partitioned
//     by group-key hash into temp files, then each partition is folded with
//     its own hash table, re-reading rows in ascending global index order —
//     the same fold order as the serial path, so floating-point
//     accumulation associates identically. Groups are sequenced by first
//     appearance across all partitions, restoring the serial output order.
//     Keyless (global) aggregation skips files entirely and folds
//     streaming in O(1) working memory.
//
//   - HashJoinNode runs a grace-hash join: both sides' row indexes are
//     partitioned by key hash, each partition builds and probes serially in
//     ascending index order, and the per-partition outputs (tagged with
//     their probe-row index) are stably re-ordered by that index — each
//     probe row belongs to exactly one partition, so the result is the
//     serial probe order exactly.
//
// Only row indexes and evaluated key values go to disk; the input rows
// themselves are already materialized (a breaker's input arrives whole
// through Run), so spilling bounds each operator's own working state —
// sort-key arrays, hash tables — which is what a budget below the working
// set actually constrains.
package exec

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// Per-row accounting estimates. The accountant is deliberately
// order-of-magnitude: a types.Value is a 40-byte tagged union plus
// allocator overhead, a schema.Row costs a slice header plus its backing
// array, and hash-table entries carry encoded keys. These constants keep
// every operator's charge on the same scale so one budget knob governs
// them all.
const (
	// ValueBytes estimates one materialized types.Value. Exported so the
	// planner's memory estimates (EXPLAIN's mem=) stay on the executor's
	// accounting scale.
	ValueBytes = 48
	// RowHdrBytes estimates one schema.Row slice header / row reference.
	RowHdrBytes = 24
	// KeyRefBytes estimates one encoded composite key plus its hash and
	// table entry.
	KeyRefBytes = 48

	valueBytes  = ValueBytes
	rowHdrBytes = RowHdrBytes
	keyRefBytes = KeyRefBytes

	// spillFileOverhead is the buffered-I/O window per open spill file
	// (matches govern's internal buffer size).
	spillFileOverhead = 64 << 10
)

// reserveOrCharge is the accounting call for operators that cannot shrink
// their footprint by spilling (scans, filter and project stages per
// morsel, windows, distinct, set operations — their output lives in
// memory either way).
// When the query cannot degrade to disk the budget is enforced: the
// reservation fails with ErrResourceExhausted. When spilling is enabled
// the bytes are charged without failing, preserving the contract that a
// spill-enabled query always completes — the budget pressure it creates
// instead pushes the spillable operators (sort, group, join) to disk.
func (c *Ctx) reserveOrCharge(n int64) error {
	if c.res.CanSpill() {
		c.res.Charge(n)
		return nil
	}
	return c.res.Reserve(n)
}

// ---- Spill records ----

// writeUvarint writes an unsigned varint (row indexes, record lengths).
func writeUvarint(w *govern.SpillFile, x uint64) error {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], x)
	_, err := w.Write(b[:n])
	return err
}

// spillChunkRows sizes an external-sort run so its in-memory working set
// (keys plus bookkeeping) stays well under the budget. With no limit set
// (spill forced by fault injection) a generous default applies.
func spillChunkRows(limit, perRow int64) int {
	const (
		minRows = 256
		defRows = 64 << 10
	)
	if limit <= 0 || perRow <= 0 {
		return defRows
	}
	rows := limit / (4 * perRow)
	if rows < minRows {
		rows = minRows
	}
	if rows > defRows {
		rows = defRows
	}
	return int(rows)
}

// gracePartitions picks the partition fan-out for grace hashing: enough
// partitions that one partition's working state fits the budget, bounded
// to keep the open-file count and buffer memory sane.
func gracePartitions(work, limit int64) int {
	const (
		minParts = 2
		maxParts = 64
	)
	if limit <= 0 || work <= 0 {
		return 8
	}
	p := int(work/limit) + 1
	if p < minParts {
		p = minParts
	}
	if p > maxParts {
		p = maxParts
	}
	return p
}

// ---- External merge sort ----

// sortRun is one run's merge cursor: the current head record plus its
// reader. A run record is a uvarint length, then the row index as a
// uvarint and the key values in the types value codec.
type sortRun struct {
	rd     *govern.SpillReader
	buf    []byte
	rowIdx int
	key    []types.Value
	ok     bool
}

func (n *SortNode) advanceRun(r *sortRun, nk int) error {
	size, err := binary.ReadUvarint(r.rd)
	if err == io.EOF {
		r.ok = false
		return nil
	}
	if err == nil {
		r.buf = slices.Grow(r.buf[:0], int(size))[:size]
		_, err = io.ReadFull(r.rd, r.buf)
	}
	idx, off := binary.Uvarint(r.buf)
	if err == nil && off <= 0 {
		err = io.ErrUnexpectedEOF
	}
	for j := 0; err == nil && j < nk; j++ {
		var m int
		r.key[j], m, err = types.ReadValue(r.buf[off:])
		off += m
	}
	if err != nil {
		return fmt.Errorf("exec: reading sort run: %w", err)
	}
	r.rowIdx, r.ok = int(idx), true
	return nil
}

// externalSort is SortNode's disk path: sorted runs over contiguous input
// chunks, then a k-way merge. See the package comment for why the merged
// permutation is bit-identical to the serial stable sort.
func (n *SortNode) externalSort(ctx *Ctx, in *Result) (*Result, error) {
	nrows := len(in.Rows)
	if nrows == 0 {
		return &Result{Schema: n.schema, Rows: []schema.Row{}}, nil
	}
	nk := len(n.Keys)
	perRow := int64(nk)*valueBytes + rowHdrBytes + 16
	runRows := spillChunkRows(ctx.res.Limit(), perRow)

	var runs []*sortRun
	defer func() {
		for _, r := range runs {
			r.rd.Discard()
		}
	}()

	var spillBytes int64
	var rec []byte
	keys := make([][]types.Value, runRows)
	idx := make([]int, runRows)
	for lo := 0; lo < nrows; lo += runRows {
		hi := lo + runRows
		if hi > nrows {
			hi = nrows
		}
		chunkBytes := int64(hi-lo)*perRow + spillFileOverhead
		ctx.res.Charge(chunkBytes)
		cn := hi - lo
		for i := 0; i < cn; i++ {
			if err := ctx.Tick(i); err != nil {
				ctx.res.Release(chunkBytes)
				return nil, err
			}
			ks := keys[i]
			if ks == nil {
				ks = make([]types.Value, nk)
				keys[i] = ks
			}
			for j, f := range n.Keys {
				v, err := f.Eval(in.Rows[lo+i])
				if err != nil {
					ctx.res.Release(chunkBytes)
					return nil, err
				}
				ks[j] = v
			}
			idx[i] = i
		}
		loc := idx[:cn]
		sort.SliceStable(loc, func(a, b int) bool {
			return n.cmpKeys(keys[loc[a]], keys[loc[b]]) < 0
		})

		sf, err := ctx.res.NewSpillFile("sort")
		if err != nil {
			ctx.res.Release(chunkBytes)
			return nil, err
		}
		for _, li := range loc {
			rec = binary.AppendUvarint(rec[:0], uint64(lo+li))
			for _, v := range keys[li] {
				rec = types.AppendValue(rec, v)
			}
			err := writeUvarint(sf, uint64(len(rec)))
			if err == nil {
				_, err = sf.Write(rec)
			}
			if err != nil {
				sf.Discard()
				ctx.res.Release(chunkBytes)
				return nil, fmt.Errorf("exec: writing sort run: %w", err)
			}
		}
		spillBytes += sf.Bytes()
		rd, err := sf.Finish()
		ctx.res.Release(chunkBytes)
		if err != nil {
			return nil, err
		}
		runs = append(runs, &sortRun{rd: rd, key: make([]types.Value, nk)})
	}
	ctx.noteSpill(n, len(runs), spillBytes)

	// Merge cursors plus the output row references are the steady-state
	// working set; charge it (non-failing — spill mode completes).
	mergeBytes := int64(len(runs))*(spillFileOverhead+int64(nk)*valueBytes) + int64(nrows)*rowHdrBytes
	ctx.res.Charge(mergeBytes)
	defer ctx.res.Release(int64(len(runs)) * (spillFileOverhead + int64(nk)*valueBytes))

	for _, r := range runs {
		if err := n.advanceRun(r, nk); err != nil {
			return nil, err
		}
	}
	out := make([]schema.Row, 0, nrows)
	for len(out) < nrows {
		if err := ctx.Tick(len(out)); err != nil {
			return nil, err
		}
		best := -1
		for c, r := range runs {
			if !r.ok {
				continue
			}
			if best < 0 || n.cmpKeys(r.key, runs[best].key) < 0 {
				best = c
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("exec: sort runs exhausted at %d of %d rows", len(out), nrows)
		}
		out = append(out, in.Rows[runs[best].rowIdx])
		if err := n.advanceRun(runs[best], nk); err != nil {
			return nil, err
		}
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// ---- Grace-hash aggregation ----

// writeIdxPartitions routes each row index to hash(key)%P, writing it as
// a uvarint record into that partition's file. Rows whose skip callback
// reports true are not written. Files are created lazily; empty
// partitions stay nil.
func writeIdxPartitions(ctx *Ctx, label string, nrows, parts int,
	route func(i int) (part uint64, skip bool, err error)) ([]*govern.SpillFile, error) {
	files := make([]*govern.SpillFile, parts)
	fail := func(err error) ([]*govern.SpillFile, error) {
		for _, f := range files {
			if f != nil {
				f.Discard()
			}
		}
		return nil, err
	}
	for i := 0; i < nrows; i++ {
		if err := ctx.Tick(i); err != nil {
			return fail(err)
		}
		p, skip, err := route(i)
		if err != nil {
			return fail(err)
		}
		if skip {
			continue
		}
		f := files[p]
		if f == nil {
			f, err = ctx.res.NewSpillFile(label)
			if err != nil {
				return fail(err)
			}
			files[p] = f
		}
		if err := writeUvarint(f, uint64(i)); err != nil {
			return fail(fmt.Errorf("exec: writing %s partition: %w", label, err))
		}
	}
	return files, nil
}

// readIdxPartition loads one partition's row indexes. They come back in
// ascending global order because the partitioning pass scanned rows in
// order.
func readIdxPartition(rd *govern.SpillReader) ([]int, error) {
	var idx []int
	for {
		v, err := binary.ReadUvarint(rd)
		if err == io.EOF {
			return idx, nil
		}
		if err != nil {
			return nil, fmt.Errorf("exec: reading partition: %w", err)
		}
		idx = append(idx, int(v))
	}
}

// graceExecute is GroupNode's disk path. Keyless aggregation folds
// streaming; keyed aggregation partitions row indexes by key hash and
// folds each partition with its own table, in ascending global order.
func (n *GroupNode) graceExecute(ctx *Ctx, in *Result) (*Result, error) {
	nrows := len(in.Rows)

	if len(n.Keys) == 0 {
		// Global aggregation: one group, O(1) working state, no files.
		g := &groupState{accs: make([]*accumulator, len(n.Aggs))}
		for ai := range n.Aggs {
			g.accs[ai] = newAccumulator(&n.Aggs[ai])
		}
		for i := 0; i < nrows; i++ {
			if err := ctx.Tick(i); err != nil {
				return nil, err
			}
			for ai := range n.Aggs {
				if arg := n.Aggs[ai].Arg; arg != nil {
					v, err := arg.Eval(in.Rows[i])
					if err != nil {
						return nil, err
					}
					if err := g.accs[ai].add(v); err != nil {
						return nil, err
					}
				} else {
					g.accs[ai].addRowCount()
				}
			}
		}
		return n.emitGroups(ctx, []*groupState{g})
	}

	work := groupWorkBytes(nrows, len(n.Aggs))
	parts := gracePartitions(work, ctx.res.Limit())
	partBuf := int64(parts) * spillFileOverhead
	ctx.res.Charge(partBuf)
	defer ctx.res.Release(partBuf)

	var enc keyEnc
	np := uint64(parts)
	files, err := writeIdxPartitions(ctx, "group", nrows, parts, func(i int) (uint64, bool, error) {
		key, _, err := enc.funcs(n.Keys, in.Rows[i])
		if err != nil {
			return 0, false, err
		}
		return hashKey(key) % np, false, nil
	})
	if err != nil {
		return nil, err
	}

	var all []*groupState
	runs := 0
	var spillBytes int64
	for p := range files {
		if files[p] == nil {
			continue
		}
		runs++
		spillBytes += files[p].Bytes()
		rd, err := files[p].Finish()
		files[p] = nil
		if err != nil {
			return nil, err
		}
		idx, err := readIdxPartition(rd)
		rd.Discard()
		if err != nil {
			return nil, err
		}
		// One partition's fold state rides above the budget line briefly.
		partBytes := int64(len(idx)) * (8 + keyRefBytes + int64(len(n.Aggs))*valueBytes)
		ctx.res.Charge(partBytes)
		t := newKeyTable[*groupState](len(idx)/2 + 1)
		for k, i := range idx {
			if err := ctx.Tick(k); err != nil {
				ctx.res.Release(partBytes)
				return nil, err
			}
			r := in.Rows[i]
			key, _, err := enc.funcs(n.Keys, r)
			if err != nil {
				ctx.res.Release(partBytes)
				return nil, err
			}
			h := hashKey(key)
			var g *groupState
			if gp := t.lookup(h, key); gp != nil {
				g = *gp
			} else {
				keyVals := make(schema.Row, len(n.Keys))
				for ki, f := range n.Keys {
					v, err := f.Eval(r)
					if err != nil {
						ctx.res.Release(partBytes)
						return nil, err
					}
					keyVals[ki] = v
				}
				g = &groupState{keyVals: keyVals, accs: make([]*accumulator, len(n.Aggs)), first: i}
				for ai := range n.Aggs {
					g.accs[ai] = newAccumulator(&n.Aggs[ai])
				}
				// The key aliases the encoder's scratch buffer here, unlike
				// the in-memory path's per-morsel arenas — copy it.
				t.insertCopy(h, key, g)
			}
			for ai := range n.Aggs {
				if arg := n.Aggs[ai].Arg; arg != nil {
					v, err := arg.Eval(r)
					if err != nil {
						ctx.res.Release(partBytes)
						return nil, err
					}
					if err := g.accs[ai].add(v); err != nil {
						ctx.res.Release(partBytes)
						return nil, err
					}
				} else {
					g.accs[ai].addRowCount()
				}
			}
		}
		for _, b := range t.buckets {
			for i := range b {
				all = append(all, b[i].val)
			}
		}
		ctx.res.Release(partBytes)
	}
	ctx.noteSpill(n, runs, spillBytes)

	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	return n.emitGroups(ctx, all)
}

// ---- Grace-hash join ----

// joinRec is one emitted probe match tagged with its probe-row index, so
// per-partition outputs can be restored to the global probe order.
type joinRec struct {
	leftIdx int
	row     schema.Row
}

// graceExecute is HashJoinNode's disk path: grace partitioning of both
// sides by key hash, serial build+probe per partition, then a stable
// re-order of the tagged outputs by probe-row index.
func (n *HashJoinNode) graceExecute(ctx *Ctx, l, r *Result) (*Result, error) {
	work := joinWorkBytes(len(l.Rows), len(r.Rows))
	parts := gracePartitions(work, ctx.res.Limit())
	partBuf := int64(parts) * spillFileOverhead
	ctx.res.Charge(partBuf)
	defer ctx.res.Release(partBuf)

	np := uint64(parts)
	var enc keyEnc
	// Build side: null keys never join; skip them entirely.
	rightFiles, err := writeIdxPartitions(ctx, "join-build", len(r.Rows), parts, func(i int) (uint64, bool, error) {
		key, null, err := enc.funcs(n.RightKeys, r.Rows[i])
		if err != nil {
			return 0, false, err
		}
		return hashKey(key) % np, null, nil
	})
	if err != nil {
		return nil, err
	}
	discardAll := func(files []*govern.SpillFile) {
		for _, f := range files {
			if f != nil {
				f.Discard()
			}
		}
	}
	// Probe side: every row is routed (null keys too — their encoded form
	// hashes deterministically), so each probe row belongs to exactly one
	// partition and left-join padding happens in the partition that owns it.
	leftFiles, err := writeIdxPartitions(ctx, "join-probe", len(l.Rows), parts, func(i int) (uint64, bool, error) {
		key, _, err := enc.funcs(n.LeftKeys, l.Rows[i])
		if err != nil {
			return 0, false, err
		}
		return hashKey(key) % np, false, nil
	})
	if err != nil {
		discardAll(rightFiles)
		return nil, err
	}

	runs := 0
	var spillBytes int64
	rightWidth := r.Schema.Len()
	var recs []joinRec
	fail := func(err error) (*Result, error) {
		discardAll(rightFiles)
		discardAll(leftFiles)
		return nil, err
	}
	loadPartition := func(files []*govern.SpillFile, p int) ([]int, error) {
		if files[p] == nil {
			return nil, nil
		}
		runs++
		spillBytes += files[p].Bytes()
		rd, err := files[p].Finish()
		files[p] = nil
		if err != nil {
			return nil, err
		}
		idx, err := readIdxPartition(rd)
		rd.Discard()
		return idx, err
	}
	for p := 0; p < parts; p++ {
		rIdx, err := loadPartition(rightFiles, p)
		if err != nil {
			return fail(err)
		}
		lIdx, err := loadPartition(leftFiles, p)
		if err != nil {
			return fail(err)
		}
		if len(lIdx) == 0 {
			continue
		}
		partBytes := int64(len(rIdx))*(8+keyRefBytes+rowHdrBytes) + int64(len(lIdx))*8
		ctx.res.Charge(partBytes)
		// Build in ascending right order — per-key row lists match the
		// serial build exactly.
		t := newKeyTable[[]schema.Row](len(rIdx)/2 + 1)
		for k, i := range rIdx {
			if err := ctx.Tick(k); err != nil {
				ctx.res.Release(partBytes)
				return fail(err)
			}
			key, null, err := enc.funcs(n.RightKeys, r.Rows[i])
			if err != nil {
				ctx.res.Release(partBytes)
				return fail(err)
			}
			if null {
				continue
			}
			h := hashKey(key)
			if rp := t.lookup(h, key); rp != nil {
				*rp = append(*rp, r.Rows[i])
			} else {
				t.insertCopy(h, key, []schema.Row{r.Rows[i]})
			}
		}
		// Probe in ascending left order.
		for k, i := range lIdx {
			if err := ctx.Tick(k); err != nil {
				ctx.res.Release(partBytes)
				return fail(err)
			}
			lrow := l.Rows[i]
			key, null, err := enc.funcs(n.LeftKeys, lrow)
			if err != nil {
				ctx.res.Release(partBytes)
				return fail(err)
			}
			matched := false
			if !null {
				h := hashKey(key)
				var rows []schema.Row
				if rp := t.lookup(h, key); rp != nil {
					rows = *rp
				}
				for _, rrow := range rows {
					joined := concatRows(lrow, rrow)
					if n.Residual != nil {
						ok, err := eval.EvalPredicate(n.Residual, joined)
						if err != nil {
							ctx.res.Release(partBytes)
							return fail(err)
						}
						if !ok {
							continue
						}
					}
					matched = true
					recs = append(recs, joinRec{leftIdx: i, row: joined})
				}
			}
			if !matched && n.JoinType == JoinKindLeft {
				recs = append(recs, joinRec{leftIdx: i, row: concatRows(lrow, nullRow(rightWidth))})
			}
		}
		ctx.res.Release(partBytes)
	}
	ctx.noteSpill(n, runs, spillBytes)

	// Each leftIdx lives in exactly one partition and within a partition
	// matches were emitted in serial probe order, so a stable sort on
	// leftIdx restores the exact serial output.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].leftIdx < recs[j].leftIdx })
	out := make([]schema.Row, len(recs))
	width := int64(n.schema.Len())
	for i := range recs {
		out[i] = recs[i].row
	}
	ctx.res.Charge(int64(len(out)) * (rowHdrBytes + width*valueBytes))
	return &Result{Schema: n.schema, Rows: out}, nil
}

// ---- Work-size estimates shared by the in-memory reserve and the
// grace fan-out choice ----

// sortWorkBytes estimates SortNode's in-memory working state: one key
// tuple per row plus index/merge bookkeeping.
func sortWorkBytes(nrows, nk int) int64 {
	return int64(nrows) * (int64(nk)*valueBytes + rowHdrBytes + 16)
}

// groupWorkBytes estimates GroupNode's in-memory working state: encoded
// key, hash, and evaluated aggregate arguments per row.
func groupWorkBytes(nrows, naggs int) int64 {
	return int64(nrows) * (keyRefBytes + 8 + int64(naggs)*valueBytes)
}

// joinWorkBytes estimates HashJoinNode's working state: the build table
// (keys plus row-list entries) and the probe side's encoded keys.
func joinWorkBytes(nprobe, nbuild int) int64 {
	return int64(nbuild)*(keyRefBytes+rowHdrBytes) + int64(nprobe)*keyRefBytes
}

// Spilling breakers. Sort, hash aggregation and the hash-join build each
// run one algorithm over pieces of their input, and the only thing a
// refused memory reservation (under a budget that allows spilling)
// changes is where the pieces live and how many there are:
//
//   - A sort run is a contiguous input chunk sorted by (sort key, row
//     index): its (row index, key bytes) entries, in memory or in a spill
//     file. One heap merge interleaves the runs, ties going to the
//     earliest run — runs are contiguous, so that is the serial stable
//     order.
//   - A hash partition (piece) is the ascending row indexes whose key
//     hashes to it: a list in memory, or a spill file of uvarints. One
//     function folds (aggregation) or builds (join) a partition, reading
//     the rows in ascending input order either way, so results are the
//     serial ones bit for bit.
//
// In memory there is a piece per worker; on disk spillPieces sizes them to
// the budget. Only row indexes and sort keys go to disk: a breaker's
// input arrives whole through Run, so spilling bounds the operator's own
// working state — key arrays, hash tables.
package exec

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
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
// morsel, windows, UNION ALL — their output lives in memory either way).
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

// spillPieces is how many pieces — sort runs or hash partitions — a
// spilling operator cuts a working set of work bytes into: enough that one
// piece's state fits the budget, at least two, and at most 64 so the files
// open at once and their buffers stay bounded. With no limit (a spill
// forced by fault injection) it is 8.
func spillPieces(work, limit int64) int {
	if limit <= 0 {
		return 8
	}
	return int(min(max(work/limit+1, 2), 64))
}

// ---- Hash partitions ----

// piece is one hash partition of an input: the indexes of its rows in
// ascending order, held in memory (idx, with h encoding every input row)
// or in a spill file f until load reads them back.
type piece struct {
	idx []int
	h   *hashed
	// byPos marks h as encoding just this piece's rows, by position in
	// idx (a loaded spill file), not every input row by index.
	byPos bool
	f     *govern.SpillFile
}

// slot is where row idx[k]'s encodings sit in h.
func (p *piece) slot(k int) int {
	if p.byPos {
		return k
	}
	return p.idx[k]
}

// route splits the indexes of rows into nparts hash partitions by key,
// each in ascending order; rows without a key (a NULL join key, see
// hashRows) go nowhere. With spill empty the pieces are in-memory lists
// over one encoding of every row, aggregate arguments included. Otherwise
// the rows are hashed workers morsels at a time, each partition is a
// spill file labeled spill, and a row's partition is chosen by spillHash,
// which no process seed moves; on error every file is gone.
func (c *Ctx) route(rows []schema.Row, keys []*eval.Compiled, aggs []AggSpec, nullNil bool, nparts, workers int, spill string) ([]piece, error) {
	ps := make([]piece, nparts)
	chunk := len(rows)
	if spill != "" {
		chunk, aggs = workers*MorselSize, nil
	}
	np := uint64(nparts)
	for lo := 0; lo < len(rows); lo += chunk {
		h, err := c.hashRows(rows[lo:min(lo+chunk, len(rows))], keys, aggs, nullNil, workers)
		if err != nil {
			discardPieces(ps)
			return nil, err
		}
		if spill == "" {
			for i := range ps {
				ps[i].idx, ps[i].h = make([]int, 0, len(rows)/nparts+1), h
			}
		}
		for j, kb := range h.keys {
			if kb == nil {
				continue
			}
			if spill == "" {
				p := &ps[h.hashes[j]%np]
				p.idx = append(p.idx, j)
				continue
			}
			p := &ps[spillHash(kb)%np]
			if p.f == nil {
				if p.f, err = c.res.NewSpillFile(spill); err != nil {
					discardPieces(ps)
					return nil, err
				}
			}
			if err := writeUvarint(p.f, uint64(lo+j)); err != nil {
				discardPieces(ps)
				return nil, fmt.Errorf("exec: writing %s partition: %w", spill, err)
			}
		}
	}
	return ps, nil
}

// load brings a spilled piece into memory: its row indexes and, unless
// keys is nil, the encodings of its rows (hashRows over them, serially;
// route left out rows without a key). The file is gone afterwards. An
// in-memory piece is already loaded.
func (p *piece) load(c *Ctx, rows []schema.Row, keys []*eval.Compiled, aggs []AggSpec) error {
	if p.f == nil {
		return nil
	}
	rd, err := p.f.Finish()
	p.f = nil
	if err != nil {
		return err
	}
	p.idx, err = readIdx(rd)
	rd.Discard()
	if err != nil || keys == nil {
		return err
	}
	p.byPos = true
	p.h, err = c.hashRows(gather(rows, p.idx), keys, aggs, false, 1)
	return err
}

// discardPieces removes the spill files of pieces not yet loaded.
func discardPieces(ps []piece) {
	for i := range ps {
		if ps[i].f != nil {
			ps[i].f.Discard()
			ps[i].f = nil
		}
	}
}

// spilled counts the pieces written to disk and their bytes, for
// noteSpill; call it before loading them.
func spilled(ps ...[]piece) (files int, bytes int64) {
	for _, side := range ps {
		for _, p := range side {
			if p.f != nil {
				files++
				bytes += p.f.Bytes()
			}
		}
	}
	return files, bytes
}

// gather returns rows[i] for every i in idx.
func gather(rows []schema.Row, idx []int) []schema.Row {
	out := make([]schema.Row, len(idx))
	for k, i := range idx {
		out[k] = rows[i]
	}
	return out
}

// writeUvarint writes an unsigned varint (row indexes, record lengths).
func writeUvarint(w *govern.SpillFile, x uint64) error {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], x)
	_, err := w.Write(b[:n])
	return err
}

// readIdx reads a spilled partition's row indexes back, in the ascending
// order route wrote them.
func readIdx(rd *govern.SpillReader) ([]int, error) {
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

// ---- Sort runs ----

// sortEntry is one input row of a sort run: its index and sort key.
type sortEntry struct {
	row int
	key []byte
}

// sortRun is one sorted run and its merge cursor: head is the current
// entry (ok false once the run is exhausted). The rest of the run is ents
// in memory, or the records of rd on disk — each a uvarint length, then
// the row index as a uvarint and the key bytes.
type sortRun struct {
	ents  []sortEntry
	rd    *govern.SpillReader
	buf   []byte
	bytes int64
	head  sortEntry
	ok    bool
}

// spillRun writes a sorted run's entries to a spill file and returns the
// run, positioned before its first entry.
func spillRun(res *govern.Resources, ents []sortEntry) (*sortRun, error) {
	sf, err := res.NewSpillFile("sort")
	if err != nil {
		return nil, err
	}
	var rec []byte
	for _, e := range ents {
		rec = append(binary.AppendUvarint(rec[:0], uint64(e.row)), e.key...)
		err := writeUvarint(sf, uint64(len(rec)))
		if err == nil {
			_, err = sf.Write(rec)
		}
		if err != nil {
			sf.Discard()
			return nil, fmt.Errorf("exec: writing sort run: %w", err)
		}
	}
	bytes := sf.Bytes()
	rd, err := sf.Finish()
	if err != nil {
		return nil, err
	}
	return &sortRun{rd: rd, bytes: bytes}, nil
}

// next advances the run to its next entry.
func (r *sortRun) next() error {
	if r.rd == nil {
		if r.ok = len(r.ents) > 0; r.ok {
			r.head, r.ents = r.ents[0], r.ents[1:]
		}
		return nil
	}
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
	if err != nil {
		return fmt.Errorf("exec: reading sort run: %w", err)
	}
	r.head, r.ok = sortEntry{row: int(idx), key: r.buf[off:]}, true
	return nil
}

// discard removes a spilled run's file.
func (r *sortRun) discard() {
	if r != nil && r.rd != nil {
		r.rd.Discard()
	}
}

// ---- Work-size estimates shared by the in-memory reserve and the
// spilled piece count ----

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

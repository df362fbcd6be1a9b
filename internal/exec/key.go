package exec

import (
	"bytes"
	"hash/maphash"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// Composite grouping keys — the join build/probe key, DISTINCT and set
// operations' row identity, and the group-by key — are encoded into a
// reused byte buffer and addressed by a 64-bit maphash. The old
// implementation concatenated per-value strings into a fresh string per
// row; the encoder below performs zero allocations per row (the encoding
// is types.Value.AppendGroupKey with a 0x1f separator between columns),
// and collisions never threaten correctness because every bucket entry
// keeps its full encoded key for byte-equality verification.

// hashSeed is the process-wide seed for operator hash tables. Every
// worker of one operator must hash with the same seed so that hash
// partitions (hash mod workers) agree across goroutines.
var hashSeed = maphash.MakeSeed()

// hashKey hashes an encoded key.
func hashKey(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// keyEnc builds composite keys in a reusable scratch buffer. One keyEnc
// belongs to one goroutine; parallel operators allocate one per worker.
type keyEnc struct{ buf []byte }

// row encodes every column of r. The returned slice aliases the scratch
// buffer: it is valid until the next call on this encoder.
func (k *keyEnc) row(r schema.Row) []byte {
	k.buf = k.buf[:0]
	for _, v := range r {
		k.buf = v.AppendGroupKey(k.buf)
		k.buf = append(k.buf, 0x1f)
	}
	return k.buf
}

// funcs evaluates the key expressions over row into the scratch buffer.
// null reports whether any key evaluated to NULL (join keys never match
// on NULL; group-by keys treat NULL as a regular value — the caller
// decides). The returned slice is valid until the next call.
func (k *keyEnc) funcs(fns []*eval.Compiled, row schema.Row) (key []byte, null bool, err error) {
	k.buf = k.buf[:0]
	for _, f := range fns {
		v, err := f.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			null = true
		}
		k.buf = v.AppendGroupKey(k.buf)
		k.buf = append(k.buf, 0x1f)
	}
	return k.buf, null, nil
}

// cols is the batch-path counterpart of funcs: it encodes row i's key
// from column vectors the vector kernels already filled (cols[j][i] is
// key expression j's value for row i). Same encoding, same NULL report,
// same scratch-buffer aliasing rules.
func (k *keyEnc) cols(cols [][]types.Value, i int) (key []byte, null bool) {
	k.buf = k.buf[:0]
	for _, c := range cols {
		v := c[i]
		if v.IsNull() {
			null = true
		}
		k.buf = v.AppendGroupKey(k.buf)
		k.buf = append(k.buf, 0x1f)
	}
	return k.buf, null
}

// hashed is the encoded hash keys of a list of rows, by position: each
// row's key bytes (in per-morsel arenas, so they stay valid; nil for a
// NULL join key) and hash, and, per aggregate, its evaluated argument (nil
// for COUNT(*)).
type hashed struct {
	keys   [][]byte
	hashes []uint64
	args   [][]types.Value
}

// hashRows encodes the keys of rows, and evaluates the arguments of aggs,
// morsel-parallel over up to workers goroutines, through the vector
// kernels when every expression has one. A NULL key is a regular value
// unless nullNil (join keys never match on NULL), which leaves it nil. A
// kernel failure reruns its chunk on the row path, so errors are the
// serial ones.
func (c *Ctx) hashRows(rows []schema.Row, keys []*eval.Compiled, aggs []AggSpec, nullNil bool, workers int) (*hashed, error) {
	n := len(rows)
	h := &hashed{keys: make([][]byte, n), hashes: make([]uint64, n), args: make([][]types.Value, len(aggs))}
	vec := c.useVector(keys...)
	for ai := range aggs {
		if arg := aggs[ai].Arg; arg != nil {
			h.args[ai] = make([]types.Value, n)
			vec = vec && c.useVector(arg)
		}
	}
	workers = min(workers, c.workersFor(n))
	encs := make([]keyEnc, workers)
	err := c.parallelFor(n, workers, func(w, lo, hi int) error {
		enc := &encs[w]
		var arena []byte
		put := func(i int, key []byte, null bool) {
			if null && nullNil {
				return
			}
			start := len(arena)
			arena = append(arena, key...)
			kb := arena[start:len(arena):len(arena)]
			h.keys[i], h.hashes[i] = kb, hashKey(kb)
		}
		serial := func(b, e int) error {
			for i := b; i < e; i++ {
				if err := c.Tick(i - b); err != nil {
					return err
				}
				key, null, err := enc.funcs(keys, rows[i])
				if err != nil {
					return err
				}
				put(i, key, null)
				for ai, vals := range h.args {
					if vals != nil {
						if vals[i], err = aggs[ai].Arg.Eval(rows[i]); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		if !vec {
			return serial(lo, hi)
		}
		cols := evalScratch(len(keys), hi-lo)
		return c.forBatches(lo, hi, func(b, e int) error {
			chunk := rows[b:e]
			ok := tryBatchAll(keys, chunk, cols)
			for ai, vals := range h.args {
				if ok && vals != nil {
					ok = aggs[ai].Arg.TryBatch(chunk, vals[b:e], nil)
				}
			}
			if !ok {
				return serial(b, e)
			}
			for i := range chunk {
				key, null := enc.cols(cols, i)
				put(b+i, key, null)
			}
			return nil
		})
	})
	return h, err
}

// keyTable is a hash table from encoded key bytes to a value of type T.
// Buckets are keyed by the full 64-bit maphash; entries within a bucket
// are verified by byte equality, so hashing is an accelerator, never a
// correctness risk.
type keyTable[T any] struct {
	buckets map[uint64][]keyEntry[T]
	n       int
}

type keyEntry[T any] struct {
	key []byte
	val T
}

func newKeyTable[T any](capacity int) *keyTable[T] {
	return &keyTable[T]{buckets: make(map[uint64][]keyEntry[T], capacity)}
}

// len reports the number of distinct keys stored.
func (t *keyTable[T]) len() int { return t.n }

// lookup returns a pointer to the value stored under key, or nil. The
// pointer is invalidated by the next insert into the same bucket, so
// callers must use it before inserting again.
func (t *keyTable[T]) lookup(h uint64, key []byte) *T {
	b := t.buckets[h]
	for i := range b {
		if bytes.Equal(b[i].key, key) {
			return &b[i].val
		}
	}
	return nil
}

// insert stores val under a key that must not already be present. The
// key bytes are retained as-is: pass a stable slice (insertCopy copies a
// scratch-buffer key first).
func (t *keyTable[T]) insert(h uint64, key []byte, val T) {
	t.buckets[h] = append(t.buckets[h], keyEntry[T]{key: key, val: val})
	t.n++
}

// insertCopy is insert for keys that alias a reused scratch buffer.
func (t *keyTable[T]) insertCopy(h uint64, key []byte, val T) {
	t.insert(h, append([]byte(nil), key...), val)
}

// rowSet is the DISTINCT/set-operation membership structure.
type rowSet struct{ t *keyTable[struct{}] }

func newRowSet(capacity int) rowSet {
	return rowSet{t: newKeyTable[struct{}](capacity)}
}

// add inserts the encoded row key and reports whether it was new.
func (s rowSet) add(key []byte) bool {
	h := hashKey(key)
	if s.t.lookup(h, key) != nil {
		return false
	}
	s.t.insertCopy(h, key, struct{}{})
	return true
}

// contains reports membership without inserting.
func (s rowSet) contains(key []byte) bool {
	return s.t.lookup(hashKey(key), key) != nil
}

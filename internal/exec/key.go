package exec

import (
	"bytes"
	"hash/maphash"
	"slices"
	"unsafe"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// Composite keys — the join build and probe key, the group-by key (which
// DISTINCT and the set operations group on too), and a window's partition
// key — are one encoding: each value's types.AppendSortKey, appended into
// a reused scratch buffer and addressed by a 64-bit maphash. Sort keys are
// prefix-free, so a tuple's keys concatenate without a separator, and two
// tuples share a key exactly when ORDER BY ties them: INT 1 and FLOAT 1.0
// match, as do −0 and +0, and NULL is one value among the others. Encoding
// allocates nothing per row, and collisions never threaten correctness:
// every bucket entry keeps its full encoded key for byte-equality
// verification.

// hashSeed is the process-wide seed for operator hash tables. Every
// worker of one operator must hash with the same seed so that hash
// partitions (hash mod workers) agree across goroutines.
var hashSeed = maphash.MakeSeed()

// hashKey hashes an encoded key.
func hashKey(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// spillHash is 64-bit FNV-1a over an encoded key, with its fixed offset
// basis: spill partitions are chosen by it, not by hashKey, so which
// partitions a spill fills, and so what EXPLAIN ANALYZE reports of it,
// is a function of the data, the plan and the budget alone.
func spillHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// keyEnc builds composite keys in a reusable scratch buffer. One keyEnc
// belongs to one goroutine; parallel operators allocate one per worker.
type keyEnc struct{ buf []byte }

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
		k.buf = types.AppendSortKey(k.buf, v, false)
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
		k.buf = types.AppendSortKey(k.buf, v, false)
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
	err := c.parallelFor(n, workers, func(_, lo, hi int) error {
		s := getScratch()
		defer putScratch(s)
		enc := &s.enc
		var arena slab[byte]
		put := func(i int, key []byte, null bool) {
			if null && nullNil {
				return
			}
			kb := arena.take(len(key))
			copy(kb, key)
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
		cols := s.evalCols(len(keys), hi-lo)
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

// slab hands out slices of chunks that double from 512 bytes to 64 KiB,
// so the keys of a morsel or the groups of a partition cost a few
// allocations, not one or more each, and no chunk is ever copied.
type slab[T any] []T

func (s *slab[T]) take(n int) []T {
	if cap(*s)-len(*s) < n {
		var zero T
		size := max(int(unsafe.Sizeof(zero)), 1)
		*s = make([]T, 0, max(n, min(2*cap(*s), (64<<10)/size), 512/size))
	}
	*s = (*s)[:len(*s)+n]
	return (*s)[len(*s)-n : len(*s) : len(*s)]
}

// keyTable is a hash table from encoded key bytes to a value of type T.
// The entries live in one slice, chained per 64-bit maphash from a map of
// chain heads, so an insert costs no allocation of its own; entries are
// verified by byte equality, so hashing is an accelerator, never a
// correctness risk.
type keyTable[T any] struct {
	heads map[uint64]int // hash → 1 + index of its latest entry
	ents  []keyEntry[T]
}

type keyEntry[T any] struct {
	key  []byte
	val  T
	next int // 1 + index of the previous entry of the same hash; 0 ends
}

func newKeyTable[T any](capacity int) *keyTable[T] {
	return &keyTable[T]{heads: make(map[uint64]int, capacity), ents: make([]keyEntry[T], 0, capacity)}
}

// len reports the number of distinct keys stored.
func (t *keyTable[T]) len() int { return len(t.ents) }

// lookup returns a pointer to the value stored under key, or nil. The
// pointer is invalidated by the next insert, so callers must use it
// before inserting again.
func (t *keyTable[T]) lookup(h uint64, key []byte) *T {
	for i := t.heads[h]; i != 0; i = t.ents[i-1].next {
		if e := &t.ents[i-1]; bytes.Equal(e.key, key) {
			return &e.val
		}
	}
	return nil
}

// insert stores val under a key that must not already be present. The
// key bytes are retained as-is: pass a stable slice, never the scratch
// buffer.
func (t *keyTable[T]) insert(h uint64, key []byte, val T) {
	if len(t.ents) == cap(t.ents) {
		t.ents = slices.Grow(t.ents, len(t.ents)) // doubling: append grows large slices by 1.25×
	}
	t.ents = append(t.ents, keyEntry[T]{key: key, val: val, next: t.heads[h]})
	t.heads[h] = len(t.ents)
}

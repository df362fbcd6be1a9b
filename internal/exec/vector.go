// Batch (vectorized) expression evaluation support for the operators.
// Operators that evaluate compiled expressions — filter predicates,
// projections, sort keys, join keys and residuals, group keys and
// aggregate arguments, window keys and arguments — feed their morsels
// through eval's vector kernels in MorselSize-row chunks instead of one
// closure call per row per expression. The row path is kept intact in
// every operator: it runs when vectorization is off (Ctx.SetVectorize,
// the repro.WithRowEval option), when an expression has no vector kernel,
// and as the per-chunk fallback whenever a kernel reports an error, which
// is what guarantees the batch path's errors are exactly the serial row
// path's.
package exec

import (
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// useVector reports whether this execution evaluates the given compiled
// expressions through their batch kernels: vectorization is on and every
// non-nil expression has a full vector kernel.
func (c *Ctx) useVector(exprs ...*eval.Compiled) bool {
	if !c.vec {
		return false
	}
	for _, e := range exprs {
		if e != nil && !e.Vectorized() {
			return false
		}
	}
	return true
}

// forBatches runs fn over MorselSize-row chunks of [lo, hi) in order,
// polling cancellation between chunks — the batch path's equivalent of
// Tick in the row loops (one poll per MorselSize rows).
func (c *Ctx) forBatches(lo, hi int, fn func(b, e int) error) error {
	for b := lo; b < hi; b += MorselSize {
		if err := c.Canceled(); err != nil {
			return err
		}
		e := b + MorselSize
		if e > hi {
			e = hi
		}
		if err := fn(b, e); err != nil {
			return err
		}
	}
	return nil
}

// evalMode names an operator's expression-evaluation mode in its
// NodeStats.
func evalMode(vectorized bool) string {
	if vectorized {
		return "vector"
	}
	return "row"
}

// batchCount reports how many vector-kernel chunks cover n rows —
// EXPLAIN ANALYZE's batches figure.
func batchCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + MorselSize - 1) / MorselSize
}

// tryBatchAll evaluates every expression over rows into its column
// vector. False means a kernel failed and the caller must run its serial
// row loop over the same rows so the error that surfaces is exactly the
// serial one.
func tryBatchAll(exprs []*eval.Compiled, rows []schema.Row, cols [][]types.Value) bool {
	for j, ex := range exprs {
		if !ex.TryBatch(rows, cols[j], nil) {
			return false
		}
	}
	return true
}

package exec

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// FrameMode classifies how a window frame selects rows.
type FrameMode uint8

// Frame modes.
const (
	// FramePartition covers the whole partition (no ORDER BY, no frame).
	FramePartition FrameMode = iota
	// FramePeers is the SQL default with ORDER BY: RANGE UNBOUNDED
	// PRECEDING .. CURRENT ROW, current row's peers included.
	FramePeers
	// FrameRowsMode counts physical rows.
	FrameRowsMode
	// FrameRangeMode offsets the (single, ascending, numeric) order key.
	FrameRangeMode
)

// FrameSpec is a window frame resolved to constants at plan time. Offsets
// are row counts for ROWS frames and order-key units (microseconds for
// TIME keys) for RANGE frames.
type FrameSpec struct {
	Mode               FrameMode
	StartType, EndType sqlast.BoundType
	StartOff, EndOff   int64
}

// WindowAgg is one scalar aggregate computed over a window.
type WindowAgg struct {
	Func    string         // max, min, sum, count, avg, row_number (lower case)
	Arg     *eval.Compiled // nil for COUNT(*) and ROW_NUMBER
	OutName string
	Kind    types.Kind // declared output kind for the schema
	Frame   FrameSpec
}

// WindowNode appends one column per WindowAgg to its input. All aggregates
// in a node share the same PARTITION BY / ORDER BY; the planner groups
// window expressions by that signature and requires the input to arrive
// sorted on (partition keys, order keys) — it inserts an explicit sort
// when the input's ordering property does not already satisfy it, which is
// exactly the "order sharing" effect the paper observes between cleansing
// rules and q1's own OLAP functions.
type WindowNode struct {
	base
	Input     Node
	PartKeys  []*eval.Compiled
	OrderKeys []*eval.Compiled
	OrderDesc []bool
	Aggs      []WindowAgg
}

// NewWindowNode builds a window operator; out is input ++ agg columns.
func NewWindowNode(child Node, out *schema.Schema, part, order []*eval.Compiled, desc []bool, aggs []WindowAgg) *WindowNode {
	n := &WindowNode{Input: child, PartKeys: part, OrderKeys: order, OrderDesc: desc, Aggs: aggs}
	n.schema = out
	n.estRows = child.EstRows()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *WindowNode) Label() string {
	return fmt.Sprintf("Window(%d aggs)", len(n.Aggs))
}

// Children implements Node.
func (n *WindowNode) Children() []Node { return []Node{n.Input} }

// Execute implements Node. Every per-row stage — partition-key
// encoding, order-key extraction, aggregate-argument evaluation, and
// the final column concatenation — is morsel-parallel with disjoint
// position writes; partition spans then evaluate concurrently, each
// span owned by one worker so running aggregates fold in input order.
func (n *WindowNode) Execute(ctx *Ctx) (*Result, error) {
	in, err := Run(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	rows := in.Rows
	nrows := len(rows)
	// The window operator has no disk fallback, so its working set
	// (partition keys, order keys, argument and output columns, widened
	// output rows) is enforced when the query cannot spill and accounted
	// otherwise.
	perRow := int64(keyRefBytes+8) + int64(len(n.Aggs))*2*valueBytes +
		rowHdrBytes + int64(n.schema.Len())*valueBytes
	if err := ctx.reserveOrCharge(int64(nrows) * perRow); err != nil {
		return nil, err
	}
	workers := ctx.workersFor(nrows)
	ctx.noteWorkers(n, workers)

	// Order keys are only needed for RANGE and peer frames.
	needKeys := false
	for _, a := range n.Aggs {
		if a.Frame.Mode == FrameRangeMode || a.Frame.Mode == FramePeers {
			needKeys = true
		}
	}
	vec := ctx.useVector(n.PartKeys...)
	for ai := range n.Aggs {
		vec = vec && ctx.useVector(n.Aggs[ai].Arg)
	}
	if needKeys {
		vec = vec && ctx.useVector(n.OrderKeys...)
	}
	ctx.noteEval(n, vec, nrows)

	// Partition keys over the (sorted) input, encoded into per-morsel
	// arenas; the vector path feeds the encoder from batch-evaluated
	// column vectors.
	partKey := make([][]byte, nrows)
	encs := make([]keyEnc, workers)
	err = ctx.parallelFor(nrows, workers, func(w, _, lo, hi int) error {
		enc := &encs[w]
		var arena []byte
		partSerial := func(b, e int) error {
			for i := b; i < e; i++ {
				if err := ctx.Tick(i - b); err != nil {
					return err
				}
				key, _, err := enc.funcs(n.PartKeys, rows[i])
				if err != nil {
					return err
				}
				start := len(arena)
				arena = append(arena, key...)
				partKey[i] = arena[start:len(arena):len(arena)]
			}
			return nil
		}
		if !ctx.useVector(n.PartKeys...) {
			return partSerial(lo, hi)
		}
		cols := evalScratch(len(n.PartKeys), hi-lo)
		return ctx.forBatches(lo, hi, func(b, e int) error {
			chunk := rows[b:e]
			if !tryBatchAll(n.PartKeys, chunk, cols) {
				return partSerial(b, e)
			}
			for i := range chunk {
				key, _ := enc.cols(cols, i)
				start := len(arena)
				arena = append(arena, key...)
				partKey[b+i] = arena[start:len(arena):len(arena)]
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	var orderRaw []int64
	if needKeys {
		if len(n.OrderKeys) != 1 || n.OrderDesc[0] {
			return nil, fmt.Errorf("exec: RANGE frames require a single ascending ORDER BY key")
		}
		orderRaw = make([]int64, nrows)
		// validate checks one evaluated key and stores its raw value; both
		// the serial loop and the vector path apply it in row order, so NULL
		// and kind errors surface for the same row either way.
		validate := func(i int, v types.Value) error {
			if v.IsNull() {
				return fmt.Errorf("exec: NULL order key in RANGE frame")
			}
			switch v.Kind() {
			case types.KindInt, types.KindTime, types.KindInterval:
				orderRaw[i] = v.Raw()
			default:
				return fmt.Errorf("exec: RANGE frame order key must be numeric or time, got %s", v.Kind())
			}
			return nil
		}
		err = ctx.parallelFor(nrows, workers, func(_, _, lo, hi int) error {
			orderSerial := func(b, e int) error {
				for i := b; i < e; i++ {
					if err := ctx.Tick(i - b); err != nil {
						return err
					}
					v, err := n.OrderKeys[0].Eval(rows[i])
					if err != nil {
						return err
					}
					if err := validate(i, v); err != nil {
						return err
					}
				}
				return nil
			}
			if !ctx.useVector(n.OrderKeys...) {
				return orderSerial(lo, hi)
			}
			vp := evalScratch(1, hi-lo)[0]
			return ctx.forBatches(lo, hi, func(b, e int) error {
				chunk := rows[b:e]
				if !n.OrderKeys[0].TryBatch(chunk, vp, nil) {
					return orderSerial(b, e)
				}
				for i := range chunk {
					if err := validate(b+i, vp[i]); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
	}

	// Pre-evaluate aggregate arguments once per row, morsel-parallel —
	// the CASE payloads of rule flags are the per-row hot path.
	argVals := make([][]types.Value, len(n.Aggs))
	for ai := range n.Aggs {
		if n.Aggs[ai].Arg != nil {
			argVals[ai] = make([]types.Value, nrows)
		}
	}
	err = ctx.parallelFor(nrows, workers, func(_, _, lo, hi int) error {
		for ai := range n.Aggs {
			arg := n.Aggs[ai].Arg
			if arg == nil {
				continue
			}
			vals := argVals[ai]
			if ctx.useVector(arg) {
				// EvalBatch falls back to an in-order row rerun on kernel
				// errors, so this matches the serial loop exactly — the
				// serial loop is agg-major too.
				if err := ctx.forBatches(lo, hi, func(b, e int) error {
					return arg.EvalBatch(rows[b:e], vals[b:e], nil)
				}); err != nil {
					return err
				}
				continue
			}
			for i := lo; i < hi; i++ {
				if err := ctx.Tick(i - lo); err != nil {
					return err
				}
				v, err := arg.Eval(rows[i])
				if err != nil {
					return err
				}
				vals[i] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	outCols := make([][]types.Value, len(n.Aggs))
	for ai := range outCols {
		outCols[ai] = make([]types.Value, nrows)
	}

	// Partition boundaries.
	type span struct{ start, end int }
	var spans []span
	for start := 0; start < nrows; {
		end := start + 1
		for end < nrows && bytes.Equal(partKey[end], partKey[start]) {
			end++
		}
		spans = append(spans, span{start, end})
		start = end
	}

	// Partitions are independent, so they evaluate in parallel — the
	// in-engine analogue of the intra-query parallelism the paper's DBMS
	// provides. Each worker writes disjoint slices of the output columns.
	spanWorkers := workers
	if spanWorkers > len(spans) {
		spanWorkers = len(spans)
	}
	if spanWorkers <= 1 {
		for si, sp := range spans {
			if err := ctx.Tick(si); err != nil {
				return nil, err
			}
			for ai := range n.Aggs {
				if err := n.computePartition(ctx, ai, rows, argVals[ai], orderRaw, sp.start, sp.end, outCols[ai]); err != nil {
					return nil, err
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		next := int64(-1)
		errs := make([]error, spanWorkers)
		for w := 0; w < spanWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if rec := recover(); rec != nil {
						errs[w] = govern.Internalize(rec)
					}
				}()
				for {
					if err := ctx.Canceled(); err != nil {
						errs[w] = err
						return
					}
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(spans) {
						return
					}
					ctx.res.MaybePanic()
					sp := spans[i]
					for ai := range n.Aggs {
						if err := n.computePartition(ctx, ai, rows, argVals[ai], orderRaw, sp.start, sp.end, outCols[ai]); err != nil {
							errs[w] = err
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if err := firstError(errs); err != nil {
			return nil, err
		}
	}

	out := make([]schema.Row, nrows)
	err = ctx.parallelFor(nrows, workers, func(_, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Tick(i - lo); err != nil {
				return err
			}
			row := make(schema.Row, 0, len(rows[i])+len(n.Aggs))
			row = append(row, rows[i]...)
			for ai := range n.Aggs {
				row = append(row, outCols[ai][i])
			}
			out[i] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// computePartition fills results[start:end] for one aggregate. It polls
// ctx between rows so canceling a query stops partitions mid-frame.
func (n *WindowNode) computePartition(ctx *Ctx, ai int, rows []schema.Row, args []types.Value, keys []int64, start, end int, results []types.Value) error {
	agg := &n.Aggs[ai]
	if agg.Func == "row_number" {
		for i := start; i < end; i++ {
			results[i] = types.NewInt(int64(i - start + 1))
		}
		return nil
	}
	spec := agg.Frame
	switch spec.Mode {
	case FramePartition:
		v, err := n.foldRange(ctx, agg, args, start, end)
		if err != nil {
			return err
		}
		for i := start; i < end; i++ {
			results[i] = v
		}
		return nil
	case FramePeers:
		// Running aggregate over peer groups (equal order keys share the
		// same result).
		acc := newAccumulator(&AggSpec{Func: agg.Func})
		i := start
		for i < end {
			if err := ctx.Tick(i - start); err != nil {
				return err
			}
			j := i
			for j < end && keys[j] == keys[i] {
				j++
			}
			for k := i; k < j; k++ {
				if err := accAdd(acc, agg, args, k); err != nil {
					return err
				}
			}
			v := acc.result()
			for k := i; k < j; k++ {
				results[k] = v
			}
			i = j
		}
		return nil
	case FrameRowsMode:
		return n.rowsFrame(ctx, agg, args, start, end, results)
	case FrameRangeMode:
		return n.rangeFrame(ctx, agg, args, keys, start, end, results)
	}
	return fmt.Errorf("exec: unknown frame mode")
}

func accAdd(acc *accumulator, agg *WindowAgg, args []types.Value, i int) error {
	if agg.Arg == nil {
		acc.addRowCount()
		return nil
	}
	return acc.add(args[i])
}

// foldRange folds rows [lo,hi) with a fresh accumulator.
func (n *WindowNode) foldRange(ctx *Ctx, agg *WindowAgg, args []types.Value, lo, hi int) (types.Value, error) {
	acc := newAccumulator(&AggSpec{Func: agg.Func})
	for i := lo; i < hi; i++ {
		if err := ctx.Tick(i - lo); err != nil {
			return types.Null, err
		}
		if err := accAdd(acc, agg, args, i); err != nil {
			return types.Null, err
		}
	}
	return acc.result(), nil
}

// rowsFrame evaluates a ROWS frame. Prefix frames (start unbounded) and
// suffix frames (end unbounded) run incrementally; constant-offset frames
// loop directly — rule-generated frames are a handful of rows wide.
func (n *WindowNode) rowsFrame(ctx *Ctx, agg *WindowAgg, args []types.Value, start, end int, results []types.Value) error {
	lo := func(i int) int { return rowsBoundLow(specStart(agg.Frame), i, start) }
	hi := func(i int) int { return rowsBoundHigh(specEnd(agg.Frame), i, end) }
	switch {
	case agg.Frame.StartType == sqlast.BoundUnboundedPreceding:
		acc := newAccumulator(&AggSpec{Func: agg.Func})
		done := start // rows [start,done) already folded
		for i := start; i < end; i++ {
			if err := ctx.Tick(i - start); err != nil {
				return err
			}
			h := hi(i)
			for done < h {
				if err := accAdd(acc, agg, args, done); err != nil {
					return err
				}
				done++
			}
			results[i] = acc.result()
		}
		return nil
	case agg.Frame.EndType == sqlast.BoundUnboundedFollowing:
		acc := newAccumulator(&AggSpec{Func: agg.Func})
		done := end // rows [done,end) already folded
		for i := end - 1; i >= start; i-- {
			if err := ctx.Tick(end - 1 - i); err != nil {
				return err
			}
			l := lo(i)
			for done > l {
				done--
				if err := accAdd(acc, agg, args, done); err != nil {
					return err
				}
			}
			results[i] = acc.result()
		}
		return nil
	default:
		// Constant-offset frames re-fold per row, so each iteration already
		// costs a frame's worth of work — poll the context every row.
		for i := start; i < end; i++ {
			if err := ctx.Canceled(); err != nil {
				return err
			}
			l, h := lo(i), hi(i)
			if l >= h {
				results[i] = emptyFrameResult(agg)
				continue
			}
			v, err := n.foldRange(ctx, agg, args, l, h)
			if err != nil {
				return err
			}
			results[i] = v
		}
		return nil
	}
}

type boundSpec struct {
	typ sqlast.BoundType
	off int64
}

func specStart(f FrameSpec) boundSpec { return boundSpec{f.StartType, f.StartOff} }
func specEnd(f FrameSpec) boundSpec   { return boundSpec{f.EndType, f.EndOff} }

// rowsBoundLow returns the inclusive low index of a ROWS frame start.
func rowsBoundLow(b boundSpec, i, partStart int) int {
	var lo int
	switch b.typ {
	case sqlast.BoundUnboundedPreceding:
		lo = partStart
	case sqlast.BoundPreceding:
		lo = i - int(b.off)
	case sqlast.BoundCurrentRow:
		lo = i
	case sqlast.BoundFollowing:
		lo = i + int(b.off)
	default:
		lo = partStart
	}
	if lo < partStart {
		lo = partStart
	}
	return lo
}

// rowsBoundHigh returns the exclusive high index of a ROWS frame end.
func rowsBoundHigh(b boundSpec, i, partEnd int) int {
	var hi int
	switch b.typ {
	case sqlast.BoundUnboundedFollowing:
		hi = partEnd
	case sqlast.BoundFollowing:
		hi = i + int(b.off) + 1
	case sqlast.BoundCurrentRow:
		hi = i + 1
	case sqlast.BoundPreceding:
		hi = i - int(b.off) + 1
	default:
		hi = partEnd
	}
	if hi > partEnd {
		hi = partEnd
	}
	return hi
}

// rangeFrame evaluates a RANGE frame over the sorted numeric order key.
func (n *WindowNode) rangeFrame(ctx *Ctx, agg *WindowAgg, args []types.Value, keys []int64, start, end int, results []types.Value) error {
	// Index of the first row in [start,end) with key >= target.
	lowerBound := func(target int64) int {
		lo, hi := start, end
		for lo < hi {
			mid := (lo + hi) / 2
			if keys[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Index one past the last row with key <= target.
	upperBound := func(target int64) int {
		lo, hi := start, end
		for lo < hi {
			mid := (lo + hi) / 2
			if keys[mid] <= target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	loIdx := func(i int) int {
		switch agg.Frame.StartType {
		case sqlast.BoundUnboundedPreceding:
			return start
		case sqlast.BoundPreceding:
			return lowerBound(satSub(keys[i], agg.Frame.StartOff))
		case sqlast.BoundCurrentRow:
			return lowerBound(keys[i])
		case sqlast.BoundFollowing:
			return lowerBound(satAdd(keys[i], agg.Frame.StartOff))
		}
		return start
	}
	hiIdx := func(i int) int {
		switch agg.Frame.EndType {
		case sqlast.BoundUnboundedFollowing:
			return end
		case sqlast.BoundFollowing:
			return upperBound(satAdd(keys[i], agg.Frame.EndOff))
		case sqlast.BoundCurrentRow:
			return upperBound(keys[i])
		case sqlast.BoundPreceding:
			return upperBound(satSub(keys[i], agg.Frame.EndOff))
		}
		return end
	}
	switch {
	case agg.Frame.StartType == sqlast.BoundUnboundedPreceding:
		acc := newAccumulator(&AggSpec{Func: agg.Func})
		done := start
		for i := start; i < end; i++ {
			if err := ctx.Tick(i - start); err != nil {
				return err
			}
			h := hiIdx(i)
			for done < h {
				if err := accAdd(acc, agg, args, done); err != nil {
					return err
				}
				done++
			}
			results[i] = acc.result()
		}
		return nil
	case agg.Frame.EndType == sqlast.BoundUnboundedFollowing:
		acc := newAccumulator(&AggSpec{Func: agg.Func})
		done := end
		for i := end - 1; i >= start; i-- {
			if err := ctx.Tick(end - 1 - i); err != nil {
				return err
			}
			l := loIdx(i)
			for done > l {
				done--
				if err := accAdd(acc, agg, args, done); err != nil {
					return err
				}
			}
			results[i] = acc.result()
		}
		return nil
	default:
		// As in rowsFrame: per-row polling is amortized by the frame fold.
		for i := start; i < end; i++ {
			if err := ctx.Canceled(); err != nil {
				return err
			}
			l, h := loIdx(i), hiIdx(i)
			if l >= h {
				results[i] = emptyFrameResult(agg)
				continue
			}
			v, err := n.foldRange(ctx, agg, args, l, h)
			if err != nil {
				return err
			}
			results[i] = v
		}
		return nil
	}
}

func emptyFrameResult(agg *WindowAgg) types.Value {
	if agg.Func == "count" {
		return types.NewInt(0)
	}
	return types.Null
}

func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

func satSub(a, b int64) int64 { return satAdd(a, -b) }

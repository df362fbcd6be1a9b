package exec

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/eval"
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
//
// A partition is a run of adjacent rows whose partition keys encode
// equally (keyEnc): keys that sort as ties, so INT 1 and FLOAT 1.0 share
// one. The window is a pipeline stage: its pipeline cuts the
// source only where a partition ends (see alignWindows), so each morsel
// holds whole partitions.
type WindowNode struct {
	base
	Input     Node
	PartKeys  []*eval.Compiled
	OrderKeys []*eval.Compiled
	OrderDesc []bool
	Aggs      []WindowAgg
	// partOrds holds the input ordinal of every partition key when each is
	// a bare column; nil when any key computes.
	partOrds []int
}

// NewWindowNode builds a window operator; out is input ++ agg columns.
func NewWindowNode(child Node, out *schema.Schema, part, order []*eval.Compiled, desc []bool, aggs []WindowAgg) *WindowNode {
	n := &WindowNode{Input: child, PartKeys: part, OrderKeys: order, OrderDesc: desc, Aggs: aggs}
	n.children = []Node{child}
	n.schema = out
	n.estRows = child.EstRows()
	n.ordering = child.Ordering()
	n.partOrds = eval.ColumnOrdinals(part)
	return n
}

// Label implements Node.
func (n *WindowNode) Label() string {
	return fmt.Sprintf("Window(%d aggs)", len(n.Aggs))
}

// open binds the window as a pipeline stage: each morsel computes every
// aggregate over its partitions with the worker's scratch and returns the
// widened rows. The window has no disk fallback, so each input row
// reserves its whole working set: the widened output row and its share of
// the scratch (an order key, an argument and an output value per
// aggregate). A worker runs a morsel through one stage at a time, so the
// windows of a pipeline share its scratch's winScratch.
func (n *WindowNode) open(c *Ctx) (*level, error) {
	// Order keys are only needed for RANGE and peer frames.
	needKeys := false
	for _, a := range n.Aggs {
		if a.Frame.Mode == FrameRangeMode || a.Frame.Mode == FramePeers {
			needKeys = true
		}
	}
	if needKeys && (len(n.OrderKeys) != 1 || n.OrderDesc[0]) {
		return nil, fmt.Errorf("exec: RANGE frames require a single ascending ORDER BY key")
	}
	vec := c.useVector(n.PartKeys...)
	for ai := range n.Aggs {
		vec = vec && c.useVector(n.Aggs[ai].Arg)
	}
	if needKeys {
		vec = vec && c.useVector(n.OrderKeys...)
	}
	perRow := rowHdrBytes + int64(n.schema.Len())*valueBytes + 8 + int64(len(n.Aggs))*2*valueBytes
	return &level{node: n, inBytes: perRow, eval: evalMode(vec), parallel: true,
		builds: true,
		run: func(s *scratch, in []schema.Row) ([]schema.Row, error) {
			return s.win.run(c, n, in, vec, needKeys, s.out)
		}}, nil
}

// winScratch is one pump worker's reusable window state: the two buffers
// adjacent rows' partition keys are encoded into, the partition ends, the
// order keys and the chunk they are evaluated into, the argument and
// output columns (grown to the largest morsel seen), the accumulator every
// fold reuses, and the count of values folded, which paces cancellation
// polling.
type winScratch struct {
	enc    [2]keyEnc
	ends   []int
	ord    []types.Value
	keys   []int64
	args   [][]types.Value
	outs   [][]types.Value
	acc    accumulator
	folded int
}

// run computes the window over one morsel of whole partitions: partition
// ends, order keys and arguments first, then each partition's frames, then
// the widened rows, carved from one flat array taken from blk (nil: the
// heap). A morsel big enough to fan out — an unpartitioned window's whole
// input, or a partition larger than a morsel — evaluates its arguments
// and builds its rows over MorselSize chunks on several workers.
func (s *winScratch) run(c *Ctx, n *WindowNode, in []schema.Row, vec, needKeys bool, blk *rowBlock) ([]schema.Row, error) {
	if len(in) == 0 {
		return nil, nil
	}
	workers := c.workersFor(len(in))
	c.noteWorkers(n, workers)
	s.ends = s.ends[:0]
	var prev []byte
	for i := 0; i < len(in) && len(n.PartKeys) > 0; i++ {
		if err := c.Tick(i); err != nil {
			return nil, err
		}
		key, _, err := s.enc[i&1].funcs(n.PartKeys, in[i])
		if err != nil {
			return nil, err
		}
		if i > 0 && !bytes.Equal(key, prev) {
			s.ends = append(s.ends, i)
		}
		prev = key
	}
	s.ends = append(s.ends, len(in))
	if needKeys {
		s.keys = grow(s.keys, len(in))
		s.ord = grow(s.ord, min(len(in), MorselSize))
		err := c.forBatches(0, len(in), func(b, e int) error {
			ord := s.ord[:e-b]
			if err := evalInto(c, n.OrderKeys[0], in[b:e], ord, vec); err != nil {
				return err
			}
			for i, v := range ord {
				switch {
				case v.IsNull():
					return fmt.Errorf("exec: NULL order key in RANGE frame")
				case v.Kind() != types.KindInt && v.Kind() != types.KindTime && v.Kind() != types.KindInterval:
					return fmt.Errorf("exec: RANGE frame order key must be numeric or time, got %s", v.Kind())
				}
				s.keys[b+i] = v.Raw()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for len(s.outs) < len(n.Aggs) {
		s.args, s.outs = append(s.args, nil), append(s.outs, nil)
	}
	for ai := range n.Aggs {
		s.outs[ai] = grow(s.outs[ai], len(in))
		if n.Aggs[ai].Arg != nil {
			s.args[ai] = grow(s.args[ai], len(in))
		}
	}
	err := c.parallelFor(len(in), workers, func(_, lo, hi int) error {
		for ai := range n.Aggs {
			if arg := n.Aggs[ai].Arg; arg != nil {
				if err := evalInto(c, arg, in[lo:hi], s.args[ai][lo:hi], vec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := 0
	for _, end := range s.ends {
		for ai := range n.Aggs {
			args := s.args[ai]
			if n.Aggs[ai].Arg == nil {
				args = nil // COUNT(*) and ROW_NUMBER fold rows
			}
			if err := s.frame(c, &n.Aggs[ai], args, s.outs[ai], start, end); err != nil {
				return nil, err
			}
		}
		start = end
	}
	width, inWidth := n.schema.Len(), n.Input.Schema().Len()
	flat := blk.take(len(in) * width)
	out := blk.rows(len(in), len(in))
	return out, c.parallelFor(len(in), workers, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := flat[i*width : (i+1)*width : (i+1)*width]
			copy(row, in[i][:inWidth])
			for ai := range n.Aggs {
				row[inWidth+ai] = s.outs[ai][i]
			}
			out[i] = row
		}
		return nil
	})
}

// grow returns col resized to n elements, reallocated only when too small.
func grow[T any](col []T, n int) []T {
	if cap(col) < n {
		return make([]T, n)
	}
	return col[:n]
}

// evalInto evaluates f over every row of in into out, through the vector
// kernels when vec holds (EvalBatch reruns a failing chunk on the row
// path, so errors are the row path's either way).
func evalInto(c *Ctx, f *eval.Compiled, in []schema.Row, out []types.Value, vec bool) error {
	if vec {
		return c.forBatches(0, len(in), func(b, e int) error {
			return f.EvalBatch(in[b:e], out[b:e], nil)
		})
	}
	for i, r := range in {
		if err := c.Tick(i); err != nil {
			return err
		}
		v, err := f.Eval(r)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// reset readies the worker's accumulator for a fresh fold of fn.
func (s *winScratch) reset(fn string) *accumulator {
	s.acc = accumulator{fn: fn, extreme: types.Null}
	return &s.acc
}

// add folds rows [lo,hi) into the accumulator — their arguments, or the
// rows themselves for COUNT(*) — polling cancellation once per
// cancelCheckInterval values folded, however the folds are spread over
// frames and partitions.
func (s *winScratch) add(c *Ctx, args []types.Value, lo, hi int) error {
	for i := lo; i < hi; i++ {
		s.folded++
		if err := c.Tick(s.folded); err != nil {
			return err
		}
		if args == nil {
			s.acc.addRowCount()
		} else if err := s.acc.add(args[i]); err != nil {
			return err
		}
	}
	return nil
}

// fold folds rows [lo,hi) afresh and returns the aggregate.
func (s *winScratch) fold(c *Ctx, fn string, args []types.Value, lo, hi int) (types.Value, error) {
	acc := s.reset(fn)
	if err := s.add(c, args, lo, hi); err != nil {
		return types.Null, err
	}
	return acc.result(), nil
}

// frame fills out[start:end] with one aggregate over the partition rows
// [start,end).
func (s *winScratch) frame(c *Ctx, agg *WindowAgg, args, out []types.Value, start, end int) error {
	f := agg.Frame
	switch {
	case agg.Func == "row_number":
		for i := start; i < end; i++ {
			out[i] = types.NewInt(int64(i - start + 1))
		}
	case f.Mode == FramePartition:
		v, err := s.fold(c, agg.Func, args, start, end)
		if err != nil {
			return err
		}
		for i := start; i < end; i++ {
			out[i] = v
		}
	case f.Mode == FramePeers:
		// Running aggregate over peer groups (equal order keys share the
		// same result).
		acc := s.reset(agg.Func)
		for i := start; i < end; {
			j := i
			for j < end && s.keys[j] == s.keys[i] {
				j++
			}
			if err := s.add(c, args, i, j); err != nil {
				return err
			}
			v := acc.result()
			for ; i < j; i++ {
				out[i] = v
			}
		}
	case f.Mode == FrameRowsMode:
		return s.slide(c, agg, args, out, start, end,
			func(i int) int { return rowsBoundLow(specStart(f), i, start) },
			func(i int) int { return rowsBoundHigh(specEnd(f), i, end) })
	case f.Mode == FrameRangeMode:
		// Bounds binary-search the partition's sorted order keys: the
		// first row at or past the start target, one past the last row at
		// or before the end target.
		keys := s.keys[start:end]
		return s.slide(c, agg, args, out, start, end,
			func(i int) int {
				t, ok := rangeTarget(specStart(f), s.keys[i])
				if !ok {
					return start
				}
				return start + sort.Search(len(keys), func(k int) bool { return keys[k] >= t })
			},
			func(i int) int {
				t, ok := rangeTarget(specEnd(f), s.keys[i])
				if !ok {
					return end
				}
				return start + sort.Search(len(keys), func(k int) bool { return keys[k] > t })
			})
	default:
		return fmt.Errorf("exec: unknown frame mode")
	}
	return nil
}

// slide evaluates a ROWS or RANGE frame from its bounds, lo inclusive and
// hi exclusive. Prefix frames (start unbounded) and suffix frames (end
// unbounded) run incrementally; constant-offset frames fold each row's
// frame into the reused accumulator — rule-generated frames are a handful
// of rows wide — and a one-row MIN/MAX frame, which every rule template
// compiles to, is the argument of that row.
func (s *winScratch) slide(c *Ctx, agg *WindowAgg, args, out []types.Value, start, end int, lo, hi func(int) int) error {
	switch {
	case agg.Frame.StartType == sqlast.BoundUnboundedPreceding:
		acc := s.reset(agg.Func)
		done := start // rows [start,done) already folded
		for i := start; i < end; i++ {
			if h := hi(i); h > done {
				if err := s.add(c, args, done, h); err != nil {
					return err
				}
				done = h
			}
			out[i] = acc.result()
		}
	case agg.Frame.EndType == sqlast.BoundUnboundedFollowing:
		acc := s.reset(agg.Func)
		done := end // rows [done,end) already folded
		for i := end - 1; i >= start; i-- {
			for l := lo(i); done > l; {
				done--
				if err := s.add(c, args, done, done+1); err != nil {
					return err
				}
			}
			out[i] = acc.result()
		}
	default:
		single := agg.Func == "min" || agg.Func == "max"
		for i := start; i < end; i++ {
			l, h := lo(i), hi(i)
			switch {
			case l >= h:
				out[i] = emptyFrameResult(agg)
			case single && h-l == 1:
				out[i] = types.Null
				if v := args[l]; !v.IsNull() {
					out[i] = v
				}
			default:
				v, err := s.fold(c, agg.Func, args, l, h)
				if err != nil {
					return err
				}
				out[i] = v
			}
		}
	}
	return nil
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

// rangeTarget is the order-key value a RANGE bound reaches from a row
// whose key is k; ok is false for an unbounded bound.
func rangeTarget(b boundSpec, k int64) (int64, bool) {
	switch b.typ {
	case sqlast.BoundPreceding:
		return satSub(k, b.off), true
	case sqlast.BoundCurrentRow:
		return k, true
	case sqlast.BoundFollowing:
		return satAdd(k, b.off), true
	}
	return 0, false
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

package exec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// AggSpec describes one aggregate computed by GroupNode.
type AggSpec struct {
	Func     string         // count, sum, avg, min, max (lower case)
	Arg      *eval.Compiled // nil for COUNT(*)
	Distinct bool
	OutName  string
}

// accumulator folds values for one aggregate in one group following SQL
// semantics: NULL inputs are skipped; an empty input yields NULL (COUNT
// yields 0); AVG over INTERVAL yields INTERVAL, over numerics FLOAT.
type accumulator struct {
	fn       string
	distinct bool
	seen     map[string]struct{}

	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	isIv     bool
	extreme  types.Value // running min/max
}

func newAccumulator(spec *AggSpec) accumulator {
	a := accumulator{fn: spec.Func, distinct: spec.Distinct, extreme: types.Null}
	if a.distinct {
		a.seen = map[string]struct{}{}
	}
	return a
}

func (a *accumulator) addRowCount() { a.count++ } // COUNT(*)

func (a *accumulator) add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		var buf [64]byte
		k := types.AppendSortKey(buf[:0], v, false)
		if _, dup := a.seen[string(k)]; dup {
			return nil
		}
		a.seen[string(k)] = struct{}{}
	}
	a.count++
	switch a.fn {
	case "count":
		// nothing else
	case "sum", "avg":
		switch v.Kind() {
		case types.KindInt:
			a.sumInt += v.Int()
			a.sumFloat += float64(v.Int())
		case types.KindFloat:
			a.isFloat = true
			a.sumFloat += v.Float()
		case types.KindInterval:
			a.isIv = true
			a.sumInt += v.IntervalUsec()
		default:
			return fmt.Errorf("exec: %s over %s", strings.ToUpper(a.fn), v.Kind())
		}
	case "min", "max":
		if a.extreme.IsNull() {
			a.extreme = v
			return nil
		}
		c, err := types.Compare(v, a.extreme)
		if err != nil {
			return err
		}
		if (a.fn == "min" && c < 0) || (a.fn == "max" && c > 0) {
			a.extreme = v
		}
	default:
		return fmt.Errorf("exec: unknown aggregate %q", a.fn)
	}
	return nil
}

func (a *accumulator) result() types.Value {
	switch a.fn {
	case "count":
		return types.NewInt(a.count)
	case "sum":
		if a.count == 0 {
			return types.Null
		}
		switch {
		case a.isIv:
			return types.NewInterval(a.sumInt)
		case a.isFloat:
			return types.NewFloat(a.sumFloat)
		default:
			return types.NewInt(a.sumInt)
		}
	case "avg":
		if a.count == 0 {
			return types.Null
		}
		if a.isIv {
			return types.NewInterval(a.sumInt / a.count)
		}
		return types.NewFloat(a.sumFloat / float64(a.count))
	case "min", "max":
		return a.extreme
	}
	return types.Null
}

// GroupNode implements hash aggregation. With no keys it produces exactly
// one output row (global aggregation over a possibly empty input). With
// keys and no aggregates it is duplicate elimination, labeled Distinct:
// DISTINCT and UNION (over UNION ALL) run as one (see NewDistinct), and so
// do EXCEPT and INTERSECT, with a side tag aggregated (see NewSetOp).
type GroupNode struct {
	base
	Input Node
	Keys  []*eval.Compiled
	Aggs  []AggSpec
	// prefix marks keys that are the input's first columns, in order: a
	// group's key values are then its first row's leading cells.
	prefix bool
}

// NewGroupNode builds hash aggregation; out must list key columns first,
// then one column per aggregate.
func NewGroupNode(child Node, out *schema.Schema, keys []*eval.Compiled, aggs []AggSpec) *GroupNode {
	n := &GroupNode{Input: child, Keys: keys, Aggs: aggs, prefix: leading(eval.ColumnOrdinals(keys))}
	n.children = []Node{child}
	n.schema = out
	return n
}

// NewDistinct removes duplicate rows of child: a GroupNode keyed on every
// column. Its groups come out in first-appearance order, so it keeps
// child's schema and ordering.
func NewDistinct(child Node) *GroupNode {
	keys := make([]*eval.Compiled, child.Schema().Len())
	for i := range keys {
		keys[i] = eval.Column(i)
	}
	n := NewGroupNode(child, child.Schema(), keys, nil)
	n.ordering = child.Ordering()
	return n
}

// NewSetOp builds EXCEPT, or INTERSECT when intersect is set, with set
// semantics over two inputs of equal arity as one grouping pass: a UNION
// ALL of the inputs, each row tagged with its side (left 0, right 1),
// grouped on every column with MAX of the tag, and for INTERSECT also its
// MIN. EXCEPT keeps the groups with no right row (MAX 0), INTERSECT those
// with both sides (MIN 0, MAX 1); a projection drops the tags. A group's
// first appearance is a left row, so the result is the left input's
// distinct rows in their order. The tagged inputs and their union carry
// the inputs' estimates; the planner sets those of the single-input chain
// above the union.
func NewSetOp(l, r Node, intersect bool) (Node, error) {
	width := l.Schema().Len()
	if r.Schema().Len() != width {
		return nil, fmt.Errorf("exec: set operation arity mismatch: %d vs %d", width, r.Schema().Len())
	}
	cols := make([]*eval.Compiled, width+1)
	for i := range cols {
		cols[i] = eval.Column(i)
	}
	tag := func(in Node, side int64) Node {
		sch := &schema.Schema{Columns: append(slices.Clip(in.Schema().Columns), schema.Col("", "side", types.KindInt))}
		p := NewProjectNode(in, sch, append(cols[:width:width], eval.Const(types.NewInt(side))))
		p.estCost = in.EstCost()
		return p
	}
	u, err := NewUnionNode(tag(l, 0), tag(r, 1))
	if err != nil {
		return nil, err
	}
	u.estRows, u.estCost = l.EstRows()+r.EstRows(), l.EstCost()+r.EstCost()
	out := &schema.Schema{Columns: append(slices.Clip(l.Schema().Columns), schema.Col("", "max_side", types.KindInt))}
	aggs := []AggSpec{{Func: "max", Arg: cols[width], OutName: "max_side"}}
	desc := "max_side = 0"
	keep := func(r schema.Row) bool { return r[width].Int() == 0 }
	if intersect {
		out.Columns = append(out.Columns, schema.Col("", "min_side", types.KindInt))
		aggs = append(aggs, AggSpec{Func: "min", Arg: cols[width], OutName: "min_side"})
		desc = "min_side = 0 AND max_side = 1"
		keep = func(r schema.Row) bool { return r[width].Int() == 1 && r[width+1].Int() == 0 }
	}
	g := NewGroupNode(u, out, cols[:width], aggs)
	f := NewFilterNode(g, eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(keep(r)), nil
	}), desc)
	return NewProjectNode(f, l.Schema(), cols[:width]), nil
}

// Label implements Node.
func (n *GroupNode) Label() string {
	if len(n.Aggs) == 0 {
		return "Distinct"
	}
	return fmt.Sprintf("HashGroup(%d keys, %d aggs)", len(n.Keys), len(n.Aggs))
}

type groupState struct {
	keyVals schema.Row
	accs    []accumulator
	first   int // global index of the group's first input row
}

// Execute implements Node. Keyed aggregation routes the row indexes into
// hash partitions by group key (see route: one per worker in memory,
// spillPieces on disk when the budget refuses the working set), then one
// worker per partition folds its rows in ascending input order. Each
// group is wholly owned by one partition, so floating-point accumulation
// keeps the serial association order and the output is bit-identical at
// any parallelism and on disk — unlike merge-combined partial aggregates,
// which would reassociate sums. Groups come out in first-appearance order.
// Keyless aggregation folds the input in order, a chunk at a time.
func (n *GroupNode) Execute(ctx *Ctx) (*Result, error) {
	in, err := Run(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	nrows := len(in.Rows)
	work := groupWorkBytes(nrows, len(n.Aggs))
	spill := ""
	if err := ctx.res.Reserve(work); err != nil {
		if !ctx.res.CanSpill() {
			return nil, err
		}
		spill = "group"
	} else {
		defer ctx.res.Release(work)
	}
	vec := ctx.useVector(n.Keys...)
	for ai := range n.Aggs {
		vec = vec && ctx.useVector(n.Aggs[ai].Arg)
	}
	ctx.noteEval(n, vec, nrows)
	if len(n.Keys) == 0 {
		return n.foldInOrder(ctx, in.Rows)
	}
	workers := ctx.workersFor(nrows)
	ctx.noteWorkers(n, workers)
	nparts := workers
	if spill != "" {
		nparts = spillPieces(work, ctx.res.Limit())
		buf := int64(nparts) * spillFileOverhead
		ctx.res.Charge(buf)
		defer ctx.res.Release(buf)
	}
	pieces, err := ctx.route(in.Rows, n.Keys, n.Aggs, false, nparts, workers, spill)
	if err != nil {
		return nil, err
	}
	defer discardPieces(pieces)
	files, bytes := spilled(pieces)
	groups := make([][]*groupState, nparts)
	err = ctx.forEach(nparts, workers, func(_, p int) error {
		pc := &pieces[p]
		if err := pc.load(ctx, in.Rows, n.Keys, n.Aggs); err != nil {
			return err
		}
		if pc.byPos {
			// One partition's fold state rides above the budget line briefly.
			b := int64(len(pc.idx)) * (8 + keyRefBytes + int64(len(n.Aggs))*valueBytes)
			ctx.res.Charge(b)
			defer ctx.res.Release(b)
		}
		var err error
		groups[p], err = n.fold(ctx, in.Rows, pc, newKeyTable[*groupState](len(pc.idx)/4+1), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if files > 0 {
		ctx.noteSpill(n, files, bytes)
	}
	if nparts == 1 {
		return n.emitGroups(ctx, groups[0])
	}
	sequence := slices.Concat(groups...)
	slices.SortFunc(sequence, func(a, b *groupState) int { return a.first - b.first })
	return n.emitGroups(ctx, sequence)
}

// foldInOrder is keyless aggregation: every row folds into the one group
// in input order, MorselSize arguments evaluated at a time.
func (n *GroupNode) foldInOrder(ctx *Ctx, rows []schema.Row) (*Result, error) {
	t := newKeyTable[*groupState](1)
	var groups []*groupState
	idx := make([]int, 0, MorselSize)
	err := ctx.forBatches(0, len(rows), func(b, e int) error {
		h, err := ctx.hashRows(rows[b:e], nil, n.Aggs, false, 1)
		if err != nil {
			return err
		}
		idx = idx[:0]
		for i := b; i < e; i++ {
			idx = append(idx, i)
		}
		groups, err = n.fold(ctx, rows, &piece{idx: idx, h: h, byPos: true}, t, groups)
		return err
	})
	if err != nil {
		return nil, err
	}
	return n.emitGroups(ctx, groups)
}

// fold adds the rows of a loaded piece, in its ascending order, to the
// groups of t, appending each group it creates to groups. A group's state
// and key values come from slabs; under prefix keys its key values are its
// first row's leading cells.
func (n *GroupNode) fold(ctx *Ctx, rows []schema.Row, p *piece, t *keyTable[*groupState], groups []*groupState) ([]*groupState, error) {
	var states slab[groupState]
	var accs slab[accumulator]
	var cells slab[types.Value]
	for k, i := range p.idx {
		if err := ctx.Tick(k); err != nil {
			return nil, err
		}
		j := p.slot(k)
		key, hash := p.h.keys[j], p.h.hashes[j]
		var g *groupState
		if gp := t.lookup(hash, key); gp != nil {
			g = *gp
		} else {
			var keyVals schema.Row
			if n.prefix {
				keyVals = rows[i][:len(n.Keys):len(n.Keys)]
			} else {
				keyVals = cells.take(len(n.Keys))
				for ki, f := range n.Keys {
					v, err := f.Eval(rows[i])
					if err != nil {
						return nil, err
					}
					keyVals[ki] = v
				}
			}
			g = &states.take(1)[0]
			*g = groupState{keyVals: keyVals, accs: accs.take(len(n.Aggs)), first: i}
			for ai := range n.Aggs {
				g.accs[ai] = newAccumulator(&n.Aggs[ai])
			}
			// Arena-backed keys are stable; no copy needed.
			t.insert(hash, key, g)
			groups = append(groups, g)
		}
		for ai, vals := range p.h.args {
			if vals == nil {
				g.accs[ai].addRowCount()
			} else if err := g.accs[ai].add(vals[j]); err != nil {
				return nil, err
			}
		}
	}
	return groups, nil
}

// emitGroups materializes the output rows from groups already sequenced
// in first-appearance order.
func (n *GroupNode) emitGroups(ctx *Ctx, sequence []*groupState) (*Result, error) {
	if len(n.Keys) == 0 && len(sequence) == 0 {
		// Global aggregate over empty input: one row of empty-group results.
		g := &groupState{accs: make([]accumulator, len(n.Aggs))}
		for i := range n.Aggs {
			g.accs[i] = newAccumulator(&n.Aggs[i])
		}
		sequence = append(sequence, g)
	}
	ctx.res.Charge(int64(len(sequence)) * (rowHdrBytes + int64(n.schema.Len())*valueBytes))
	out := make([]schema.Row, len(sequence))
	if len(n.Aggs) == 0 {
		for i, g := range sequence {
			out[i] = g.keyVals
		}
		return &Result{Schema: n.schema, Rows: out}, nil
	}
	width := len(n.Keys) + len(n.Aggs)
	flat := make([]types.Value, len(sequence)*width)
	for i, g := range sequence {
		row := append(flat[i*width:i*width:(i+1)*width], g.keyVals...)
		for ai := range g.accs {
			row = append(row, g.accs[ai].result())
		}
		out[i] = row
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// FilterNode keeps rows whose predicate evaluates to TRUE.
type FilterNode struct {
	base
	Input Node
	// Bind compiles the predicate for one execution at open: under the
	// statement's binding (Ctx.Params), and over the values its
	// uncorrelated IN/EXISTS subqueries produce — their plans (see
	// SetSubplans) run through Run. Planning
	// never executes anything, so those values exist only once a
	// statement runs. Bind also returns the values of the ProbeCol
	// conjunct's subquery (nil when there is none).
	Bind func(c *Ctx) (*eval.Compiled, []types.Value, error)
	// ProbeCol, when >= 0, is the column of a top-level `col IN
	// (subquery)` conjunct over a plain scan (see ProbeScan) of a table
	// indexed on it: the subquery's values become index probes that
	// narrow the scan (probe.go).
	ProbeCol int
	// Pred labels the predicate.
	Pred PredLabel
}

// NewFilterNode wraps child with a compiled predicate, labelled desc.
func NewFilterNode(child Node, pred *eval.Compiled, desc string) *FilterNode {
	n := &FilterNode{Input: child, Pred: PredLabel{Desc: desc}, ProbeCol: -1,
		Bind: func(*Ctx) (*eval.Compiled, []types.Value, error) { return pred, nil, nil }}
	n.schema = child.Schema()
	n.ordering = child.Ordering()
	n.children = []Node{child}
	return n
}

// SetSubplans lists the plans of the predicate's subqueries among the
// filter's children, after its input, so EXPLAIN shows them and a plan
// they share with the rest of the statement counts as shared.
func (n *FilterNode) SetSubplans(plans []Node) {
	n.children = append([]Node{n.Input}, plans...)
}

// Label implements Node.
func (n *FilterNode) Label() string { return n.labelUnder(nil) }

func (n *FilterNode) labelUnder(params []types.Value) string {
	return "Filter(" + n.Pred.under(params) + ")"
}

// open binds the filter as a pipeline stage. Each morsel reserves a row
// reference per input row (the worst case, every row passes). On the
// vector path the predicate evaluates per chunk into the worker's
// selection vector and only the selected row references are gathered;
// the row path serves the whole morsel when vectorization is off. Rows
// in a worker's row block are the morsel's own, so the survivors are
// gathered in place, ahead of the rows still to be read.
func (n *FilterNode) open(c *Ctx) (*level, error) {
	pred, keys, err := n.Bind(c)
	if err != nil {
		return nil, err
	}
	vec := c.useVector(pred)
	probe := c.probeFor(n.Input, n.ProbeCol)
	if probe != nil {
		probe.keys = keys
	}
	return &level{node: n, inBytes: rowHdrBytes, eval: evalMode(vec), parallel: true, probe: probe,
		run: func(s *scratch, in []schema.Row) ([]schema.Row, error) {
			out := in[:0]
			if s.in == nil {
				out = make([]schema.Row, 0, len(in)/4+1)
			}
			if vec {
				// A probe's morsel can exceed MorselSize; keep kernel chunks
				// at the scratch width.
				err := c.forBatches(0, len(in), func(b, e int) error {
					sel, err := eval.EvalPredicateBatch(pred, in[b:e], nil, s.sel[:0])
					s.sel = sel
					for _, i := range sel {
						out = append(out, in[b+i])
					}
					return err
				})
				return out, err
			}
			for i, r := range in {
				if err := c.Tick(i); err != nil {
					return nil, err
				}
				ok, err := eval.EvalPredicate(pred, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, r)
				}
			}
			return out, nil
		}}, nil
}

// ProjectNode computes output columns from input rows.
type ProjectNode struct {
	base
	Input Node
	Exprs []*eval.Compiled
	// ords holds the input ordinal of every expression when the
	// projection only selects columns; nil when any expression computes.
	ords []int
}

// NewProjectNode builds a projection with a prepared output schema.
func NewProjectNode(child Node, out *schema.Schema, exprs []*eval.Compiled) *ProjectNode {
	n := &ProjectNode{Input: child, Exprs: exprs}
	n.children = []Node{child}
	n.schema = out
	n.estRows = child.EstRows()
	n.ords = eval.ColumnOrdinals(exprs)
	return n
}

// Label implements Node.
func (n *ProjectNode) Label() string { return fmt.Sprintf("Project(%d cols)", n.schema.Len()) }

// project computes out[i] from in[i] for every input row, its cells
// taken from blk (nil: the heap). The vector path works a MorselSize
// chunk at a time and assembles the chunk's output rows in one flat
// backing array, so rows stay disjoint and cost at most one allocation
// per chunk: a pure column selection copies the cells straight from the
// input rows, anything else evaluates each expression over the chunk into
// cols (the worker's scratch) first. A kernel failure reruns the chunk on the row
// path, which also serves the whole input when vec is off.
func (n *ProjectNode) project(ctx *Ctx, in, out []schema.Row, vec bool, cols [][]types.Value, blk *rowBlock) error {
	ne := len(n.Exprs)
	serial := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Tick(i - lo); err != nil {
				return err
			}
			row := blk.take(ne)
			for j, f := range n.Exprs {
				v, err := f.Eval(in[i])
				if err != nil {
					return err
				}
				row[j] = v
			}
			out[i] = row
		}
		return nil
	}
	if !vec {
		return serial(0, len(in))
	}
	return ctx.forBatches(0, len(in), func(b, e int) error {
		chunk := in[b:e]
		if n.ords == nil && !tryBatchAll(n.Exprs, chunk, cols) {
			return serial(b, e)
		}
		flat := blk.take(len(chunk) * ne)
		for i, r := range chunk {
			row := flat[i*ne : (i+1)*ne : (i+1)*ne]
			if n.ords != nil {
				for j, ord := range n.ords {
					row[j] = r[ord]
				}
			} else {
				for j := range row {
					row[j] = cols[j][i]
				}
			}
			out[b+i] = row
		}
		return nil
	})
}

// open binds the projection as a pipeline stage: each morsel reserves
// its output rows and projects through the worker's scratch. A
// projection of the first k input columns over rows the execution owns
// (OwnsRows) keeps them: it re-slices each to its first k cells — in
// place when they are in a worker's row block — or passes the morsel
// through when k is the input's width.
func (n *ProjectNode) open(c *Ctx) *level {
	vec := c.useVector(n.Exprs...)
	lv := &level{node: n, eval: evalMode(vec), parallel: true}
	if k := len(n.ords); leading(n.ords) && OwnsRows(n.Input) {
		if k < n.Input.Schema().Len() {
			lv.inBytes = rowHdrBytes
			lv.run = func(s *scratch, in []schema.Row) ([]schema.Row, error) {
				out := in
				if s.in == nil {
					out = make([]schema.Row, len(in))
				}
				for i, r := range in {
					out[i] = r[:k:k]
				}
				return out, nil
			}
		}
		return lv
	}
	lv.inBytes = rowHdrBytes + int64(len(n.Exprs))*valueBytes
	lv.builds = true
	lv.run = func(s *scratch, in []schema.Row) ([]schema.Row, error) {
		var cols [][]types.Value
		if vec && n.ords == nil {
			cols = s.evalCols(len(n.Exprs), len(in))
		}
		out := s.out.rows(len(in), len(in))
		return out, n.project(c, in, out, vec, cols, s.out)
	}
	return lv
}

// leading reports whether column ordinals ords are the first columns of
// an input, in order.
func leading(ords []int) bool {
	for j, o := range ords {
		if o != j {
			return false
		}
	}
	return ords != nil
}

// SortNode orders rows by compiled key expressions.
type SortNode struct {
	base
	Input Node
	Keys  []*eval.Compiled
	Desc  []bool
}

// NewSortNode builds a sort over child.
func NewSortNode(child Node, keys []*eval.Compiled, desc []bool) *SortNode {
	n := &SortNode{Input: child, Keys: keys, Desc: desc}
	n.children = []Node{child}
	n.schema = child.Schema()
	n.estRows = child.EstRows()
	return n
}

// Label implements Node.
func (n *SortNode) Label() string { return fmt.Sprintf("Sort(%d keys)", len(n.Keys)) }

// Execute implements Node. The input is cut into contiguous chunks, one
// per worker — or, when the budget refuses the working set and the query
// may spill, spillPieces of them written to disk as they are made. Each
// chunk's keys are evaluated and encoded exactly once per row (never per
// comparison) and the chunk sorted by key bytes into a run on its own
// worker; merge then interleaves the runs, which yields the serial stable
// sort's permutation.
func (n *SortNode) Execute(ctx *Ctx) (*Result, error) {
	in, err := Run(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	nrows := len(in.Rows)
	work := sortWorkBytes(nrows, len(n.Keys))
	workers := ctx.workersFor(nrows)
	nruns, onDisk := workers, false
	// The output row references stay charged; the key tuples are scratch.
	if err := ctx.res.Reserve(work + int64(nrows)*rowHdrBytes); err != nil {
		if !ctx.res.CanSpill() {
			return nil, err
		}
		nruns, onDisk = spillPieces(work, ctx.res.Limit()), true
	} else {
		defer ctx.res.Release(work)
	}
	ctx.noteWorkers(n, workers)
	vec := ctx.useVector(n.Keys...)
	ctx.noteEval(n, vec, nrows)

	runRows := max((nrows+nruns-1)/nruns, 1)
	runs := make([]*sortRun, (nrows+runRows-1)/runRows)
	defer func() {
		for _, r := range runs {
			r.discard()
		}
	}()
	err = ctx.forEach(len(runs), workers, func(_, r int) error {
		lo, hi := r*runRows, min((r+1)*runRows, nrows)
		ents := make([]sortEntry, hi-lo)
		if !onDisk {
			runs[r] = &sortRun{ents: ents}
			return n.sortChunk(ctx, in.Rows, lo, ents, vec)
		}
		b := sortWorkBytes(hi-lo, len(n.Keys)) + spillFileOverhead
		ctx.res.Charge(b)
		defer ctx.res.Release(b)
		if err := n.sortChunk(ctx, in.Rows, lo, ents, vec); err != nil {
			return err
		}
		var err error
		runs[r], err = spillRun(ctx.res, ents)
		return err
	})
	if err != nil {
		return nil, err
	}
	if onDisk {
		var bytes int64
		for _, r := range runs {
			bytes += r.bytes
		}
		ctx.noteSpill(n, len(runs), bytes)
		// Merge cursors plus the output row references are the steady-state
		// working set; charge it (non-failing — spill mode completes).
		cursors := int64(len(runs)) * (spillFileOverhead + int64(len(n.Keys))*valueBytes)
		ctx.res.Charge(cursors + int64(nrows)*rowHdrBytes)
		defer ctx.res.Release(cursors)
	}
	out, err := n.merge(ctx, in.Rows, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// sortChunk evaluates the keys of rows[lo:lo+len(ents)], vector kernels
// first, encodes each row's tuple into one sort key (types.AppendSortKey)
// and sorts the entries by key bytes, ties to the earlier row.
func (n *SortNode) sortChunk(ctx *Ctx, rows []schema.Row, lo int, ents []sortEntry, vec bool) error {
	s := getScratch()
	defer putScratch(s)
	cols := s.evalCols(len(n.Keys), len(ents))
	err := ctx.forBatches(0, len(ents), func(b, e int) error {
		chunk := rows[lo+b : lo+e]
		if !vec || !tryBatchAll(n.Keys, chunk, cols) {
			for i, r := range chunk {
				if err := ctx.Tick(i); err != nil {
					return err
				}
				for j, f := range n.Keys {
					v, err := f.Eval(r)
					if err != nil {
						return err
					}
					cols[j][i] = v
				}
			}
		}
		// One arena per morsel, sized for its keys: a string's bytes
		// plus at most 11 more per value, unless a string holds 0x00.
		size := 0
		for _, col := range cols {
			for _, v := range col[:len(chunk)] {
				if size += 11; v.Kind() == types.KindString {
					size += len(v.Str())
				}
			}
		}
		arena := make([]byte, 0, size)
		for i := range chunk {
			start := len(arena)
			for j, desc := range n.Desc {
				arena = types.AppendSortKey(arena, cols[j][i], desc)
			}
			ents[b+i] = sortEntry{row: lo + b + i, key: arena[start:len(arena):len(arena)]}
		}
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(ents, func(a, b sortEntry) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	return nil
}

// merge interleaves sorted runs of contiguous input chunks, given in
// input order, through a binary heap of their heads: the smallest key
// first, ties to the earliest run — the stability rule, since earlier runs
// hold earlier rows.
func (n *SortNode) merge(ctx *Ctx, rows []schema.Row, runs []*sortRun) ([]schema.Row, error) {
	heap := make([]int, 0, len(runs))
	for i, r := range runs {
		if err := r.next(); err != nil {
			return nil, err
		}
		if r.ok {
			heap = append(heap, i)
		}
	}
	less := func(a, b int) bool {
		c := bytes.Compare(runs[a].head.key, runs[b].head.key)
		return c < 0 || c == 0 && a < b
	}
	down := func(i int) {
		for {
			m, l := i, 2*i+1
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if l+1 < len(heap) && less(heap[l+1], heap[m]) {
				m = l + 1
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]schema.Row, 0, len(rows))
	for len(heap) > 0 {
		if err := ctx.Tick(len(out)); err != nil {
			return nil, err
		}
		r := runs[heap[0]]
		out = append(out, rows[r.head.row])
		if err := r.next(); err != nil {
			return nil, err
		}
		if !r.ok {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	if len(out) != len(rows) {
		return nil, fmt.Errorf("exec: sort runs ended at %d of %d rows", len(out), len(rows))
	}
	return out, nil
}

// LimitNode skips Offset rows then truncates to N (N < 0 means no limit,
// offset only). It is the cut of the pipeline it tops: the consumer
// applies it to the delivered morsels and stops the pump once it is
// reached, so upstream work ends without draining the rest of the input.
type LimitNode struct {
	base
	Input  Node
	N      int64
	Offset int64
}

// NewLimitNode wraps child with LIMIT n (pass n < 0 for OFFSET-only).
func NewLimitNode(child Node, limit int64) *LimitNode {
	n := &LimitNode{Input: child, N: limit}
	n.children = []Node{child}
	n.schema = child.Schema()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *LimitNode) Label() string {
	if n.Offset > 0 {
		return fmt.Sprintf("Limit(%d offset %d)", n.N, n.Offset)
	}
	return fmt.Sprintf("Limit(%d)", n.N)
}

// UnionNode concatenates two inputs: UNION ALL. (UNION is a NewDistinct
// over it.)
type UnionNode struct {
	base
	Left, Right Node
}

// NewUnionNode combines two inputs of equal arity with UNION ALL
// semantics.
func NewUnionNode(l, r Node) (*UnionNode, error) {
	if l.Schema().Len() != r.Schema().Len() {
		return nil, fmt.Errorf("exec: UNION arity mismatch: %d vs %d", l.Schema().Len(), r.Schema().Len())
	}
	n := &UnionNode{Left: l, Right: r}
	n.children = []Node{l, r}
	n.schema = l.Schema()
	return n, nil
}

// Label implements Node.
func (n *UnionNode) Label() string { return "UnionAll" }

// open binds the union as its pipeline's source: it runs its left input,
// then its right, reserves a row reference per row of both, and serves
// MorselSize morsels of the left rows, then of the right.
func (n *UnionNode) open(c *Ctx) (*level, source, error) {
	lv := &level{node: n}
	l, err := Run(c, n.Left)
	if err != nil {
		return lv, source{}, err
	}
	r, err := Run(c, n.Right)
	if err != nil {
		return lv, source{}, err
	}
	bytes := int64(len(l.Rows)+len(r.Rows)) * rowHdrBytes
	if err := c.reserveOrCharge(bytes); err != nil {
		return lv, source{}, err
	}
	src := sliceSource(l.Rows, r.Rows)
	src.charged = bytes
	return lv, src, nil
}

// Morsel pipelines: the one execution path of the pipelined operators.
// A plan splits at its breakers into pipelines. Each pipeline has a
// source of numbered morsels — a fused scan's zone-pruned, segment-local
// morsels, an index or probed scan's row ids, or resident rows (a plain
// scan, Values, a breaker's or shared subtree's finished result, a UNION
// ALL's left rows and then its right rows) cut into MorselSize ranges —
// the stages that map a morsel's rows through the pipelined operators
// above it (filter, project, window, hash-join probe, nested-loop join)
// with the scratch of the pump worker running it, and an optional limit
// cut the consumer applies. Under windows the resident rows are cut only
// where a partition ends, so every morsel holds whole partitions
// (alignWindows). The morsel pump runs source and stages per morsel, in
// parallel once the input is large enough, and delivers the outputs
// strictly in morsel order.
//
// A pipeline is consumed one of two ways, and nothing else produces a
// pipelined operator's output: Open streams it batch by batch, so the
// first rows leave the engine while the scan is still running, and Run
// drains it into a Result. The breakers — sort and aggregation (which
// DISTINCT, UNION, EXCEPT and INTERSECT are) — materialize through their
// Execute, as does a hash join whose build reservation is refused (the
// partitioned join) from inside its stage's open; all of them reach their
// inputs through Run.
//
// Either way the execution contract is the same:
//   - Results and row order are byte-identical at any parallelism.
//   - Errors are the same sentinels: cooperative cancellation per morsel,
//     memory charged per morsel with the executor's accounting constants,
//     panic containment (govern.Internalize), and the SlowOp/WorkerPanic
//     fault injections.
//   - Shared subtrees (a node reached along more than one parent edge
//     from the statement root) run once, through Run and the Ctx's node
//     table.
//   - Every operator of a pipeline records its NodeStats from the morsels
//     delivered, so a Run and an Open-and-drain of one plan record the
//     same rows, workers, eval mode, batches and segments.
//
// Closing a stream early — before exhaustion — shuts down its worker
// goroutines and releases every memory reservation the pipeline holds;
// spill files remain owned by govern.Resources and are removed by its
// Close.
package exec

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// Stream is a pull-based batch iterator over an executing plan. Next
// returns the next non-empty batch of rows, or (nil, nil) once the
// stream is exhausted; after an error every subsequent Next returns the
// same error. Batches may alias engine-internal buffers — they are valid
// until the next Next or Close (adopt them only when OwnsRows allows).
// Close is idempotent, stops in-flight work, and releases the stream's
// memory reservations; it must be called even after EOS or an error
// (both also release eagerly, so a late Close is a no-op).
//
// A Stream is not safe for concurrent use.
type Stream interface {
	// Schema is the output shape of the stream's batches.
	Schema() *schema.Schema
	// Next returns the next batch; (nil, nil) means end of stream.
	Next() ([]schema.Row, error)
	// Close terminates the stream and releases its resources.
	Close() error
}

// Open compiles the plan rooted at n into a pull-based Stream executing
// under ctx. Execution is lazy: no work happens (and no goroutines
// start) until the first Next. The same Ctx rules apply as for Run —
// SetParallelism / SetResources / EnableStats before Open, and a node
// must not be both Run and Opened under one Ctx.
func Open(ctx *Ctx, n Node) Stream {
	ctx.mu.Lock()
	ctx.countRefsLocked(n)
	ctx.mu.Unlock()
	return &pipeStream{p: compile(ctx, n)}
}

// OwnsRows reports whether the rows a plan produces are freshly
// allocated by its own operators — exclusively owned by the execution —
// rather than aliases of shared storage (table row caches, literal
// Values data). Owned rows may be adopted by the caller without copying.
func OwnsRows(n Node) bool {
	switch t := n.(type) {
	case *ProjectNode, *HashJoinNode, *NestedLoopJoinNode, *WindowNode:
		return true
	case *GroupNode:
		// Keys-only grouping on leading columns returns first rows' cells.
		return len(t.Aggs) > 0 || !t.prefix || OwnsRows(t.Input)
	case *FilterNode:
		return OwnsRows(t.Input)
	case *SortNode:
		return OwnsRows(t.Input)
	case *LimitNode:
		return OwnsRows(t.Input)
	case *UnionNode:
		return OwnsRows(t.Left) && OwnsRows(t.Right)
	default:
		// Scans and Values alias shared buffers; unknown (external)
		// operators get the conservative answer.
		return false
	}
}

// streamedInput is the input a pipelined operator consumes morsel by
// morsel; nil for sources.
func streamedInput(n Node) Node {
	switch t := n.(type) {
	case *FilterNode:
		return t.Input
	case *ProjectNode:
		return t.Input
	case *HashJoinNode:
		return t.Left
	case *NestedLoopJoinNode:
		return t.Left
	case *LimitNode:
		return t.Input
	case *WindowNode:
		return t.Input
	}
	return nil
}

// pipeline is the compiled form of n's output: chain holds n and the
// pipelined operators below it, top down, and leaf (when set) is the node
// whose Run result the source slices — a breaker, a shared subtree, a
// Limit below the top (a limit cuts the pipeline it tops, so one further
// down ends the chain), or the input of a window that cannot share the
// morsels below it. Operators are bound to the execution at open.
type pipeline struct {
	ctx   *Ctx
	sch   *schema.Schema
	chain []Node
	leaf  Node
	// aligned cuts resident source rows where the align keys change (see
	// alignWindows), not every MorselSize rows.
	aligned bool
	align   []*eval.Compiled
	// keep leaves the per-morsel output charges in place at close: Run's
	// result holds the rows, exactly as a materialized operator's would.
	keep  bool
	stats bool

	src     source
	levels  []*level // bottom up once open: levels[0] is the source
	cut     *LimitNode
	skip    int64 // cut: offset rows still to drop
	left    int64 // cut: rows still to emit; negative means no limit
	workers int
	// scratch is each pump worker's, taken from scratchPool once the
	// fan-out is known when a stage will use it, and returned at close.
	scratch []*scratch
	one     [1]*scratch // scratch's backing for one worker
	pump    *morselPump
	charged atomic.Int64
	start   time.Time
	done    bool
	closed  bool
}

// source is where a pipeline's morsels come from.
type source struct {
	nm, rows int // morsel count, input rows (they size the fan-out)
	morsel   func(m int) ([]schema.Row, error)
	// parts holds the resident rows the morsels slice, in order (nil for
	// a scan that builds its morsels), which a drain with no row-changing
	// stage returns without running a morsel.
	parts [][]schema.Row
	// charged is the output reservation the source took at open.
	charged int64
}

// sliceSource cuts resident rows into MorselSize morsels, the rows of
// each part in turn.
func sliceSource(parts ...[]schema.Row) source {
	src := source{parts: parts}
	for _, rows := range parts {
		src.nm += (len(rows) + MorselSize - 1) / MorselSize
		src.rows += len(rows)
	}
	src.morsel = func(m int) ([]schema.Row, error) {
		for _, rows := range parts {
			if lo := m * MorselSize; lo < len(rows) {
				hi := min(lo+MorselSize, len(rows))
				return rows[lo:hi:hi], nil
			}
			m -= (len(rows) + MorselSize - 1) / MorselSize
		}
		return nil, fmt.Errorf("exec: morsel %d past the resident rows", m)
	}
	return src
}

// slice is the source over resident rows. An aligned pipeline's morsels
// hold at least MorselSize rows and end only where the align keys change,
// so none splits a partition of the windows above; with no keys the rows
// are one morsel.
func (p *pipeline) slice(rows []schema.Row) (source, error) {
	if !p.aligned {
		return sliceSource(rows), nil
	}
	var ends []int
	var last, next keyEnc
	for lo := 0; lo < len(rows); {
		hi := len(rows)
		if len(p.align) > 0 && lo+MorselSize < hi {
			hi = lo + MorselSize
			key, _, err := last.funcs(p.align, rows[hi-1])
			if err != nil {
				return source{}, err
			}
			for ; hi < len(rows); hi++ {
				k, _, err := next.funcs(p.align, rows[hi])
				if err != nil {
					return source{}, err
				}
				if !bytes.Equal(k, key) {
					break
				}
				if err := p.ctx.Tick(hi); err != nil {
					return source{}, err
				}
			}
		}
		ends = append(ends, hi)
		lo = hi
	}
	return source{nm: len(ends), rows: len(rows), parts: [][]schema.Row{rows},
		morsel: func(m int) ([]schema.Row, error) {
			lo := 0
			if m > 0 {
				lo = ends[m-1]
			}
			return rows[lo:ends[m]:ends[m]], nil
		}}, nil
}

// level is one operator of an open pipeline — the source, a stage, or
// the cut — with what its NodeStats need.
type level struct {
	// node records this level's NodeStats; nil when Run records them (a
	// materialized input).
	node Node
	// run maps one morsel's rows through a stage with the scratch of the
	// pump worker running it; nil passes them through (the source, the
	// cut).
	run func(s *scratch, in []schema.Row) ([]schema.Row, error)
	// inBytes is reserved per input row before run, outBytes charged per
	// output row after it — the executor's accounting constants.
	inBytes, outBytes int64
	// reserved is working memory held until close (a join's build table).
	reserved int64
	// eval is "vector", "row", or "" for an operator with no expressions;
	// batchRows adds to the rows its batches= covers (a join's build
	// side, a fused scan's input).
	eval      string
	batchRows int
	// parallel records the pump's fan-out as the operator's Workers.
	parallel bool
	// builds marks a stage that builds its output rows (a computed
	// projection, a window, a join); pooled, set at open on every one but
	// the pipeline's last, makes it build them in the worker's row blocks.
	builds, pooled bool
	// probe is the keys this stage bound for the plain scan below it.
	probe *scanProbe
	// st is where the level's numbers are published, once open has
	// recorded them.
	st *NodeStats

	open     time.Duration
	start    time.Time
	cum      time.Duration // open time of this level and those below it
	rows, in int
	busy     time.Duration
}

// scratch is one pump worker's reusable state. A worker runs a morsel
// through one stage at a time, so every stage of its pipeline shares it:
// the filter's selection, the eval columns a projection or probe fills,
// the probe's key encoder and candidate buffers, the windows'
// winScratch, and the two row blocks. Each buffer grows to the largest
// morsel seen. Sort and hash keying take one per chunk for its eval
// columns and key encoder. Scratch lives in scratchPool between uses.
type scratch struct {
	sel       []int
	vals      []types.Value
	cols      [][]types.Value
	enc       keyEnc
	cand      []schema.Row
	candStart []int
	// ends, when non-nil, collects the output length after each probe
	// row, so partitionedJoin can place every row's output.
	ends []int
	win  winScratch
	// blocks hold the rows the pooled stages build, which only the next
	// stages of the same morsel read: a pooled stage writes the block
	// that does not hold its input (out, while it runs), and in is the
	// block holding the morsel's current rows — nil when they are the
	// source's or on the heap. A filter or a leading-column projection
	// keeps its input's block.
	blocks  [2]rowBlock
	in, out *rowBlock
}

// scratchPoolCap is the most scratch, in bytes of its buffers, that
// scratchPool keeps. A lookup's scratch, a few hundred rows, fits, so
// its next execution allocates none; a worker that ran full MorselSize
// morsels of wide rows is dropped instead of pinning megabytes in the
// pool.
const scratchPoolCap = 256 << 10

// scratchPool keeps workers' scratch across executions and queries.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns s to the pool unless it outgrew scratchPoolCap. Its
// row references are cleared, so a pooled scratch keeps no rows alive.
func putScratch(s *scratch) {
	if s.bytes() > scratchPoolCap {
		return
	}
	clear(s.cand[:cap(s.cand)])
	for i := range s.blocks {
		clear(s.blocks[i].hdrs[:cap(s.blocks[i].hdrs)])
	}
	s.in, s.out = nil, nil
	scratchPool.Put(s)
}

// bytes is the size of s's buffers.
func (s *scratch) bytes() int {
	n := 8*(cap(s.sel)+cap(s.candStart)+cap(s.ends)+cap(s.win.ends)+cap(s.win.keys)) +
		rowHdrBytes*(cap(s.cols)+cap(s.cand)) + valueBytes*(cap(s.vals)+cap(s.win.ord)) +
		cap(s.enc.buf) + cap(s.win.enc[0].buf) + cap(s.win.enc[1].buf)
	for i := range s.win.args {
		n += valueBytes * (cap(s.win.args[i]) + cap(s.win.outs[i]))
	}
	for i := range s.blocks {
		n += rowHdrBytes*cap(s.blocks[i].hdrs) + valueBytes*len(s.blocks[i].cells)
	}
	return n
}

// toBlock readies the block a pooled stage writes: the one that does not
// hold its input, emptied.
func (s *scratch) toBlock() {
	s.out = &s.blocks[0]
	if s.in == s.out {
		s.out = &s.blocks[1]
	}
	s.out.used = 0
}

// landed records where a stage left the morsel's rows: in the block a
// pooled stage wrote, on the heap after any other stage that builds
// rows, and where they were after a stage that passes them through.
func (s *scratch) landed(lv *level, rows []schema.Row) {
	switch {
	case s.out != nil:
		if cap(rows) > cap(s.out.hdrs) {
			s.out.hdrs = rows[:0]
		}
		s.in, s.out = s.out, nil
	case lv.builds:
		s.in = nil
	}
}

// rowBlock is one of a worker's two blocks of row headers and cells. A
// nil block is the heap: its methods then allocate as a stage that
// builds rows the pipeline hands on must.
type rowBlock struct {
	hdrs  []schema.Row
	cells []types.Value
	used  int // cells handed out since the block was emptied
}

// rows returns n row headers, their cap at least c.
func (b *rowBlock) rows(n, c int) []schema.Row {
	if b == nil {
		return make([]schema.Row, n, c)
	}
	if cap(b.hdrs) < c {
		b.hdrs = make([]schema.Row, c)
	}
	return b.hdrs[:n]
}

// take returns n cells for the caller to fill. When the block runs out
// it moves to an array twice as large; the rows carved so far keep the
// old one.
func (b *rowBlock) take(n int) []types.Value {
	if b == nil {
		return make([]types.Value, n)
	}
	if len(b.cells)-b.used < n {
		b.cells = make([]types.Value, max(n, 2*len(b.cells)))
		b.used = 0
	}
	b.used += n
	return b.cells[b.used-n : b.used : b.used]
}

// concat is the row l ++ r; a nil r pads with width NULLs (a left join's
// unmatched row).
func (b *rowBlock) concat(l, r schema.Row, width int) schema.Row {
	row := b.take(len(l) + width)
	copy(row, l)
	if r == nil {
		clear(row[len(l):])
	} else {
		copy(row[len(l):], r)
	}
	return row
}

// untake gives back the last n cells taken, when they hold a row nobody
// kept.
func (b *rowBlock) untake(n int) {
	if b != nil {
		b.used -= n
	}
}

// evalCols returns exactly nexprs column vectors, each wide enough for
// the chunks of nrows rows — MorselSize, or nrows when fewer — carved
// from the worker's buffer, which is reallocated only when too small.
// Exactly nexprs: a key encoder encodes every column it is handed.
func (s *scratch) evalCols(nexprs, nrows int) [][]types.Value {
	width := min(nrows, MorselSize)
	s.vals = grow(s.vals, nexprs*width)
	s.cols = grow(s.cols, nexprs)
	for j := range s.cols {
		s.cols[j] = s.vals[j*width : (j+1)*width : (j+1)*width]
	}
	return s.cols
}

// morselOut is one morsel's result; n and busy (rows out of, and time
// spent through, each level) are filled only when stats are collected.
type morselOut struct {
	rows []schema.Row
	n    []int
	busy []time.Duration
}

// compile lays out the pipeline producing n's output. Every operator
// that is not a breaker is pipelined.
func compile(c *Ctx, n Node) *pipeline {
	p := &pipeline{ctx: c, sch: n.Schema(), stats: c.analyze}
	for n != nil {
		if _, brk := n.(breaker); brk || len(p.chain) > 0 && (c.shared(n) || isLimit(n)) {
			p.leaf = n
			break
		}
		p.chain = append(p.chain, n)
		n = streamedInput(n)
	}
	p.alignWindows()
	return p
}

// alignWindows lets the windows of the chain run as stages over one
// source. Walking up from the source, ords maps each column of a level's
// output to the source column it carries (-1 for a computed one; nil once
// a scan or a join lies below). The lowest window's partition columns, so
// mapped, are where the source is cut; a window above shares those
// morsels when its own mapped partition columns include them. Otherwise —
// its columns do not map, do not include the cut, or are not bare
// columns — the window's input becomes the leaf, cut on the window's own
// keys. A window without PARTITION BY is one morsel, so it runs alone:
// its input is the leaf, and the stages above it run over MorselSize
// morsels of its result.
func (p *pipeline) alignWindows() {
	var ords, cut []int
	if p.leaf != nil {
		ords = identity(p.leaf.Schema().Len())
	}
	for i := len(p.chain) - 1; i >= 0; i-- {
		switch t := p.chain[i].(type) {
		case *ValuesNode:
			ords = identity(t.Schema().Len())
		case *FilterNode, *LimitNode:
		case *ProjectNode:
			if ords != nil {
				next := make([]int, len(t.Exprs))
				for j, e := range t.Exprs {
					next[j] = -1
					if o, ok := e.ColumnOrdinal(); ok {
						next[j] = ords[o]
					}
				}
				ords = next
			}
		case *WindowNode:
			if len(t.PartKeys) == 0 && i > 0 {
				p.chain, p.leaf = p.chain[:i], t
				p.align, p.aligned, cut = nil, false, nil
				ords = identity(t.Schema().Len())
				continue
			}
			part := pick(ords, t.partOrds)
			switch {
			case len(t.PartKeys) == 0 || part == nil || p.aligned && (cut == nil || !subset(cut, part)):
				p.chain, p.leaf = p.chain[:i+1], t.Input
				p.align, cut = t.PartKeys, t.partOrds
				ords = identity(t.Input.Schema().Len())
			case !p.aligned:
				p.align, cut = make([]*eval.Compiled, len(part)), part
				for j, o := range part {
					p.align[j] = eval.Column(o)
				}
			}
			p.aligned = true
			for range t.Aggs {
				ords = append(ords, -1)
			}
		default:
			ords = nil
		}
	}
}

func identity(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

// pick maps the columns sel selects through ords; nil when any of them
// has no source column.
func pick(ords, sel []int) []int {
	if ords == nil || sel == nil {
		return nil
	}
	out := make([]int, len(sel))
	for j, o := range sel {
		if out[j] = ords[o]; out[j] < 0 {
			return nil
		}
	}
	return out
}

// subset reports whether every column of a is in b.
func subset(a, b []int) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

func isLimit(n Node) bool {
	_, ok := n.(*LimitNode)
	return ok
}

// open binds the operators to the execution top down — a join's build
// and a filter's subqueries run before the input they will see, so the
// keys they bind can choose what the scan below them reads (probe.go) —
// then sizes the fan-out.
func (p *pipeline) open() error {
	c := p.ctx
	p.start = time.Now()
	found := false
	var probe *scanProbe
	p.levels = make([]*level, 0, len(p.chain)+1)
	for _, n := range p.chain {
		t0 := time.Now()
		var lv *level
		var err error
		switch t := n.(type) {
		case *LimitNode:
			p.cut, p.skip, p.left = t, t.Offset, t.N
			lv = &level{node: t}
		case *ScanNode:
			lv, p.src, err = t.open(c, probe)
			found = err == nil
		case *ValuesNode:
			lv, found = &level{node: t}, true
			p.src, err = p.slice(t.RowsData)
		case *UnionNode:
			lv, p.src, err = t.open(c)
			found = err == nil
		case *FilterNode:
			lv, err = t.open(c)
		case *ProjectNode:
			lv = t.open(c)
		case *WindowNode:
			lv, err = t.open(c)
		case *NestedLoopJoinNode:
			lv, err = t.open(c)
		case *HashJoinNode:
			var joined *Result
			lv, joined, err = t.open(c)
			if joined != nil {
				p.src, found = sliceSource(joined.Rows), true
			}
		default:
			err = fmt.Errorf("exec: %T is neither a breaker nor a pipelined operator", n)
		}
		if lv != nil {
			lv.open = time.Since(t0)
			p.levels = append(p.levels, lv)
			if lv.probe != nil {
				probe = lv.probe
			}
		}
		if err != nil {
			return err
		}
		if found {
			break
		}
	}
	if !found {
		t0 := time.Now()
		r, err := Run(c, p.leaf)
		if err != nil {
			return err
		}
		if p.src, err = p.slice(r.Rows); err != nil {
			return err
		}
		p.levels = append(p.levels, &level{open: time.Since(t0)})
	}
	slices.Reverse(p.levels)
	last := -1
	for i, lv := range p.levels {
		if lv.builds {
			last = i
		}
	}
	for _, lv := range p.levels[:max(last, 0)] {
		lv.pooled = lv.builds
	}
	p.workers = max(1, min(c.workersFor(p.src.rows), p.src.nm))
	for _, lv := range p.levels {
		if lv.run != nil {
			p.scratch = p.one[:]
			if p.workers > 1 {
				p.scratch = make([]*scratch, p.workers)
			}
			for w := range p.scratch {
				p.scratch[w] = getScratch()
			}
			break
		}
	}
	if p.stats {
		p.publishOpen()
	}
	return nil
}

// publishOpen lays the levels out in time for the stats — level i starts
// once the levels above it have opened and lasts its own and its inputs'
// open time plus the morsel work through it — and records what open
// decided: fan-out and eval mode.
func (p *pipeline) publishOpen() {
	c := p.ctx
	var cum time.Duration
	for _, lv := range p.levels {
		cum += lv.open
		lv.cum = cum
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := p.start
	for i := len(p.levels) - 1; i >= 0; i-- {
		lv := p.levels[i]
		lv.start = at
		at = at.Add(lv.open)
		if lv.node == nil {
			continue
		}
		st := c.statLocked(lv.node)
		lv.st = st
		if lv.parallel && p.workers > st.Workers && p.workers > 1 {
			st.Workers = p.workers
		}
		st.EvalMode = lv.eval
		p.publishLocked(lv)
	}
}

// publishLocked writes a level's running numbers into its NodeStats;
// the caller holds ctx.mu.
func (p *pipeline) publishLocked(lv *level) {
	st := lv.st
	if st == nil {
		return
	}
	st.Rows, st.Start = lv.rows, lv.start
	st.Elapsed = lv.cum + lv.busy/time.Duration(p.workers)
	if lv.eval == "vector" {
		st.Batches = batchCount(lv.in + lv.batchRows)
	}
}

// morsel runs morsel m through the source and every stage on behalf of
// pump worker w.
func (p *pipeline) morsel(w, m int) (morselOut, error) {
	c := p.ctx
	var out morselOut
	var t0 time.Time
	if p.stats {
		t0 = time.Now()
		out.n = make([]int, len(p.levels))
		out.busy = make([]time.Duration, len(p.levels))
	}
	rows, err := p.src.morsel(m)
	if err != nil {
		return out, err
	}
	var s *scratch
	if p.scratch != nil {
		s = p.scratch[w]
		s.in, s.out = nil, nil
	}
	for i, lv := range p.levels {
		if lv.inBytes > 0 {
			b := int64(len(rows)) * lv.inBytes
			if err := c.reserveOrCharge(b); err != nil {
				return out, err
			}
			p.charged.Add(b)
		}
		if lv.run != nil {
			if lv.pooled {
				s.toBlock()
			}
			if rows, err = lv.run(s, rows); err != nil {
				return out, err
			}
			s.landed(lv, rows)
		}
		if lv.outBytes > 0 {
			b := int64(len(rows)) * lv.outBytes
			c.res.Charge(b)
			p.charged.Add(b)
		}
		if p.stats {
			out.n[i], out.busy[i] = len(rows), time.Since(t0)
		}
	}
	out.rows = rows
	return out, nil
}

// next returns the next non-empty output batch in morsel order, or nil at
// the end of the input or once the cut is reached. The pump starts at the
// first call, so a drain that hands over resident rows never makes one.
func (p *pipeline) next() ([]schema.Row, error) {
	if p.pump == nil {
		p.pump = newMorselPump(p.ctx, p.src.nm, p.workers, p.morsel)
	}
	for !p.done {
		if p.left == 0 && p.cut != nil {
			p.done = true
			break
		}
		mo, ok, err := p.pump.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			p.done = true
			break
		}
		rows := mo.rows
		if p.cut != nil {
			rows = p.applyCut(rows)
		}
		if p.stats {
			p.account(mo, len(rows))
		}
		if len(rows) > 0 {
			return rows, nil
		}
	}
	return nil, nil
}

// applyCut skips the limit's offset, then passes at most its count.
func (p *pipeline) applyCut(rows []schema.Row) []schema.Row {
	if p.skip > 0 {
		if int64(len(rows)) <= p.skip {
			p.skip -= int64(len(rows))
			return rows[:0]
		}
		rows = rows[p.skip:]
		p.skip = 0
	}
	if p.left >= 0 {
		rows = rows[:min(int64(len(rows)), p.left)]
		p.left -= int64(len(rows))
	}
	return rows
}

// account adds one delivered morsel to every level's stats; cut is the
// number of rows the cut let through.
func (p *pipeline) account(mo morselOut, cut int) {
	c := p.ctx
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, lv := range p.levels {
		n := mo.n[i]
		if i == len(p.levels)-1 && p.cut != nil {
			n = cut
		}
		lv.rows += n
		if i > 0 {
			lv.in += mo.n[i-1]
		}
		lv.busy += mo.busy[i]
		p.publishLocked(lv)
	}
}

// resident returns the source's rows as the whole output when no stage
// changes them — a plain scan, Values, a materialized input or a union,
// under at most projections that keep every column — so draining them
// costs no morsels, and one resident part costs no copy.
func (p *pipeline) resident() ([]schema.Row, bool) {
	if p.src.parts == nil || p.cut != nil {
		return nil, false
	}
	for _, lv := range p.levels {
		if lv.run != nil {
			return nil, false
		}
	}
	p.done = true
	// Handing the rows over is this drain's one unit of work, so it is a
	// WorkerPanic injection point as every morsel is.
	p.ctx.res.MaybePanic()
	if p.stats {
		mo := morselOut{n: make([]int, len(p.levels)), busy: make([]time.Duration, len(p.levels))}
		for i := range mo.n {
			mo.n[i] = p.src.rows
		}
		p.account(mo, p.src.rows)
	}
	return concatMorsels(p.src.parts), true
}

// close stops the pump — no worker outlives it — returns the workers'
// scratch to the pool, and releases the stages' working memory and,
// unless the output is kept, the per-morsel charges.
func (p *pipeline) close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.pump != nil {
		p.pump.close()
	}
	for _, s := range p.scratch {
		putScratch(s)
	}
	res := p.ctx.res
	for _, lv := range p.levels {
		res.Release(lv.reserved)
	}
	if !p.keep {
		res.Release(p.charged.Load() + p.src.charged)
	}
}

// drain is Run for a pipelined node: the pipeline's batches, in order,
// as one Result.
func drain(c *Ctx, n Node) (*Result, error) {
	p := compile(c, n)
	p.keep = true
	defer p.close()
	if err := p.open(); err != nil {
		return nil, err
	}
	if rows, ok := p.resident(); ok {
		return &Result{Schema: p.sch, Rows: rows}, nil
	}
	var outs [][]schema.Row
	for {
		b, err := p.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return &Result{Schema: p.sch, Rows: concatMorsels(outs)}, nil
		}
		outs = append(outs, b)
	}
}

// pipeStream is Open's Stream: lazy open with the cancellation check and
// SlowOp injection Run performs, panic containment around every batch,
// sticky errors, and once-only cleanup.
type pipeStream struct {
	p      *pipeline
	opened bool
	closed bool
	err    error
}

// Schema implements Stream.
func (s *pipeStream) Schema() *schema.Schema { return s.p.sch }

// Next implements Stream.
func (s *pipeStream) Next() (batch []schema.Row, err error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, nil
	}
	// Panics escaping any batch of work become this query's error
	// instead of crashing the process — the streaming equivalent of
	// Run's per-execution recover.
	defer func() {
		if rec := recover(); rec != nil {
			batch, err = nil, govern.Internalize(rec)
			s.fail(err)
		}
	}()
	c := s.p.ctx
	// Poll cancellation on every pull, so a canceled consumer (a client
	// that hung up) stops the stream even when upstream work already
	// finished.
	if err := c.Canceled(); err != nil {
		s.fail(err)
		return nil, err
	}
	if !s.opened {
		s.opened = true
		// Run applies the injection itself to a breaker at the top.
		if len(s.p.chain) > 0 {
			if err := c.slowOp(); err != nil {
				s.fail(err)
				return nil, err
			}
		}
		if err := s.p.open(); err != nil {
			s.fail(err)
			return nil, err
		}
	}
	b, err := s.p.next()
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if b == nil {
		s.Close()
	}
	return b, nil
}

// Close implements Stream.
func (s *pipeStream) Close() error {
	if !s.closed {
		s.closed = true
		s.p.close()
	}
	return nil
}

func (s *pipeStream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.Close()
}

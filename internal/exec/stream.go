// Pull-based streaming execution. Open compiles a plan into a tree of
// batch iterators: scans, filters, projections, limits, and hash-join
// probes stream morsel-sized row batches downstream while upstream
// morsels are still being claimed, so the first rows leave the engine
// long before the last segment is read. Pipeline breakers — sort, hash
// aggregation, window, set operations, the join build side — keep their
// materializing (bit-identical, spill-capable) Execute internally and
// expose the same iterator surface over the finished result.
//
// The streaming path preserves the engine's execution contract exactly:
//   - Results and row order are byte-identical to Run at any parallelism
//     (the parallel scan pump delivers morsels strictly in claim order).
//   - Errors are the same sentinels: cooperative cancellation between
//     batches, memory-budget reservations with the same accounting
//     constants, panic containment per batch (govern.Internalize), and
//     the SlowOp/WorkerPanic fault injections at the same points.
//   - Shared subtrees (CTEs referenced from more than one parent edge)
//     materialize through Run so they still execute exactly once.
//
// Closing a stream early — before exhaustion — shuts down its worker
// goroutines and releases every memory reservation its operators hold;
// spill files remain owned by govern.Resources and are removed by its
// Close, as on the materializing path.
package exec

import (
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
	// Count parent edges: a node reachable more than once (a shared CTE
	// body) must go through Run so its subtree executes exactly once.
	refs := map[Node]int{}
	var walk func(Node)
	walk = func(n Node) {
		refs[n]++
		if refs[n] > 1 {
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return buildStream(ctx, n, refs)
}

// OwnsRows reports whether the rows a plan produces are freshly
// allocated by its own operators — exclusively owned by the execution —
// rather than aliases of shared storage (table row caches, literal
// Values data). Owned rows may be adopted by the caller without copying.
func OwnsRows(n Node) bool {
	switch t := n.(type) {
	case *ProjectNode, *HashJoinNode, *NestedLoopJoinNode, *GroupNode, *WindowNode:
		return true
	case *FilterNode:
		return OwnsRows(t.Input)
	case *SortNode:
		return OwnsRows(t.Input)
	case *LimitNode:
		return OwnsRows(t.Input)
	case *DistinctNode:
		return OwnsRows(t.Input)
	case *RequalifyNode:
		return OwnsRows(t.Input)
	case *SetOpNode:
		// Set-op output rows come from the left input.
		return OwnsRows(t.Left)
	case *UnionNode:
		return OwnsRows(t.Left) && OwnsRows(t.Right)
	default:
		// Scans and Values alias shared buffers; unknown (external)
		// operators get the conservative answer.
		return false
	}
}

// buildStream dispatches one node to its streaming source. Operators
// without a streaming implementation — the pipeline breakers — fall back
// to runSource, which materializes through Run and slices the result.
func buildStream(ctx *Ctx, n Node, refs map[Node]int) Stream {
	if refs[n] > 1 {
		return runStream(ctx, n)
	}
	switch t := n.(type) {
	case *ScanNode:
		if t.IndexOrd < 0 && t.Pred != nil {
			return newOpStream(ctx, t, t.schema, &scanSource{scan: t}, false)
		}
		// Index and plain sequential scans materialize in one step (the
		// gather is small or the row cache is shared); stream the slices.
		return newOpStream(ctx, t, t.Schema(), &materialSource{get: t.Execute}, false)
	case *ValuesNode:
		return newOpStream(ctx, t, t.schema, &materialSource{get: t.Execute}, false)
	case *FilterNode:
		return newOpStream(ctx, t, t.schema, &filterSource{n: t, child: buildStream(ctx, t.Input, refs)}, false)
	case *ProjectNode:
		return newOpStream(ctx, t, t.schema, &projectSource{n: t, child: buildStream(ctx, t.Input, refs)}, false)
	case *LimitNode:
		return newOpStream(ctx, t, t.schema, &limitSource{n: t, child: buildStream(ctx, t.Input, refs)}, false)
	case *RequalifyNode:
		return newOpStream(ctx, t, t.schema, &passSource{child: buildStream(ctx, t.Input, refs)}, false)
	case *HashJoinNode:
		return newOpStream(ctx, t, t.schema, &joinSource{n: t, child: buildStream(ctx, t.Left, refs)}, false)
	default:
		return runStream(ctx, n)
	}
}

// runStream materializes n through Run (breakers, shared subtrees,
// external operators) and streams the finished result in morsel-sized
// slices. Run applies the SlowOp injection and records the node's stats
// itself, so the wrapper does neither.
func runStream(ctx *Ctx, n Node) Stream {
	return newOpStream(ctx, nil, n.Schema(), &materialSource{get: func(c *Ctx) (*Result, error) {
		return Run(c, n)
	}}, true)
}

// source is one operator's streaming engine behind an opStream: open
// prepares state (and may start workers), step produces the next output
// batch, close stops workers and releases reservations. A nil batch from
// step means exhausted and nothing else; a batch that happens to hold no
// row must be empty and non-nil, and the wrapper keeps pulling past it.
// close is called exactly once, possibly without open having run.
type source interface {
	open(c *Ctx) error
	step(c *Ctx) ([]schema.Row, error)
	close(c *Ctx)
}

// opStream adapts a source to the Stream interface and carries the
// per-operator execution contract: lazy open with the cancellation check
// and SlowOp injection Run performs, panic containment around every
// batch, sticky errors, once-only cleanup, and NodeStats recording.
type opStream struct {
	ctx *Ctx
	// node receives NodeStats on cleanup; nil when the source runs
	// through Run, which records them itself.
	node     Node
	sch      *schema.Schema
	src      source
	skipSlow bool
	opened   bool
	done     bool
	closed   bool
	err      error
	rows     int
	start    time.Time
}

func newOpStream(ctx *Ctx, node Node, sch *schema.Schema, src source, skipSlow bool) *opStream {
	return &opStream{ctx: ctx, node: node, sch: sch, src: src, skipSlow: skipSlow}
}

// Schema implements Stream.
func (s *opStream) Schema() *schema.Schema { return s.sch }

// Next implements Stream.
func (s *opStream) Next() (batch []schema.Row, err error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
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
	// Poll cancellation on every pull, so a canceled consumer (a client
	// that hung up) stops the stream even when upstream work already
	// finished.
	if err := s.ctx.Canceled(); err != nil {
		s.fail(err)
		return nil, err
	}
	if !s.opened {
		s.opened = true
		s.start = time.Now()
		if !s.skipSlow {
			if d := s.ctx.res.SlowOp(); d > 0 {
				select {
				case <-time.After(d):
				case <-s.ctx.ctx.Done():
					err := s.ctx.ctx.Err()
					s.fail(err)
					return nil, err
				}
			}
		}
		if err := s.src.open(s.ctx); err != nil {
			s.fail(err)
			return nil, err
		}
	}
	for {
		b, err := s.src.step(s.ctx)
		if err != nil {
			s.fail(err)
			return nil, err
		}
		if b == nil {
			s.done = true
			s.cleanup()
			return nil, nil
		}
		if len(b) == 0 {
			continue
		}
		s.rows += len(b)
		// Publish the running row count so an active-query snapshot shows
		// live progress; cleanup still writes the authoritative final
		// stats. One mutex acquisition per batch, not per row.
		if s.node != nil && s.ctx.stats != nil {
			s.ctx.noteStreamRows(s.node, s.rows, s.start)
		}
		return b, nil
	}
}

// Close implements Stream.
func (s *opStream) Close() error {
	s.done = true
	s.cleanup()
	return nil
}

func (s *opStream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cleanup()
}

// cleanup runs exactly once per stream: it closes the source (stopping
// workers and releasing reservations) and finalizes the operator's
// NodeStats with the rows actually delivered.
func (s *opStream) cleanup() {
	if s.closed {
		return
	}
	s.closed = true
	s.src.close(s.ctx)
	if s.node != nil && s.ctx.stats != nil && s.opened {
		elapsed := time.Since(s.start)
		s.ctx.mu.Lock()
		st := s.ctx.statLocked(s.node)
		st.Rows, st.Start, st.Elapsed = s.rows, s.start, elapsed
		s.ctx.mu.Unlock()
	}
}

// ---- Materialized sources ----

// materialSource executes a node's materializing path once at open and
// serves the result in morsel-sized slices.
type materialSource struct {
	get  func(c *Ctx) (*Result, error)
	rows []schema.Row
	off  int
}

func (m *materialSource) open(c *Ctx) error {
	r, err := m.get(c)
	if err != nil {
		return err
	}
	m.rows = r.Rows
	return nil
}

func (m *materialSource) step(*Ctx) ([]schema.Row, error) {
	if m.off >= len(m.rows) {
		return nil, nil
	}
	lo := m.off
	hi := min(lo+MorselSize, len(m.rows))
	m.off = hi
	return m.rows[lo:hi:hi], nil
}

func (m *materialSource) close(*Ctx) { m.rows = nil }

// ---- Scan ----

// scanSource streams a fused-predicate sequential scan: zone maps prune
// segments at open, then segment-local morsels are evaluated — in
// parallel by the morsel pump when the input is large enough — and
// delivered strictly in morsel order, so the batch sequence concatenates
// to exactly executeFiltered's output.
type scanSource struct {
	scan    *ScanNode
	pump    *morselPump
	charged int64
}

func (s *scanSource) open(c *Ctx) error {
	vec := c.useVector(s.scan.Pred)
	morsels, total := s.scan.planFilteredMorsels(c, vec)
	bytes := int64(total) * rowHdrBytes
	if err := c.reserveOrCharge(bytes); err != nil {
		return err
	}
	s.charged = bytes
	workers := min(c.workersFor(total), len(morsels))
	c.noteWorkers(s.scan, workers)
	c.noteEval(s.scan, vec, total)
	s.pump = newMorselPump(c, len(morsels), workers, func(m int) ([]schema.Row, error) {
		return s.scan.filterMorsel(c, morsels[m], vec)
	})
	return nil
}

func (s *scanSource) step(*Ctx) ([]schema.Row, error) { return s.pump.next() }

func (s *scanSource) close(c *Ctx) {
	if s.pump != nil {
		s.pump.close()
	}
	c.res.Release(s.charged)
	s.charged = 0
}

// ---- Filter ----

// filterSource pulls one child batch per step and keeps the rows whose
// predicate is TRUE, with the same vector/row duality (and row-path
// fallback on kernel errors) as FilterNode.Execute.
type filterSource struct {
	n       *FilterNode
	child   Stream
	vec     bool
	sel     []int
	charged int64
	rowsIn  int
}

func (f *filterSource) open(c *Ctx) error {
	f.vec = c.useVector(f.n.Pred)
	if f.vec {
		f.sel = make([]int, 0, MorselSize)
	}
	return nil
}

func (f *filterSource) step(c *Ctx) ([]schema.Row, error) {
	b, err := f.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		c.noteEval(f.n, f.vec, f.rowsIn)
		return nil, nil
	}
	f.rowsIn += len(b)
	bytes := int64(len(b)) * rowHdrBytes
	if err := c.reserveOrCharge(bytes); err != nil {
		return nil, err
	}
	f.charged += bytes
	out := make([]schema.Row, 0, len(b)/4+1)
	if f.vec {
		// Upstream batches can exceed MorselSize (a materialized breaker
		// slice); keep kernel chunks at the scratch width.
		for lo := 0; lo < len(b); lo += MorselSize {
			hi := min(lo+MorselSize, len(b))
			sel, perr := eval.EvalPredicateBatch(f.n.Pred, b[lo:hi], nil, f.sel[:0])
			if perr != nil {
				return nil, perr
			}
			f.sel = sel
			for _, i := range sel {
				out = append(out, b[lo+i])
			}
		}
		return out, nil
	}
	for i, r := range b {
		if err := c.Tick(i); err != nil {
			return nil, err
		}
		ok, err := eval.EvalPredicate(f.n.Pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func (f *filterSource) close(c *Ctx) {
	f.child.Close()
	c.res.Release(f.charged)
	f.charged = 0
}

// ---- Project ----

// projectSource computes output columns batch-at-a-time through
// ProjectNode.project, the loop the materializing path runs per morsel.
type projectSource struct {
	n       *ProjectNode
	child   Stream
	vec     bool
	cols    [][]types.Value
	charged int64
	rowsIn  int
}

func (p *projectSource) open(c *Ctx) error {
	p.vec = c.useVector(p.n.Exprs...)
	p.cols = p.n.scratch(p.vec)
	return nil
}

func (p *projectSource) step(c *Ctx) ([]schema.Row, error) {
	b, err := p.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		c.noteEval(p.n, p.vec, p.rowsIn)
		return nil, nil
	}
	p.rowsIn += len(b)
	bytes := int64(len(b)) * (rowHdrBytes + int64(len(p.n.Exprs))*valueBytes)
	if err := c.reserveOrCharge(bytes); err != nil {
		return nil, err
	}
	p.charged += bytes
	out := make([]schema.Row, len(b))
	if err := p.n.project(c, b, out, p.vec, p.cols); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *projectSource) close(c *Ctx) {
	p.child.Close()
	c.res.Release(p.charged)
	p.charged = 0
}

// ---- Limit ----

// limitSource skips Offset rows, then passes through at most N. Once the
// limit is reached the next step reports EOS, which closes the child —
// upstream work stops without draining the rest of the input.
type limitSource struct {
	n       *LimitNode
	child   Stream
	skip    int64
	emitted int64
	done    bool
}

func (l *limitSource) open(*Ctx) error {
	l.skip = l.n.Offset
	return nil
}

func (l *limitSource) step(*Ctx) ([]schema.Row, error) {
	if l.done {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.skip > 0 {
		if int64(len(b)) <= l.skip {
			l.skip -= int64(len(b))
			return b[:0], nil
		}
		b = b[l.skip:]
		l.skip = 0
	}
	if l.n.N >= 0 {
		left := l.n.N - l.emitted
		if int64(len(b)) >= left {
			b = b[:left]
			l.done = true
		}
	}
	l.emitted += int64(len(b))
	return b, nil
}

func (l *limitSource) close(*Ctx) { l.child.Close() }

// ---- Requalify ----

// passSource forwards child batches untouched; the wrapping opStream
// carries the requalified schema.
type passSource struct{ child Stream }

func (p *passSource) open(*Ctx) error                 { return nil }
func (p *passSource) step(*Ctx) ([]schema.Row, error) { return p.child.Next() }
func (p *passSource) close(*Ctx)                      { p.child.Close() }

// ---- Hash join probe ----

// joinSource materializes the build side (through Run, reusing a cached
// build table when the context allows) at open, then probes child
// batches incrementally. When the build-side reservation is refused and
// the query may spill, the whole join degrades to the materializing
// path — Run handles the grace-hash partitioning — and its result is
// streamed in slices, keeping the budget semantics identical.
type joinSource struct {
	n         *HashJoinNode
	child     Stream
	ps        *probeState
	vecProbe  bool
	buildRows int
	reserved  int64
	charged   int64
	rowsIn    int
	mat       []schema.Row
	matOff    int
	matMode   bool
}

func (j *joinSource) open(c *Ctx) error {
	build, buildRows := j.n.cachedTable(c)
	if build == nil {
		r, err := Run(c, j.n.Right)
		if err != nil {
			return err
		}
		buildRows = len(r.Rows)
		work := joinWorkBytes(0, buildRows)
		if err := c.res.Reserve(work); err != nil {
			return j.fallback(c, err)
		}
		j.reserved = work
		workers := c.workersFor(buildRows)
		c.noteWorkers(j.n, workers)
		build, err = buildJoinTable(c, r.Rows, j.n.RightKeys, workers)
		if err != nil {
			return err
		}
		j.n.builds.Add(1)
		j.n.storeTable(c, build, buildRows)
	} else {
		work := joinWorkBytes(0, buildRows)
		if err := c.res.Reserve(work); err != nil {
			return j.fallback(c, err)
		}
		j.reserved = work
	}
	j.buildRows = buildRows
	j.vecProbe = c.useVector(j.n.LeftKeys...) && c.useVector(j.n.Residual)
	j.ps = newProbeState(j.n, build, j.vecProbe)
	return nil
}

// fallback degrades to the fully materialized execution when the
// in-memory build does not fit the budget: with spilling enabled Run
// takes the grace-hash path (or fails with the same sentinel the
// materializing plan would), and the finished result is streamed.
func (j *joinSource) fallback(c *Ctx, rerr error) error {
	if !c.res.CanSpill() {
		return rerr
	}
	r, err := Run(c, j.n)
	if err != nil {
		return err
	}
	j.mat, j.matMode = r.Rows, true
	return nil
}

func (j *joinSource) step(c *Ctx) ([]schema.Row, error) {
	if j.matMode {
		if j.matOff >= len(j.mat) {
			return nil, nil
		}
		lo := j.matOff
		hi := min(lo+MorselSize, len(j.mat))
		j.matOff = hi
		return j.mat[lo:hi:hi], nil
	}
	b, err := j.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		c.noteEval(j.n, c.useVector(j.n.RightKeys...) && j.vecProbe, j.rowsIn+j.buildRows)
		return nil, nil
	}
	j.rowsIn += len(b)
	out := make([]schema.Row, 0, len(b))
	out, err = j.ps.probeRange(c, b, 0, len(b), out)
	if err != nil {
		return nil, err
	}
	bytes := int64(len(out)) * (rowHdrBytes + int64(j.n.schema.Len())*valueBytes)
	c.res.Charge(bytes)
	j.charged += bytes
	return out, nil
}

func (j *joinSource) close(c *Ctx) {
	j.child.Close()
	c.res.Release(j.reserved + j.charged)
	j.reserved, j.charged = 0, 0
	j.mat = nil
}

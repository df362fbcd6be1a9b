// Package exec implements the physical query operators of the embedded
// engine: scans (sequential and index-range), filters, projections, sorts,
// hash and nested-loop joins, hash aggregation (including COUNT(DISTINCT),
// and duplicate elimination: DISTINCT and the set operations group with
// it), UNION ALL, and the SQL/OLAP window operator with ROWS and RANGE
// frames that the paper's cleansing templates compile into.
//
// Scans, Values, UNION ALL, filters, projections, windows, limits and
// both joins' probes are pipelined (see stream.go): one morsel pipeline
// per chain of them, which Open streams and Run drains. The breakers —
// sort and aggregation — materialize their output in Execute, consuming
// their inputs whole through Run. Sort, aggregation and the hash-join
// build run one algorithm over pieces — sort runs, hash partitions — that
// live in memory or, past the memory budget, in spill files (see
// spill.go).
//
// Within a query, operators are morsel-parallel (see parallel.go and
// pump.go): pipelines and the breakers' hot loops fan out over a worker
// pool sized by the Parallelism knob while preserving the exact serial
// output. Plan subtrees run one after another, on the goroutine that
// drives the execution.
//
// Each kind of per-execution state has one owner: the Ctx's node table
// holds every plan node's parent-edge count, once-only Run and
// statistics, and a pipeline holds one scratch per pump worker, which
// all of its stages share.
package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// Result is a materialized relation.
type Result struct {
	Schema *schema.Schema
	Rows   []schema.Row
}

// Ctx carries per-execution state: the governing context.Context (for
// cancellation and deadlines), the per-query parallelism cap, and one
// table of per-node state — each plan node's parent-edge count, its
// once-only Run (so shared subtrees such as CTEs referenced twice and
// IN-subqueries run once per statement) and its runtime statistics. One
// goroutine at a time drives a Ctx — pump and forEach workers only run
// stages and hot loops — but the table is mutex-guarded because workers
// record statistics and a live stream's are read while it runs
// (VisitStats).
type Ctx struct {
	ctx context.Context
	// par caps intra-query parallelism (the worker-pool width per
	// operator); defaults to the Parallelism package knob.
	par int
	// vec enables batch (vectorized) expression evaluation; on unless
	// SetVectorize turns it off.
	vec bool
	// res governs this execution's memory budget, spill files, and fault
	// injection; never nil (defaults to an unbounded handle).
	res *govern.Resources
	// params is the statement's binding, the values of its placeholders;
	// plans are shared between executions and never hold them.
	params []types.Value
	// analyze switches on per-operator statistics. This is the engine's
	// single stats path: EXPLAIN ANALYZE, query traces, the metrics
	// registry, and the slow-query log all read the NodeStats recorded in
	// the node table; nothing else counts operator work.
	analyze bool

	mu    sync.Mutex
	nodes map[Node]*nodeState
	// spare holds states carved for nodes not yet in the table.
	spare []nodeState
}

// nodeState is one plan node's state in one execution.
type nodeState struct {
	// refs counts the node's parent edges from the statement roots this
	// context has executed; a node with more than one is shared.
	refs int
	// runs counts Run calls: the first executes the node into res and
	// err, every later one is a cache hit that shares them.
	runs int
	res  *Result
	err  error
	// stats holds the node's numbers once recorded is set; a node without
	// them never executed.
	recorded bool
	stats    NodeStats
}

// NodeStats is the measured behaviour of one operator in one execution.
type NodeStats struct {
	// Rows is the actual output cardinality.
	Rows int
	// Start is when the operator began; Elapsed is its time including its
	// inputs'. A breaker's is the wall time of its Execute. A pipelined
	// operator's nests inside its consumer's: the open time of it and the
	// levels below it plus the morsel work through it (divided by the
	// pump's workers), so its self time is its own work.
	Start   time.Time
	Elapsed time.Duration
	// Hits counts cache hits beyond the first execution (shared CTEs).
	Hits int
	// Workers is the operator's parallel fan-out; 0 or 1 means it ran
	// serially (small input, or Parallelism=1).
	Workers int
	// EvalMode is "vector" when the operator evaluated its expressions
	// through the batch kernels, "row" for the row-at-a-time path, and
	// empty for operators that evaluate no expressions.
	EvalMode string
	// Batches counts vector-kernel chunks the operator processed
	// (vector mode only).
	Batches int
	// SpillRuns counts the sort runs / hash partitions this operator
	// wrote to temp files (0 = stayed in memory); SpillBytes is the data
	// volume that went through disk.
	SpillRuns  int
	SpillBytes int64
	// Segments is the number of storage segments a scan considered;
	// Pruned is how many of those its zone maps eliminated without
	// reading. Both zero for non-scan operators and unfused scans.
	Segments int
	Pruned   int
	// Probe is the number of keys a plain scan looked up in its table's
	// index instead of reading every row — the IN keys of the semi-join
	// filter or the build keys of the inner hash join above it (see
	// probe.go). 0 means it read the whole table — or, with 0 rows, that
	// it probed an empty key set.
	Probe int
}

// NewCtx returns a fresh execution context that is never canceled.
func NewCtx() *Ctx { return NewCtxWith(context.Background()) }

// NewCtxWith returns a fresh execution context governed by ctx: operators
// poll it cooperatively (every cancelCheckInterval rows in their hot
// loops) and abort with ctx.Err() once it is done.
func NewCtxWith(ctx context.Context) *Ctx {
	return &Ctx{ctx: ctx, par: defaultParallelism(), vec: true, res: govern.Unbounded(), nodes: map[Node]*nodeState{}}
}

// NewAnalyzeCtx returns a context that records per-operator statistics.
func NewAnalyzeCtx() *Ctx { return NewCtx().EnableStats() }

// EnableStats switches on per-operator statistics collection for this
// execution. The serving layer enables it for every telemetry-observed
// query (not just EXPLAIN ANALYZE): the same NodeStats feed the analyze
// printout, the trace span tree, and the per-operator metric counters.
// It returns c for chaining and must be called before Run.
func (c *Ctx) EnableStats() *Ctx {
	c.analyze = true
	return c
}

// VisitStats calls f with each plan node's statistics recorded so far,
// one call per distinct plan node (shared subtrees are visited once,
// however many tree positions reference them — summing over the visits
// never double counts an operator's rows). f runs under the context's
// lock: it must not call back into c, and must copy what it keeps, since
// a running stream's statistics move once the lock is released.
func (c *Ctx) VisitStats(f func(Node, *NodeStats)) {
	if !c.analyze {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for node, st := range c.nodes {
		if st.recorded {
			f(node, &st.stats)
		}
	}
}

// StatsSnapshot returns copies of the statistics VisitStats visits, by
// plan node, so a snapshot of a running stream stays consistent while it
// advances.
func (c *Ctx) StatsSnapshot() map[Node]*NodeStats {
	if !c.analyze {
		return nil
	}
	var nodes []Node
	var copies []NodeStats
	c.VisitStats(func(n Node, st *NodeStats) {
		nodes, copies = append(nodes, n), append(copies, *st)
	})
	out := make(map[Node]*NodeStats, len(nodes))
	for i, n := range nodes {
		out[n] = &copies[i]
	}
	return out
}

// SetParallelism caps intra-query parallelism for executions under this
// context; n < 1 resets to the package-level Parallelism default. It
// returns c for chaining and must be called before Run.
func (c *Ctx) SetParallelism(n int) *Ctx {
	if n < 1 {
		n = defaultParallelism()
	}
	c.par = n
	return c
}

// SetVectorize switches batch expression evaluation on or off for
// executions under this context. Results are bit-identical either way.
// It returns c for chaining and must be called before Run.
func (c *Ctx) SetVectorize(on bool) *Ctx {
	c.vec = on
	return c
}

// SetResources attaches the query's governance handle — memory budget,
// spill management, fault injection. nil keeps the default unbounded
// handle. It returns c for chaining and must be called before Run.
func (c *Ctx) SetResources(r *govern.Resources) *Ctx {
	if r != nil {
		c.res = r
	}
	return c
}

// SetParams binds the statement's placeholders for executions under this
// context: $N takes vals[N-1]. It returns c for chaining and must be
// called before Run.
func (c *Ctx) SetParams(vals []types.Value) *Ctx {
	c.params = vals
	return c
}

// Params returns the execution's binding.
func (c *Ctx) Params() []types.Value { return c.params }

// Resources returns the execution's governance handle (never nil).
func (c *Ctx) Resources() *govern.Resources { return c.res }

func defaultParallelism() int {
	if Parallelism < 1 {
		return 1
	}
	return Parallelism
}

// Stats returns the recorded statistics for a node, or nil.
func (c *Ctx) Stats(n Node) *NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.nodes[n]; st != nil && st.recorded {
		return &st.stats
	}
	return nil
}

// stateLocked returns (creating if needed) the node's entry in the
// table. Entries are carved from blocks that double with the table, so a
// plan of n operators costs a few allocations, not n. The caller holds
// c.mu.
func (c *Ctx) stateLocked(n Node) *nodeState {
	st := c.nodes[n]
	if st == nil {
		if len(c.spare) == 0 {
			c.spare = make([]nodeState, max(8, len(c.nodes)))
		}
		st, c.spare = &c.spare[0], c.spare[1:]
		c.nodes[n] = st
	}
	return st
}

// statLocked returns the node's stats, marking them recorded. The caller
// must hold c.mu and have checked c.analyze. Notes recorded
// mid-execution land in the same entry Run or the pipeline finalizes
// with rows and timing, so each operator's numbers exist exactly once.
func (c *Ctx) statLocked(n Node) *NodeStats {
	st := c.stateLocked(n)
	st.recorded = true
	return &st.stats
}

// note records into n's stats, under the lock, when stats are
// collected.
func (c *Ctx) note(n Node, record func(*NodeStats)) {
	if c.analyze {
		c.mu.Lock()
		record(c.statLocked(n))
		c.mu.Unlock()
	}
}

// noteWorkers records an operator's actual fan-out; serial execution is
// not recorded.
func (c *Ctx) noteWorkers(n Node, workers int) {
	if workers > 1 {
		c.note(n, func(st *NodeStats) { st.Workers = max(st.Workers, workers) })
	}
}

// noteSpill records an operator's spill activity: always on the query's
// cumulative counters, and per-operator when stats are being collected.
func (c *Ctx) noteSpill(n Node, runs int, bytes int64) {
	c.res.NoteSpill(runs, bytes)
	c.note(n, func(st *NodeStats) { st.SpillRuns, st.SpillBytes = st.SpillRuns+runs, st.SpillBytes+bytes })
}

// noteEval records whether an operator evaluated its expressions through
// the vector kernels and over how many chunks. An operator calls it at
// most once per execution; the recorded mode replaces any earlier one.
func (c *Ctx) noteEval(n Node, vectorized bool, rows int) {
	c.note(n, func(st *NodeStats) {
		st.EvalMode, st.Batches = evalMode(vectorized), 0
		if vectorized {
			st.Batches = batchCount(rows)
		}
	})
}

// cancelCheckInterval is how many rows an operator hot loop processes
// between context polls. A power of two so the tick test compiles to a
// mask; small enough that a canceled query stops within microseconds of
// work, large enough that the poll never shows up in profiles.
const cancelCheckInterval = 4096

// Canceled returns the governing context's error, if it is done.
func (c *Ctx) Canceled() error { return c.ctx.Err() }

// slowOp applies the SlowOp fault injection — a per-operator delay that
// still honors cancellation.
func (c *Ctx) slowOp() error {
	if d := c.res.SlowOp(); d > 0 {
		select {
		case <-time.After(d):
		case <-c.ctx.Done():
			return c.ctx.Err()
		}
	}
	return nil
}

// countRefsLocked counts parent edges below a statement root the first
// time the context meets it, so a node reached along more than one edge
// (a CTE body referenced twice, a repeated subquery) is known to be
// shared: it runs once, through Run, instead of inline in every pipeline
// that reads it. The walk creates the table entries of the nodes it
// meets first. The caller holds c.mu.
func (c *Ctx) countRefsLocked(root Node) {
	if st := c.nodes[root]; st != nil && st.refs > 0 {
		return
	}
	c.walkLocked(root)
}

// walkLocked counts one parent edge into n, and the edges below it the
// first time.
func (c *Ctx) walkLocked(n Node) {
	st := c.stateLocked(n)
	if st.refs++; st.refs > 1 {
		return
	}
	for _, ch := range n.Children() {
		c.walkLocked(ch)
	}
}

// shared reports whether n has more than one parent edge.
func (c *Ctx) shared(n Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.nodes[n]
	return st != nil && st.refs > 1
}

// Tick is the cooperative cancellation check for operator hot loops: it
// polls the governing context every cancelCheckInterval iterations (i is
// the loop counter) and reports its error once done.
func (c *Ctx) Tick(i int) error {
	if i&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return c.ctx.Err()
}

// OrderCol describes one key of a physical ordering property: the ordinal
// of a column in the node's output schema plus direction.
type OrderCol struct {
	Col  int
	Desc bool
}

// Node is a physical operator.
type Node interface {
	// Schema is the output shape.
	Schema() *schema.Schema
	// Children returns input operators, for EXPLAIN.
	Children() []Node
	// Label names the operator for EXPLAIN output.
	Label() string

	// EstRows and EstCost are the planner's estimates (cumulative cost).
	EstRows() float64
	EstCost() float64
	// Ordering is the output ordering the operator guarantees, outermost
	// key first; nil means unordered.
	Ordering() []OrderCol
}

// breaker is an operator that consumes its inputs whole before producing
// any output: sort and aggregation. Execute materializes the output and
// must reach its inputs through Run, so shared subtrees are cached.
type breaker interface {
	Execute(ctx *Ctx) (*Result, error)
}

// Run executes a node once per context: a pipelined node drains its
// pipeline, a breaker runs its Execute. Nodes shared between plan
// subtrees (CTEs) therefore execute exactly once per statement; every
// later Run reuses the first one's result.
func Run(ctx *Ctx, n Node) (*Result, error) {
	ctx.mu.Lock()
	ctx.countRefsLocked(n)
	st := ctx.stateLocked(n)
	hit := st.runs > 0
	st.runs++
	ctx.mu.Unlock()
	if !hit {
		st.res, st.err = execute(ctx, n)
	}
	if st.err != nil {
		return nil, st.err
	}
	if hit && ctx.analyze {
		ctx.mu.Lock()
		if st.recorded {
			st.stats.Hits++
		}
		ctx.mu.Unlock()
	}
	return st.res, nil
}

// execute is Run's one execution of n. A panic escaping any operator
// (serial paths included; the worker-pool goroutines carry their own
// recover) becomes a per-query ErrInternal instead of crashing the
// process.
func execute(ctx *Ctx, n Node) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, govern.Internalize(rec)
		}
	}()
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if err := ctx.slowOp(); err != nil {
		return nil, err
	}
	b, ok := n.(breaker)
	if !ok {
		// The pipeline records every level's stats itself.
		return drain(ctx, n)
	}
	var start time.Time
	if ctx.analyze {
		start = time.Now()
	}
	if res, err = b.Execute(ctx); err == nil && ctx.analyze {
		elapsed, rows := time.Since(start), len(res.Rows)
		ctx.note(n, func(ns *NodeStats) { ns.Rows, ns.Start, ns.Elapsed = rows, start, elapsed })
	}
	return res, err
}

// base carries the estimate/ordering fields every operator shares. The
// planner fills these in when it builds the tree.
type base struct {
	schema *schema.Schema
	// children is built once, by the constructor, since every execution
	// walks it to count parent edges.
	children []Node
	estRows  float64
	estCost  float64
	estMem   float64
	ordering []OrderCol
}

func (b *base) Schema() *schema.Schema { return b.schema }
func (b *base) Children() []Node       { return b.children }
func (b *base) EstRows() float64       { return b.estRows }
func (b *base) EstCost() float64       { return b.estCost }
func (b *base) Ordering() []OrderCol   { return b.ordering }

// SetEstimates records planner estimates on any operator embedding base.
type estimateSetter interface {
	setEstimates(rows, cost float64)
	setOrdering(o []OrderCol)
	setMemEstimate(bytes float64)
	memEstimate() float64
}

func (b *base) setEstimates(rows, cost float64) { b.estRows, b.estCost = rows, cost }
func (b *base) setOrdering(o []OrderCol)        { b.ordering = o }
func (b *base) setMemEstimate(bytes float64)    { b.estMem = bytes }
func (b *base) memEstimate() float64            { return b.estMem }

// SetEstimates assigns cardinality and cost estimates to a node built by
// the planner.
func SetEstimates(n Node, rows, cost float64) {
	if s, ok := n.(estimateSetter); ok {
		s.setEstimates(rows, cost)
	}
}

// SetOrdering assigns the guaranteed output ordering of a node.
func SetOrdering(n Node, o []OrderCol) {
	if s, ok := n.(estimateSetter); ok {
		s.setOrdering(o)
	}
}

// SetMemEstimate records the planner's estimate of an operator's peak
// materialized state in bytes (hash tables, sort keys, output buffers).
// Zero means "not a materializing operator" and is not printed by EXPLAIN.
func SetMemEstimate(n Node, bytes float64) {
	if s, ok := n.(estimateSetter); ok {
		s.setMemEstimate(bytes)
	}
}

// EstMem returns the planner's memory estimate for a node (0 if none).
func EstMem(n Node) float64 {
	if s, ok := n.(estimateSetter); ok {
		return s.memEstimate()
	}
	return 0
}

// ---- Scan ----

// ScanNode reads a base table, optionally through a sorted index range,
// and optionally with a filter predicate fused into the scan. A fused
// predicate evaluates directly over the columnar segment vectors in
// vectorized mode — no row materialization for non-matching rows — with
// per-segment zone maps (ScanBinding.Zone) skipping segments that cannot
// contain a match.
type ScanNode struct {
	base
	Table *storage.Table
	// IndexOrd selects an index scan on that column ordinal when >= 0.
	IndexOrd int
	// Bind resolves the scan for one execution under the statement's
	// binding (Ctx.Params): an index scan's range, or a sequential scan's
	// fused predicate and zone preds. nil for a plain scan.
	Bind func(c *Ctx) (ScanBinding, error)
	// Pred labels the fused predicate.
	Pred PredLabel
}

// ScanBinding is what one execution scans: an index scan's Bounds, or
// the predicate Pred fused into a sequential scan (only rows satisfying
// it are emitted) with the range summaries Zone its conjuncts imply.
// Segments whose zone maps cannot satisfy all of Zone are skipped — in
// vectorized mode only; the row path (WithRowEval) reads every segment
// and is the pruning correctness baseline.
type ScanBinding struct {
	Bounds storage.Bounds
	Zone   []storage.ZonePred
	Pred   *eval.Compiled
}

// Plain reports whether the scan reads its whole table with no index
// range or predicate, under every binding.
func (s *ScanNode) Plain() bool { return s.IndexOrd < 0 && s.Bind == nil }

// NewScanNode builds a scan; its schema is its table's.
func NewScanNode(t *storage.Table) *ScanNode {
	s := &ScanNode{Table: t, IndexOrd: -1}
	s.schema = t.Schema
	return s
}

// Label implements Node.
func (s *ScanNode) Label() string { return s.labelUnder(nil) }

func (s *ScanNode) labelUnder(params []types.Value) string {
	if s.IndexOrd >= 0 {
		return fmt.Sprintf("IndexScan(%s.%s)", s.Table.Name, s.Table.Schema.Columns[s.IndexOrd].Name)
	}
	if desc := s.Pred.under(params); desc != "" {
		return fmt.Sprintf("Scan(%s | %s)", s.Table.Name, desc)
	}
	return fmt.Sprintf("Scan(%s)", s.Table.Name)
}

// open binds the scan as its pipeline's source. An index scan, and a
// plain scan whose probe (the keys the operator above bound, see
// probe.go) applies, gather the rows of a MorselSize range of matched ids
// per morsel; a fused scan evaluates its predicate per segment-local
// morsel; any other plain scan slices the table's (memoized, shared) rows
// — downstream operators never mutate input rows. All but the last
// reserve their output's row references up front.
func (s *ScanNode) open(c *Ctx, probe *scanProbe) (*level, source, error) {
	lv := &level{node: s, parallel: true}
	var sb ScanBinding
	if s.Bind != nil {
		var err error
		if sb, err = s.Bind(c); err != nil {
			return lv, source{}, err
		}
	}
	switch {
	case s.IndexOrd >= 0:
		parts := s.Table.Lookup(s.IndexOrd, []storage.Bounds{sb.Bounds})
		if parts == nil {
			return lv, source{}, fmt.Errorf("exec: plan expects index on %s column %d but none exists", s.Table.Name, s.IndexOrd)
		}
		src, err := s.idSource(c, parts[0])
		return lv, src, err
	case sb.Pred != nil:
		vec := c.useVector(sb.Pred)
		morsels, total := s.planFilteredMorsels(c, sb.Zone, vec)
		bytes := int64(total) * rowHdrBytes
		if err := c.reserveOrCharge(bytes); err != nil {
			return lv, source{}, err
		}
		lv.eval, lv.batchRows = evalMode(vec), total
		return lv, source{nm: len(morsels), rows: total, charged: bytes,
			morsel: func(m int) ([]schema.Row, error) { return s.filterMorsel(c, sb.Pred, morsels[m], vec) }}, nil
	}
	if ids, keys, ok := probe.ids(s); ok {
		c.note(s, func(st *NodeStats) { st.Probe = keys })
		src, err := s.idSource(c, ids)
		return lv, src, err
	}
	lv.parallel = false
	return lv, sliceSource(s.Table.AllRows()), nil
}

// idSource gathers the rows of ids, in their order, MorselSize per
// morsel, reserving their row references up front.
func (s *ScanNode) idSource(c *Ctx, ids []int32) (source, error) {
	bytes := int64(len(ids)) * rowHdrBytes
	if err := c.reserveOrCharge(bytes); err != nil {
		return source{}, err
	}
	return source{nm: (len(ids) + MorselSize - 1) / MorselSize, rows: len(ids), charged: bytes,
		morsel: func(m int) ([]schema.Row, error) {
			lo := m * MorselSize
			out := make([]schema.Row, min(MorselSize, len(ids)-lo))
			for i := range out {
				if err := c.Tick(i); err != nil {
					return nil, err
				}
				out[i] = s.Table.RowAt(int(ids[lo+i]))
			}
			return out, nil
		}}, nil
}

// scanMorsel is one segment-local unit of fused-scan work; it never
// straddles a segment boundary, so in vectorized mode each morsel
// evaluates the predicate over one window of its segment's column
// vectors.
type scanMorsel struct {
	seg    *storage.Segment
	lo, hi int
}

// planFilteredMorsels applies zone-map pruning (vectorized mode only;
// the row path reads every segment and is the pruning correctness
// baseline) and splits the surviving segments into segment-local
// morsels, recording the pruning outcome. It returns the morsels and
// their total row count.
func (s *ScanNode) planFilteredMorsels(ctx *Ctx, zone []storage.ZonePred, vec bool) ([]scanMorsel, int) {
	segs := s.Table.Segments()
	considered := len(segs)
	pruned := 0
	if vec && len(zone) > 0 {
		kept := make([]*storage.Segment, 0, len(segs))
		for _, seg := range segs {
			if seg.CanMatchAll(zone) {
				kept = append(kept, seg)
			} else {
				pruned++
			}
		}
		segs = kept
	}
	ctx.note(s, func(st *NodeStats) { st.Segments, st.Pruned = considered, pruned })
	total := 0
	for _, seg := range segs {
		total += seg.Len()
	}
	morsels := make([]scanMorsel, 0, total/MorselSize+len(segs))
	for _, seg := range segs {
		for lo := 0; lo < seg.Len(); lo += MorselSize {
			hi := min(lo+MorselSize, seg.Len())
			morsels = append(morsels, scanMorsel{seg: seg, lo: lo, hi: hi})
		}
	}
	return morsels, total
}

// filterMorsel evaluates the fused predicate over one morsel, returning
// the matching rows (references into the segment's shared row cache) in
// position order. Any kernel failure, and the entire row-eval mode,
// fall back to materialized rows with the same batch/row machinery
// FilterNode uses, so results and errors are byte-identical across
// modes and parallelism levels.
func (s *ScanNode) filterMorsel(ctx *Ctx, pred *eval.Compiled, mo scanMorsel, vec bool) ([]schema.Row, error) {
	var out []schema.Row
	var sel []int
	if vec && mo.seg.Sealed() {
		var ok bool
		sel, ok = eval.TryPredicateCols(pred, mo.seg.Cols(), mo.lo, mo.hi-mo.lo, sel[:0])
		if ok {
			if len(sel) > 0 {
				rows := mo.seg.Rows()
				out = make([]schema.Row, 0, len(sel))
				for _, i := range sel {
					out = append(out, rows[mo.lo+i])
				}
			}
			return out, nil
		}
	}
	rows := mo.seg.Rows()
	if vec {
		// Row-form tail, or a kernel error: EvalPredicateBatch's own
		// row-path fallback restores exact serial error semantics.
		sel, err := eval.EvalPredicateBatch(pred, rows[mo.lo:mo.hi], nil, sel[:0])
		if err != nil {
			return nil, err
		}
		for _, i := range sel {
			out = append(out, rows[mo.lo+i])
		}
		return out, nil
	}
	for i := mo.lo; i < mo.hi; i++ {
		if err := ctx.Tick(i - mo.lo); err != nil {
			return nil, err
		}
		keep, err := eval.EvalPredicate(pred, rows[i])
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, rows[i])
		}
	}
	return out, nil
}

// ValuesNode serves literal rows; used for planned constants and tests.
type ValuesNode struct {
	base
	RowsData []schema.Row
}

// NewValuesNode wraps literal rows in a node.
func NewValuesNode(s *schema.Schema, rows []schema.Row) *ValuesNode {
	n := &ValuesNode{RowsData: rows}
	n.schema = s
	return n
}

// Label implements Node.
func (n *ValuesNode) Label() string { return fmt.Sprintf("Values(%d)", len(n.RowsData)) }

package exec

import (
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/schema"
)

// HashJoinNode joins Left (probe, streamed — its ordering survives) with
// Right (build) on equality keys, with an optional residual predicate over
// the concatenated row.
//
// The build runs when the join's pipeline opens: build keys are evaluated
// morsel-parallel, then the hash table is partitioned by key hash into
// per-worker sub-tables each built by one goroutine (rows land in input
// order, as in the serial build). The probe is a stage of the pipeline
// over Left, so probe morsels run on the pump's workers and are delivered
// in morsel order: the output is bit-identical to serial execution.
type HashJoinNode struct {
	base
	Left, Right Node
	LeftKeys    []*eval.Compiled
	RightKeys   []*eval.Compiled
	JoinType    JoinKind
	Residual    *eval.Compiled // over concat(left, right); may be nil
	Desc        string

	// ProbeCol, when >= 0, marks an inner join whose Left is a plain scan
	// (see ProbeScan) of a table indexed on column ProbeCol, which is
	// LeftKeys[ProbeKey]: the distinct values of RightKeys[ProbeKey] in a
	// completed in-memory build become index probes that narrow the scan
	// (probe.go).
	ProbeCol, ProbeKey int
}

// JoinKind enumerates join semantics.
type JoinKind uint8

// Join kinds.
const (
	JoinKindInner JoinKind = iota
	JoinKindLeft
)

func (k JoinKind) String() string {
	if k == JoinKindLeft {
		return "Left"
	}
	return "Inner"
}

// NewHashJoinNode builds a hash join; the output schema is the
// concatenation left ++ right.
func NewHashJoinNode(l, r Node, lk, rk []*eval.Compiled, kind JoinKind, residual *eval.Compiled, desc string) *HashJoinNode {
	n := &HashJoinNode{Left: l, Right: r, LeftKeys: lk, RightKeys: rk, JoinType: kind, Residual: residual, Desc: desc, ProbeCol: -1}
	n.children = []Node{l, r}
	n.schema = schema.Concat(l.Schema(), r.Schema())
	return n
}

// Label implements Node.
func (n *HashJoinNode) Label() string {
	return fmt.Sprintf("HashJoin[%s](%s)", n.JoinType, n.Desc)
}

// joinTable is the build side of a hash join, partitioned by key hash so
// that independent workers could build (and later probe) disjoint
// sub-tables without synchronization.
type joinTable struct {
	parts []*keyTable[[]schema.Row]
}

func (jt *joinTable) lookupRows(h uint64, key []byte) []schema.Row {
	p := jt.parts[h%uint64(len(jt.parts))]
	if rows := p.lookup(h, key); rows != nil {
		return *rows
	}
	return nil
}

// buildJoinTable routes the build rows into one hash partition per
// worker and builds each partition's sub-table on its own worker.
func buildJoinTable(ctx *Ctx, rows []schema.Row, keys []*eval.Compiled, workers int) (*joinTable, error) {
	pieces, err := ctx.route(rows, keys, nil, true, workers, workers, "")
	if err != nil {
		return nil, err
	}
	jt := &joinTable{parts: make([]*keyTable[[]schema.Row], workers)}
	return jt, ctx.forEach(workers, workers, func(_, p int) error {
		var err error
		jt.parts[p], err = buildPart(ctx, rows, &pieces[p])
		return err
	})
}

// buildPart builds one loaded piece's sub-table: each key's rows, in the
// piece's ascending order — the serial build's row lists.
func buildPart(ctx *Ctx, rows []schema.Row, p *piece) (*keyTable[[]schema.Row], error) {
	t := newKeyTable[[]schema.Row](len(p.idx) + 1)
	for k, i := range p.idx {
		if err := ctx.Tick(k); err != nil {
			return nil, err
		}
		j := p.slot(k)
		kb, h := p.h.keys[j], p.h.hashes[j]
		if rp := t.lookup(h, kb); rp != nil {
			*rp = append(*rp, rows[i])
		} else {
			// Arena-backed keys are stable; no copy needed.
			t.insert(h, kb, []schema.Row{rows[i]})
		}
	}
	return t, nil
}

// partitionedJoin is the join when the budget refuses its build table:
// both inputs are routed into spillPieces hash partitions on disk, and per
// partition, one worker each, the build rows build a table that the probe
// rows probe with the partition's own scratch. Every probe row belongs to
// one partition and probes in its input order, so placing each row's
// output at its index restores the serial probe order.
func (n *HashJoinNode) partitionedJoin(c *Ctx, l, r *Result) (*Result, error) {
	nparts := spillPieces(joinWorkBytes(len(l.Rows), len(r.Rows)), c.res.Limit())
	buf := int64(nparts) * spillFileOverhead
	c.res.Charge(buf)
	defer c.res.Release(buf)
	workers := c.workersFor(len(l.Rows) + len(r.Rows))
	c.noteWorkers(n, workers)
	build, err := c.route(r.Rows, n.RightKeys, nil, true, nparts, workers, "join-build")
	if err != nil {
		return nil, err
	}
	defer discardPieces(build)
	// Probe rows are all routed — NULL keys too, so that left-join padding
	// happens in the partition that owns the row.
	probe, err := c.route(l.Rows, n.LeftKeys, nil, false, nparts, workers, "join-probe")
	if err != nil {
		return nil, err
	}
	defer discardPieces(probe)
	files, bytes := spilled(build, probe)
	vec := c.useVector(n.LeftKeys...) && c.useVector(n.Residual)
	spans := make([][]schema.Row, len(l.Rows))
	err = c.forEach(nparts, workers, func(_, p int) error {
		b, pr := &build[p], &probe[p]
		if err := b.load(c, r.Rows, n.RightKeys, nil); err != nil {
			return err
		}
		if err := pr.load(c, l.Rows, nil, nil); err != nil || len(pr.idx) == 0 {
			return err
		}
		partBytes := int64(len(b.idx))*(8+keyRefBytes+rowHdrBytes) + int64(len(pr.idx))*8
		c.res.Charge(partBytes)
		defer c.res.Release(partBytes)
		t, err := buildPart(c, r.Rows, b)
		if err != nil {
			return err
		}
		s := &scratch{ends: make([]int, 0, len(pr.idx))}
		out, err := n.probe(c, &joinTable{parts: []*keyTable[[]schema.Row]{t}}, s, vec, gather(l.Rows, pr.idx), nil)
		if err != nil {
			return err
		}
		lo := 0
		for k, i := range pr.idx {
			spans[i], lo = out[lo:s.ends[k]], s.ends[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.noteSpill(n, files, bytes)
	out := slices.Concat(spans...)
	c.res.Charge(int64(len(out)) * (rowHdrBytes + int64(n.schema.Len())*valueBytes))
	return &Result{Schema: n.schema, Rows: out}, nil
}

// open binds the join as a probe stage: the build table comes from
// Run(Right), and its working set stays reserved until the pipeline
// closes; its distinct ProbeKey values become the probe keys of a plain
// scan below; each probe morsel charges its joined output rows. A refused
// reservation degrades the join to a breaker when spilling is enabled:
// partitionedJoin runs Left through Run and its result (non-nil) becomes
// the pipeline's source.
func (n *HashJoinNode) open(c *Ctx) (*level, *Result, error) {
	lv := &level{node: n}
	r, err := Run(c, n.Right)
	if err != nil {
		return lv, nil, err
	}
	work := joinWorkBytes(0, len(r.Rows))
	if err := c.res.Reserve(work); err != nil {
		if !c.res.CanSpill() {
			return lv, nil, err
		}
		l, err := Run(c, n.Left)
		if err != nil {
			return lv, nil, err
		}
		res, err := n.partitionedJoin(c, l, r)
		return lv, res, err
	}
	lv.reserved = work
	workers := c.workersFor(len(r.Rows))
	c.noteWorkers(n, workers)
	build, err := buildJoinTable(c, r.Rows, n.RightKeys, workers)
	if err != nil {
		return lv, nil, err
	}
	if lv.probe = c.probeFor(n.Left, n.ProbeCol); lv.probe != nil {
		lv.probe.keys = build.keys(n.RightKeys[n.ProbeKey], lv.probe.scan.Table.RowCount()/probeShare)
	}
	vecProbe := c.useVector(n.LeftKeys...) && c.useVector(n.Residual)
	lv.outBytes = rowHdrBytes + int64(n.schema.Len())*valueBytes
	lv.eval, lv.batchRows, lv.parallel, lv.builds = evalMode(c.useVector(n.RightKeys...) && vecProbe), len(r.Rows), true, true
	lv.run = func(s *scratch, in []schema.Row) ([]schema.Row, error) {
		return n.probe(c, build, s, vecProbe, in, s.out.rows(0, len(in)))
	}
	return lv, nil, nil
}

// probe probes rows against the build table with a worker's scratch —
// its key encoder and, in vector mode, its eval columns and candidate
// buffers — appending the joined output, built in its row block s.out
// (nil: the heap), to out in the serial probe order and returning it.
func (n *HashJoinNode) probe(ctx *Ctx, build *joinTable, s *scratch, vec bool, rows, out []schema.Row) ([]schema.Row, error) {
	rightWidth := n.Right.Schema().Len()
	blk := s.out
	probeSerial := func(b, e int) error {
		for i := b; i < e; i++ {
			if err := ctx.Tick(i - b); err != nil {
				return err
			}
			lrow := rows[i]
			key, null, err := s.enc.funcs(n.LeftKeys, lrow)
			if err != nil {
				return err
			}
			matched := false
			if !null {
				for _, rrow := range build.lookupRows(hashKey(key), key) {
					joined := blk.concat(lrow, rrow, rightWidth)
					if n.Residual != nil {
						ok, err := eval.EvalPredicate(n.Residual, joined)
						if err != nil {
							return err
						}
						if !ok {
							blk.untake(len(joined))
							continue
						}
					}
					matched = true
					out = append(out, joined)
				}
			}
			if !matched && n.JoinType == JoinKindLeft {
				out = append(out, blk.concat(lrow, nil, rightWidth))
			}
			s.mark(out)
		}
		return nil
	}
	if !vec {
		err := probeSerial(0, len(rows))
		return out, err
	}
	// Vector probe: batch-evaluate the probe keys, gather every
	// candidate joined row of the chunk with per-left-row ranges, run
	// the residual once over all candidates, then emit survivors (and
	// left-join padding) in the serial order.
	cols := s.evalCols(len(n.LeftKeys), len(rows))
	err := ctx.forBatches(0, len(rows), func(b, e int) error {
		chunk := rows[b:e]
		if !tryBatchAll(n.LeftKeys, chunk, cols) {
			return probeSerial(b, e)
		}
		s.cand = s.cand[:0]
		s.candStart = s.candStart[:0]
		for i := range chunk {
			s.candStart = append(s.candStart, len(s.cand))
			key, null := s.enc.cols(cols, i)
			if null {
				continue
			}
			for _, rrow := range build.lookupRows(hashKey(key), key) {
				s.cand = append(s.cand, blk.concat(chunk[i], rrow, rightWidth))
			}
		}
		s.candStart = append(s.candStart, len(s.cand))
		if n.Residual != nil {
			var perr error
			s.sel, perr = eval.EvalPredicateBatch(n.Residual, s.cand, nil, s.sel[:0])
			if perr != nil {
				return perr
			}
		}
		si := 0
		for i := range chunk {
			s0, s1 := s.candStart[i], s.candStart[i+1]
			matched := s1 > s0
			if n.Residual == nil {
				out = append(out, s.cand[s0:s1]...)
			} else {
				matched = false
				for si < len(s.sel) && s.sel[si] < s1 {
					out = append(out, s.cand[s.sel[si]])
					matched = true
					si++
				}
			}
			if !matched && n.JoinType == JoinKindLeft {
				out = append(out, blk.concat(chunk[i], nil, rightWidth))
			}
			s.mark(out)
		}
		return nil
	})
	return out, err
}

// mark records where a probe row's output ends, when asked to.
func (s *scratch) mark(out []schema.Row) {
	if s.ends != nil {
		s.ends = append(s.ends, len(out))
	}
}

// NestedLoopJoinNode joins two inputs with an arbitrary predicate; used
// when no equality keys exist. Inner joins only. Like the hash-join
// probe, it is a stage of the pipeline over Left: each left row meets
// every right row, in order, so the output is left-major at any
// parallelism.
type NestedLoopJoinNode struct {
	base
	Left, Right Node
	Pred        *eval.Compiled // may be nil (cross join)
	Desc        string
}

// NewNestedLoopJoinNode builds a nested-loop inner join.
func NewNestedLoopJoinNode(l, r Node, pred *eval.Compiled, desc string) *NestedLoopJoinNode {
	n := &NestedLoopJoinNode{Left: l, Right: r, Pred: pred, Desc: desc}
	n.children = []Node{l, r}
	n.schema = schema.Concat(l.Schema(), r.Schema())
	return n
}

// Label implements Node.
func (n *NestedLoopJoinNode) Label() string { return "NLJoin(" + n.Desc + ")" }

// open binds the join as a stage: the right rows come from Run(Right);
// each morsel reserves a row reference per pair it may emit, so a cross
// product the budget cannot hold is refused, and charges its joined rows
// as the hash-join probe does. Joined rows are built in the worker's row
// block s.out (nil: the heap), which takes back a pair the predicate
// rejects.
func (n *NestedLoopJoinNode) open(c *Ctx) (*level, error) {
	r, err := Run(c, n.Right)
	if err != nil {
		return nil, err
	}
	right := r.Rows
	width := n.Right.Schema().Len()
	return &level{node: n, parallel: true, builds: true,
		inBytes:  int64(len(right)) * rowHdrBytes,
		outBytes: rowHdrBytes + int64(n.schema.Len())*valueBytes,
		run: func(s *scratch, in []schema.Row) ([]schema.Row, error) {
			out := s.out.rows(0, 0)
			pairs := 0
			for _, lrow := range in {
				for _, rrow := range right {
					if err := c.Tick(pairs); err != nil {
						return nil, err
					}
					pairs++
					joined := s.out.concat(lrow, rrow, width)
					if n.Pred != nil {
						ok, err := eval.EvalPredicate(n.Pred, joined)
						if err != nil {
							return nil, err
						}
						if !ok {
							s.out.untake(len(joined))
							continue
						}
					}
					out = append(out, joined)
				}
			}
			return out, nil
		}}, nil
}

package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/eval"
	"repro/internal/govern"
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

func newAccumulator(spec *AggSpec) *accumulator {
	a := &accumulator{fn: spec.Func, distinct: spec.Distinct, extreme: types.Null}
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
		k := v.GroupKey()
		if _, dup := a.seen[k]; dup {
			return nil
		}
		a.seen[k] = struct{}{}
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
// one output row (global aggregation over a possibly empty input).
type GroupNode struct {
	base
	Input Node
	Keys  []*eval.Compiled
	Aggs  []AggSpec
}

// NewGroupNode builds hash aggregation; out must list key columns first,
// then one column per aggregate.
func NewGroupNode(child Node, out *schema.Schema, keys []*eval.Compiled, aggs []AggSpec) *GroupNode {
	n := &GroupNode{Input: child, Keys: keys, Aggs: aggs}
	n.schema = out
	return n
}

// Label implements Node.
func (n *GroupNode) Label() string {
	return fmt.Sprintf("HashGroup(%d keys, %d aggs)", len(n.Keys), len(n.Aggs))
}

// Children implements Node.
func (n *GroupNode) Children() []Node { return []Node{n.Input} }

type groupState struct {
	keyVals schema.Row
	accs    []*accumulator
	first   int // global index of the group's first input row
}

// Execute implements Node. Aggregation runs in two phases: first every
// row's group key is encoded (and every aggregate argument evaluated)
// morsel-parallel, then the groups are partitioned by key hash and one
// worker per partition folds its groups' rows in global input order.
// Each group is wholly owned by a single worker, so floating-point
// accumulation keeps the serial association order and the output is
// bit-identical at any parallelism — unlike merge-combined partial
// aggregates, which would reassociate sums.
func (n *GroupNode) Execute(ctx *Ctx) (*Result, error) {
	in, err := Run(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	nrows := len(in.Rows)
	// Reserve the hash-aggregation working set (encoded keys, hashes,
	// evaluated aggregate arguments). A refused reservation degrades to
	// the grace-hash path when spilling is enabled.
	work := groupWorkBytes(nrows, len(n.Aggs))
	if err := ctx.res.Reserve(work); err != nil {
		if !ctx.res.CanSpill() {
			return nil, err
		}
		return n.graceExecute(ctx, in)
	}
	defer ctx.res.Release(work)
	workers := ctx.workersFor(nrows)
	ctx.noteWorkers(n, workers)
	vec := ctx.useVector(n.Keys...)
	for ai := range n.Aggs {
		vec = vec && ctx.useVector(n.Aggs[ai].Arg)
	}
	ctx.noteEval(n, vec, nrows)

	// Phase 1: encode group keys into per-morsel arenas and evaluate
	// aggregate arguments. NULL keys form regular groups — the encoding
	// distinguishes NULL from every concrete value. The vector path
	// batch-evaluates keys into column vectors (feeding the encoder from
	// those) and aggregate arguments straight into their argVals slices.
	keyBytes := make([][]byte, nrows)
	hashes := make([]uint64, nrows)
	argVals := make([][]types.Value, len(n.Aggs))
	for ai := range n.Aggs {
		if n.Aggs[ai].Arg != nil {
			argVals[ai] = make([]types.Value, nrows)
		}
	}
	encs := make([]keyEnc, workers)
	err = ctx.parallelFor(nrows, workers, func(w, _, lo, hi int) error {
		enc := &encs[w]
		var arena []byte
		phase1Serial := func(b, e int) error {
			for i := b; i < e; i++ {
				if err := ctx.Tick(i - b); err != nil {
					return err
				}
				r := in.Rows[i]
				key, _, err := enc.funcs(n.Keys, r)
				if err != nil {
					return err
				}
				start := len(arena)
				arena = append(arena, key...)
				kb := arena[start:len(arena):len(arena)]
				keyBytes[i] = kb
				hashes[i] = hashKey(kb)
				for ai := range n.Aggs {
					if vals := argVals[ai]; vals != nil {
						v, err := n.Aggs[ai].Arg.Eval(r)
						if err != nil {
							return err
						}
						vals[i] = v
					}
				}
			}
			return nil
		}
		if !vec {
			return phase1Serial(lo, hi)
		}
		cols := evalScratch(len(n.Keys), hi-lo)
		return ctx.forBatches(lo, hi, func(b, e int) error {
			chunk := in.Rows[b:e]
			ok := tryBatchAll(n.Keys, chunk, cols)
			for ai := range n.Aggs {
				if !ok {
					break
				}
				if vals := argVals[ai]; vals != nil {
					ok = n.Aggs[ai].Arg.TryBatch(chunk, vals[b:e], nil)
				}
			}
			if !ok {
				return phase1Serial(b, e)
			}
			for i := range chunk {
				key, _ := enc.cols(cols, i)
				start := len(arena)
				arena = append(arena, key...)
				kb := arena[start:len(arena):len(arena)]
				keyBytes[b+i] = kb
				hashes[b+i] = hashKey(kb)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: partitioned fold. Each worker scans the rows in order and
	// folds the ones whose key hash lands in its partition.
	parts := make([]*keyTable[*groupState], workers)
	foldPartition := func(p int) error {
		t := newKeyTable[*groupState](nrows/(workers*4) + 1)
		parts[p] = t
		np := uint64(workers)
		touched := 0
		for i := 0; i < nrows; i++ {
			if hashes[i]%np != uint64(p) {
				continue
			}
			if err := ctx.Tick(touched); err != nil {
				return err
			}
			touched++
			var g *groupState
			if gp := t.lookup(hashes[i], keyBytes[i]); gp != nil {
				g = *gp
			} else {
				r := in.Rows[i]
				keyVals := make(schema.Row, len(n.Keys))
				for ki, f := range n.Keys {
					v, err := f.Eval(r)
					if err != nil {
						return err
					}
					keyVals[ki] = v
				}
				g = &groupState{keyVals: keyVals, accs: make([]*accumulator, len(n.Aggs)), first: i}
				for ai := range n.Aggs {
					g.accs[ai] = newAccumulator(&n.Aggs[ai])
				}
				t.insert(hashes[i], keyBytes[i], g)
			}
			for ai := range n.Aggs {
				if vals := argVals[ai]; vals != nil {
					if err := g.accs[ai].add(vals[i]); err != nil {
						return err
					}
				} else {
					g.accs[ai].addRowCount()
				}
			}
		}
		return nil
	}
	if workers == 1 {
		if err := foldPartition(0); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for p := 0; p < workers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer func() {
					if rec := recover(); rec != nil {
						errs[p] = govern.Internalize(rec)
					}
				}()
				errs[p] = foldPartition(p)
			}(p)
		}
		wg.Wait()
		if err := firstError(errs); err != nil {
			return nil, err
		}
	}

	// Sequence groups by first appearance — the serial output order.
	var sequence []*groupState
	for _, t := range parts {
		for _, b := range t.buckets {
			for i := range b {
				sequence = append(sequence, b[i].val)
			}
		}
	}
	sort.Slice(sequence, func(i, j int) bool { return sequence[i].first < sequence[j].first })
	return n.emitGroups(ctx, sequence)
}

// emitGroups materializes the output rows from groups already sequenced
// in first-appearance order; the in-memory and grace-hash paths share it.
func (n *GroupNode) emitGroups(ctx *Ctx, sequence []*groupState) (*Result, error) {
	if len(n.Keys) == 0 && len(sequence) == 0 {
		// Global aggregate over empty input: one row of empty-group results.
		g := &groupState{accs: make([]*accumulator, len(n.Aggs))}
		for i := range n.Aggs {
			g.accs[i] = newAccumulator(&n.Aggs[i])
		}
		sequence = append(sequence, g)
	}
	ctx.res.Charge(int64(len(sequence)) * (rowHdrBytes + int64(n.schema.Len())*valueBytes))
	out := make([]schema.Row, len(sequence))
	for i, g := range sequence {
		row := make(schema.Row, 0, len(n.Keys)+len(n.Aggs))
		row = append(row, g.keyVals...)
		for _, acc := range g.accs {
			row = append(row, acc.result())
		}
		out[i] = row
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

package plan

import (
	"math"

	"repro/internal/exec"
	"repro/internal/sqlast"
	"repro/internal/storage"
	"repro/internal/types"
)

const defaultSel = 1.0 / 3

// evalCPU costs rows·perRow units of expression-evaluation work under the
// batch execution model: vectorization discounts the per-row interpreter
// overhead and adds one dispatch term per MorselSize-row batch. The term
// applies uniformly to every expression-evaluating operator (filter,
// project, join, group, window), so relative plan choices match the
// row-at-a-time model; only absolute numbers move. A query run on the
// row path (WithRowEval) is costed the same: it does not replan. Costs are
// serial work: morsel parallelism would divide every term by one factor,
// which moves no choice, so the model leaves it out and a plan's printed
// cost is the same on every machine.
func evalCPU(rows, perRow float64) float64 {
	batches := math.Ceil(rows / float64(exec.MorselSize))
	return rows*perRow*costVecDiscount + batches*costBatchDispatch
}

// selectivity estimates the fraction of pl's rows satisfying expr.
// Conjunctions multiply, disjunctions combine with inclusion-exclusion,
// comparisons consult base-column statistics, and IN predicates scale by
// the member count (or the subquery's estimated cardinality — this is what
// makes a join-back semi-join look as cheap as it is when the pushed
// predicate correlates with the cluster key).
func (b *builder) selectivity(expr sqlast.Expr, pl *planned, subplans map[sqlast.Stmt]exec.Node) float64 {
	switch e := expr.(type) {
	case nil:
		return 1
	case *sqlast.Bin:
		switch e.Op {
		case sqlast.OpAnd:
			return b.selectivity(e.L, pl, subplans) * b.selectivity(e.R, pl, subplans)
		case sqlast.OpOr:
			sl := b.selectivity(e.L, pl, subplans)
			sr := b.selectivity(e.R, pl, subplans)
			return sl + sr - sl*sr
		}
		if e.Op.IsComparison() {
			return b.cmpSelectivity(e, pl)
		}
		return defaultSel
	case *sqlast.Un:
		if e.Op == sqlast.OpNot {
			return 1 - b.selectivity(e.E, pl, subplans)
		}
		return defaultSel
	case *sqlast.IsNull:
		if e.Neg {
			return 0.95
		}
		return 0.05
	case *sqlast.In:
		st := b.statsFor(e.E, pl)
		d := 100.0
		if st != nil && st.Distinct > 0 {
			d = float64(st.Distinct)
		}
		var members float64
		if e.Sub != nil {
			if node, ok := subplans[e.Sub]; ok {
				members = node.EstRows()
			} else {
				members = d * defaultSel
			}
		} else {
			members = float64(len(e.List))
		}
		sel := members / d
		if sel > 1 {
			sel = 1
		}
		if e.Neg {
			sel = 1 - sel
		}
		return sel
	case *sqlast.Like:
		if e.Neg {
			return 0.9
		}
		return 0.1
	case *sqlast.Const:
		return 1 // constant TRUE/FALSE predicates are rare; assume pass
	}
	return defaultSel
}

func (b *builder) cmpSelectivity(e *sqlast.Bin, pl *planned) float64 {
	cr, val, op := matchColConst(e)
	var v types.Value
	if cr != nil {
		var ok bool
		if v, ok = resolveConst(val, b.params()); !ok {
			cr = nil
		}
	}
	if cr == nil {
		// col = col within one input, or non-foldable expression.
		if e.Op == sqlast.OpEq {
			return 0.1
		}
		return defaultSel
	}
	st := b.statsFor(cr, pl)
	if st == nil {
		if op == sqlast.OpEq {
			return 0.1
		}
		return defaultSel
	}
	switch op {
	case sqlast.OpEq:
		return st.EqSelectivity()
	case sqlast.OpNe:
		return 1 - st.EqSelectivity()
	case sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		sel := rangeSel(st, op, v)
		if sqlast.HasParam(val) {
			rows := float64(st.NonNull)
			b.bind.note(e, cr.Name+" rows", rows*sel, func(params []types.Value) (float64, bool) {
				v, ok := resolveConst(val, params)
				return rows * rangeSel(st, op, v), ok
			})
		}
		return sel
	}
	return defaultSel
}

// rangeSel is the selectivity of `col op v` for a range comparison.
func rangeSel(st *storage.ColStats, op sqlast.BinOp, v types.Value) float64 {
	if op == sqlast.OpLt || op == sqlast.OpLe {
		return st.RangeSelectivity(nil, &v)
	}
	return st.RangeSelectivity(&v, nil)
}

// statsFor resolves an expression to base-column statistics when it is a
// plain column reference that traces to a base table.
func (b *builder) statsFor(e sqlast.Expr, pl *planned) *storage.ColStats {
	cr, ok := e.(*sqlast.ColRef)
	if !ok {
		return nil
	}
	idx, err := pl.scope.Resolve(cr.Table, cr.Name)
	if err != nil || idx >= len(pl.stats) {
		return nil
	}
	return pl.stats[idx]
}

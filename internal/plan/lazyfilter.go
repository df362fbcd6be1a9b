// Package plan translates SQL statements into physical operator trees:
// name resolution, predicate classification and pushdown (including
// through views and UNION branches), index-scan selection, greedy join
// ordering, window-function extraction with sort-order sharing, and a
// cardinality/cost model. The query-rewrite engine in internal/core uses
// the planner's cost estimates to choose among candidate rewrites, the
// same way the paper compiles each candidate on the DBMS and keeps the
// cheapest.
package plan

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// bindPredicate returns the open-time binder of a filter predicate. One
// with neither subqueries nor placeholders compiles once, now. Any other
// compiles per execution: under the statement's binding, and over the
// values its uncorrelated IN/EXISTS subqueries produce — it runs their
// plans through the statement's execution context (so a repeated
// subquery runs once) and hands back those of the probe subquery (nil
// for none) as the scan's probe keys. Compilation waits for execution
// because planning must never execute anything, or costing candidate
// rewrites would pay for running them, and because one plan serves
// every binding.
func (b *builder) bindPredicate(expr sqlast.Expr, sch *schema.Schema, subplans map[sqlast.Stmt]exec.Node, probe sqlast.Stmt) (func(*exec.Ctx) (*eval.Compiled, []types.Value, error), error) {
	if len(subplans) == 0 {
		bind, err := atOpen(b, sqlast.HasParam(expr), func(params []types.Value) (*eval.Compiled, error) {
			return eval.Compile(expr, &eval.Env{Schema: sch, Params: params})
		})
		if err != nil {
			return nil, err
		}
		return func(c *exec.Ctx) (*eval.Compiled, []types.Value, error) {
			pred, err := bind(c)
			return pred, nil, err
		}, nil
	}
	return func(ctx *exec.Ctx) (*eval.Compiled, []types.Value, error) {
		var keys []types.Value
		pred, err := eval.Compile(expr, &eval.Env{
			Schema: sch,
			Params: ctx.Params(),
			SubEval: func(s sqlast.Stmt) ([]types.Value, error) {
				node, ok := subplans[s]
				if !ok {
					return nil, fmt.Errorf("plan: unplanned subquery in predicate %s", sqlast.ExprSQL(expr))
				}
				res, err := exec.Run(ctx, node)
				if err != nil {
					return nil, err
				}
				out := make([]types.Value, len(res.Rows))
				for i, r := range res.Rows {
					out[i] = r[0]
				}
				if s == probe {
					keys = out
				}
				return out, nil
			},
		})
		return pred, keys, err
	}, nil
}

// probeConjunct finds a top-level `col IN (subquery)` conjunct of expr,
// not negated, whose col is a probe column of pl. It returns col's
// ordinal and the subquery, or -1 when there is none.
func probeConjunct(expr sqlast.Expr, pl *planned) (int, sqlast.Stmt) {
	for _, c := range sqlast.Conjuncts(expr) {
		if in, ok := c.(*sqlast.In); ok && in.Sub != nil && !in.Neg {
			if ord := probeColumn(in.E, pl); ord >= 0 {
				return ord, in.Sub
			}
		}
	}
	return -1, nil
}

// probeColumn returns the ordinal of e when e is a bare column of the
// plain scan pl is (see exec.ProbeScan) and the scanned table indexes it —
// when keys bound for e at open can become index probes — or -1.
func probeColumn(e sqlast.Expr, pl *planned) int {
	cr, ok := e.(*sqlast.ColRef)
	scan := exec.ProbeScan(pl.node)
	if !ok || scan == nil {
		return -1
	}
	ord, err := pl.scope.Resolve(cr.Table, cr.Name)
	if err != nil || !scan.Table.HasIndex(ord) {
		return -1
	}
	return ord
}

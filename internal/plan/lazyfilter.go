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

// bindSubqueries returns the open-time binder of a filter predicate that
// contains uncorrelated IN/EXISTS subqueries: it runs their plans through
// the statement's execution context (so a repeated subquery runs once)
// and compiles the predicate over the values they produce. Compilation
// waits for execution because planning must never execute anything, or
// costing candidate rewrites would pay for running them.
func bindSubqueries(expr sqlast.Expr, sch *schema.Schema, subplans map[sqlast.Stmt]exec.Node, desc string) func(*exec.Ctx) (*eval.Compiled, error) {
	return func(ctx *exec.Ctx) (*eval.Compiled, error) {
		return eval.Compile(expr, &eval.Env{
			Schema: sch,
			SubEval: func(s sqlast.Stmt) ([]types.Value, error) {
				node, ok := subplans[s]
				if !ok {
					return nil, fmt.Errorf("plan: unplanned subquery in predicate %s", desc)
				}
				res, err := exec.Run(ctx, node)
				if err != nil {
					return nil, err
				}
				out := make([]types.Value, len(res.Rows))
				for i, r := range res.Rows {
					out[i] = r[0]
				}
				return out, nil
			},
		})
	}
}

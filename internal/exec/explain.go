package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sqlast"
	"repro/internal/types"
)

// Explain renders the plan tree with the planner's cardinality and cost
// estimates, in the style of a DBMS access plan printout. Operators that
// would fan out under the process-wide Parallelism are marked [parallel].
func Explain(n Node) string { return ExplainBound(n, nil, 0) }

// ExplainBound is Explain with predicates printed under a binding: each
// placeholder expression is shown as the literal it denotes. par is the
// query's parallelism, which decides the [parallel] marks; par < 1 means
// the process-wide Parallelism, as Ctx.SetParallelism reads it.
func ExplainBound(n Node, params []types.Value, par int) string {
	if par < 1 {
		par = defaultParallelism()
	}
	var b strings.Builder
	explainNode(&b, n, params, par, 0)
	return b.String()
}

// LabelBound is n's EXPLAIN label under a binding, as ExplainBound
// prints it: a scan's or filter's predicate shows the binding's values
// in place of its placeholders.
func LabelBound(n Node, params []types.Value) string {
	if p, ok := n.(interface{ labelUnder([]types.Value) string }); ok {
		return p.labelUnder(params)
	}
	return n.Label()
}

// PredLabel is a predicate as plan labels show it: Desc, its text as
// planned, or — under a binding — Expr with the binding's values in
// place of its placeholders. Expr is nil for a predicate that was built
// compiled.
type PredLabel struct {
	Desc string
	Expr sqlast.Expr
}

// LabelOf is the label of predicate e.
func LabelOf(e sqlast.Expr) PredLabel {
	return PredLabel{Desc: Abbreviate(sqlast.ExprSQL(e)), Expr: e}
}

// under is the label's text under params.
func (p PredLabel) under(params []types.Value) string {
	if params == nil || p.Expr == nil {
		return p.Desc
	}
	return Abbreviate(sqlast.ExprSQL(sqlast.BindExpr(p.Expr, params)))
}

// Abbreviate shortens a predicate's text for a plan label.
func Abbreviate(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

func explainNode(b *strings.Builder, n Node, params []types.Value, par, depth int) {
	fmt.Fprintf(b, "%s%s  [rows=%.0f cost=%.0f", strings.Repeat("  ", depth), LabelBound(n, params), n.EstRows(), n.EstCost())
	if m := EstMem(n); m > 0 {
		fmt.Fprintf(b, " mem=%s", fmtBytes(m))
	}
	b.WriteString("]")
	if par > 1 && parallelCapable(n) && n.EstRows() >= float64(ParallelThreshold) {
		b.WriteString("  [parallel]")
	}
	b.WriteString("\n")
	for _, c := range n.Children() {
		explainNode(b, c, params, par, depth+1)
	}
}

// parallelCapable reports whether the operator fans out morsel workers
// when its input is large enough; Explain marks such nodes so plans show
// where intra-query parallelism will apply.
func parallelCapable(n Node) bool {
	switch n.(type) {
	case *ScanNode, *FilterNode, *ProjectNode, *SortNode,
		*HashJoinNode, *NestedLoopJoinNode, *GroupNode, *WindowNode:
		return true
	}
	return false
}

// ExplainAnalyze renders the plan with both the planner's estimates and
// the actual rows and elapsed time recorded in an analyze context, the
// moral equivalent of EXPLAIN ANALYZE. Elapsed times are cumulative
// (children included); "(cached)" marks shared subtrees served from the
// statement cache after their first execution.
func ExplainAnalyze(n Node, ctx *Ctx) string {
	var b strings.Builder
	explainAnalyzeNode(&b, n, ctx, 0)
	return b.String()
}

func explainAnalyzeNode(b *strings.Builder, n Node, ctx *Ctx, depth int) {
	fmt.Fprintf(b, "%s%s  [est rows=%.0f cost=%.0f]", strings.Repeat("  ", depth), LabelBound(n, ctx.params), n.EstRows(), n.EstCost())
	if st := ctx.Stats(n); st != nil {
		fmt.Fprintf(b, "  [actual rows=%d time=%s", st.Rows, st.Elapsed.Round(10*time.Microsecond))
		if st.Workers > 1 {
			fmt.Fprintf(b, " workers=%d", st.Workers)
		}
		if st.EvalMode != "" {
			fmt.Fprintf(b, " eval=%s", st.EvalMode)
			if st.EvalMode == "vector" {
				fmt.Fprintf(b, " batches=%d", st.Batches)
			}
		}
		if st.Segments > 0 {
			fmt.Fprintf(b, " segments=%d pruned=%d", st.Segments, st.Pruned)
		}
		if st.Probe > 0 {
			fmt.Fprintf(b, " probe=%d", st.Probe)
		}
		if st.SpillRuns > 0 {
			fmt.Fprintf(b, " spilled=%d runs (%s)", st.SpillRuns, fmtBytes(float64(st.SpillBytes)))
		}
		if st.Hits > 0 {
			fmt.Fprintf(b, " cached×%d", st.Hits)
		}
		b.WriteString("]")
	} else {
		b.WriteString("  [never executed]")
	}
	b.WriteString("\n")
	for _, c := range n.Children() {
		explainAnalyzeNode(b, c, ctx, depth+1)
	}
}

// fmtBytes renders a byte count with a binary-unit suffix for plan output.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%.0fB", v)
}

// Kind names an operator's family — its Label stripped of per-instance
// detail — for use as a metrics label ("rows per operator kind"). The
// set of kinds is closed over the engine's physical operators.
func Kind(n Node) string {
	switch v := n.(type) {
	case *ScanNode:
		if v.IndexOrd >= 0 {
			return "IndexScan"
		}
		return "Scan"
	case *FilterNode:
		return "Filter"
	case *ProjectNode:
		return "Project"
	case *SortNode:
		return "Sort"
	case *LimitNode:
		return "Limit"
	case *UnionNode:
		return "Union"
	case *HashJoinNode:
		return "HashJoin"
	case *NestedLoopJoinNode:
		return "NLJoin"
	case *GroupNode:
		if len(v.Aggs) == 0 {
			return "Distinct"
		}
		return "Group"
	case *WindowNode:
		return "Window"
	case *ValuesNode:
		return "Values"
	}
	// Unknown operator: fall back to the label up to its detail.
	label := n.Label()
	if i := strings.IndexByte(label, '('); i > 0 {
		return label[:i]
	}
	return label
}

// CountNodes returns the number of operators in the plan with the given
// label prefix; tests use it to assert plan shapes (e.g. number of sorts).
func CountNodes(n Node, labelPrefix string) int {
	count := 0
	if strings.HasPrefix(n.Label(), labelPrefix) {
		count++
	}
	for _, c := range n.Children() {
		count += CountNodes(c, labelPrefix)
	}
	return count
}

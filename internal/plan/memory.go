package plan

import (
	"repro/internal/exec"
)

// annotateMemory walks a finished plan and records each materializing
// operator's estimated peak working memory (EXPLAIN prints it as mem=).
// The formulas mirror the executor's accounting charges — the same
// per-value, per-row-reference, and per-key constants — so comparing a
// plan's mem= figures against a query's WithMemoryLimit budget predicts
// which operators will spill. Pass-through operators (scans over resident
// tables, limits) keep a zero estimate and are not printed.
func annotateMemory(n exec.Node) {
	for _, c := range n.Children() {
		annotateMemory(c)
	}
	switch t := n.(type) {
	case *exec.SortNode:
		in := t.Input.EstRows()
		exec.SetMemEstimate(n,
			in*(float64(len(t.Keys))*exec.ValueBytes+exec.RowHdrBytes+16)+in*exec.RowHdrBytes)
	case *exec.GroupNode:
		in := t.Input.EstRows()
		exec.SetMemEstimate(n,
			in*(exec.KeyRefBytes+8+float64(len(t.Aggs))*exec.ValueBytes))
	case *exec.HashJoinNode:
		exec.SetMemEstimate(n,
			t.Right.EstRows()*(exec.KeyRefBytes+exec.RowHdrBytes)+t.Left.EstRows()*exec.KeyRefBytes)
	case *exec.WindowNode:
		in := t.Input.EstRows()
		exec.SetMemEstimate(n,
			in*(exec.KeyRefBytes+8+float64(len(t.Aggs))*2*exec.ValueBytes+
				exec.RowHdrBytes+float64(n.Schema().Len())*exec.ValueBytes))
	case *exec.ProjectNode:
		exec.SetMemEstimate(n,
			t.Input.EstRows()*(exec.RowHdrBytes+float64(n.Schema().Len())*exec.ValueBytes))
	case *exec.FilterNode:
		exec.SetMemEstimate(n, t.Input.EstRows()*exec.RowHdrBytes)
	case *exec.UnionNode:
		exec.SetMemEstimate(n, (t.Left.EstRows()+t.Right.EstRows())*exec.RowHdrBytes)
	}
}

package repro_test

import (
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
)

// TestQueryCorpusVectorInvariance runs the paper's benchmark queries under
// every rewrite strategy with batch evaluation (the default) and with
// WithRowEval, at serial and full parallelism, and asserts identical
// results — the end-to-end form of the vectorization contract: the batch
// path is an execution detail, never an answer change.
func TestQueryCorpusVectorInvariance(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules := e.RulePrefix(5)
	for qname, q := range corpusQueries(t, e) {
		for _, v := range bench.Variants() {
			for _, par := range []int{1, runtime.NumCPU()} {
				name := qname + "/" + v.Name + "/par1"
				if par != 1 {
					name = qname + "/" + v.Name + "/parN"
				}
				t.Run(name, func(t *testing.T) {
					row, err := e.DB.Query(q,
						repro.WithStrategy(v.Strat), repro.WithRules(rules...),
						repro.WithParallelism(par), repro.WithRowEval())
					if err != nil {
						if v.Strat == repro.Expanded {
							t.Skipf("infeasible: %v", err)
						}
						t.Fatal(err)
					}
					vec, err := e.DB.Query(q,
						repro.WithStrategy(v.Strat), repro.WithRules(rules...),
						repro.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, row, vec)
				})
			}
		}
	}
}

// TestExplainAnalyzeReportsEvalMode asserts EXPLAIN ANALYZE annotates
// operators with their evaluation mode: eval=vector plus the batch count
// under the default, eval=row under WithRowEval.
func TestExplainAnalyzeReportsEvalMode(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules := e.RulePrefix(3)
	// Wide enough that the fused caser scan alone fans out even over
	// 64-row segments: the joins with locs probe its index for the few
	// locations v1 reaches, so they stay serial.
	q := e.Q1(0.8)

	out, err := e.DB.ExplainAnalyze(q, repro.WithRules(rules...), repro.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "eval=vector") {
		t.Fatalf("ExplainAnalyze missing eval=vector:\n%s", out)
	}
	if !strings.Contains(out, "batches=") {
		t.Fatalf("ExplainAnalyze missing batches= next to eval=vector:\n%s", out)
	}
	// The annotation rides on the same line as the worker fan-out.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "workers=") && strings.Contains(line, "eval=vector") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no line carries both workers= and eval=vector:\n%s", out)
	}

	out, err = e.DB.ExplainAnalyze(q, repro.WithRules(rules...), repro.WithRowEval())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "eval=row") {
		t.Fatalf("ExplainAnalyze with WithRowEval missing eval=row:\n%s", out)
	}
	if strings.Contains(out, "eval=vector") {
		t.Fatalf("ExplainAnalyze with WithRowEval still reports eval=vector:\n%s", out)
	}
}

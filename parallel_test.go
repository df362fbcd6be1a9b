package repro_test

import (
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/exec"
)

// TestQueryCorpusParallelInvariance runs the paper's benchmark queries
// under every rewrite strategy at Parallelism=1 and Parallelism=NumCPU
// and asserts the results are identical — the end-to-end form of the
// determinism guarantee the morsel framework makes. The -race runs of
// CI double this test as the engine's concurrency check.
func TestQueryCorpusParallelInvariance(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules := e.RulePrefix(5)
	queries := map[string]string{
		"q1":  e.Q1(0.4),
		"q2":  e.Q2(0.3),
		"q2p": e.Q2Prime(0.3),
	}
	for qname, q := range queries {
		for _, v := range bench.Variants() {
			t.Run(qname+"/"+v.Name, func(t *testing.T) {
				serial, err := e.DB.Query(q,
					repro.WithStrategy(v.Strat), repro.WithRules(rules...),
					repro.WithParallelism(1))
				if err != nil {
					// Expanded rewrites are legitimately infeasible for
					// some rule sets (Table 1's {} entries).
					if v.Strat == repro.Expanded {
						t.Skipf("infeasible: %v", err)
					}
					t.Fatal(err)
				}
				parallel, err := e.DB.Query(q,
					repro.WithStrategy(v.Strat), repro.WithRules(rules...),
					repro.WithParallelism(runtime.NumCPU()))
				if err != nil {
					t.Fatal(err)
				}
				assertSameRows(t, serial, parallel)
			})
		}
	}
}

// TestJoinBackSemiJoinFilterIsAPipelineStage checks the join-back
// rewrite's semi-join filter (epc IN (SELECT …)), whose predicate binds
// at open, runs as the same pipeline stage as any other filter: it fans
// out over the morsels of its input and charges its row references to
// the query's memory budget.
func TestJoinBackSemiJoinFilterIsAPipelineStage(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.DB.Query("SELECT epc FROM caser LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	count, err := e.DB.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	caser := count.Data[0][0].Int()
	q := "SELECT rtime, reader, biz_loc FROM caser WHERE epc = '" + rows.Data[0][0].Str() + "' ORDER BY rtime"
	opts := []repro.QueryOption{repro.WithStrategy(repro.JoinBack), repro.WithRules(e.RulePrefix(3)...), repro.WithParallelism(4)}

	plan, err := e.DB.ExplainAnalyze(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	semi := ""
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "Filter(") && strings.Contains(line, " IN (") {
			semi = line
			break
		}
	}
	if !strings.Contains(semi, "workers=4") {
		t.Fatalf("semi-join filter did not fan out (line %q):\n%s", semi, plan)
	}
	got, err := e.DB.Query(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// The filter reserves a row reference per caser row it reads.
	if want := caser * exec.RowHdrBytes; got.Mem.Peak < want {
		t.Fatalf("Mem.Peak = %d, below the semi-join filter's %d-byte reservation", got.Mem.Peak, want)
	}
}

func assertSameRows(t *testing.T, a, b *repro.Rows) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("column count: %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d name: %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Data) != len(b.Data) {
		t.Fatalf("row count: serial %d vs parallel %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		for j := range a.Data[i] {
			va, vb := a.Data[i][j], b.Data[i][j]
			if !va.Equal(vb) || va.IsNull() != vb.IsNull() {
				t.Fatalf("row %d col %d: serial %s vs parallel %s", i, j, va.SQL(), vb.SQL())
			}
		}
	}
}

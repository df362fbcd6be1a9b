package repro_test

import (
	"fmt"
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
	for qname, q := range corpusQueries(t, e) {
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
// at open. On the row path, which reads every row, it runs as the same
// pipeline stage as any other filter: it fans out over the morsels of its
// input and charges its row references to the query's memory budget. In
// vectorized mode the keys it binds become index probes, so the
// Scan(caser) under it emits only the EPC's rows.
func TestJoinBackSemiJoinFilterIsAPipelineStage(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.DB.Query("SELECT epc FROM caser LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	epc := rows.Data[0][0].Str()
	count := func(where string) int64 {
		t.Helper()
		r, err := e.DB.Query("SELECT count(*) FROM caser"+where, repro.WithStrategy(repro.Dirty))
		if err != nil {
			t.Fatal(err)
		}
		return r.Data[0][0].Int()
	}
	caser, matched := count(""), count(" WHERE epc = '"+epc+"'")
	q := "SELECT rtime, reader, biz_loc FROM caser WHERE epc = '" + epc + "' ORDER BY rtime"
	opts := []repro.QueryOption{repro.WithStrategy(repro.JoinBack), repro.WithRules(e.RulePrefix(3)...), repro.WithParallelism(4)}
	// semiJoin returns the semi-join filter's line of an EXPLAIN ANALYZE
	// and the line of the scan under it.
	semiJoin := func(opts ...repro.QueryOption) (string, string, string) {
		t.Helper()
		plan, err := e.DB.ExplainAnalyze(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(plan, "\n")
		for i, line := range lines[:len(lines)-1] {
			if strings.Contains(line, "Filter(") && strings.Contains(line, " IN (") {
				return line, lines[i+1], plan
			}
		}
		t.Fatalf("no semi-join filter:\n%s", plan)
		return "", "", ""
	}

	rowOpts := append(opts, repro.WithRowEval())
	semi, _, plan := semiJoin(rowOpts...)
	if !strings.Contains(semi, "workers=4") {
		t.Fatalf("semi-join filter did not fan out (line %q):\n%s", semi, plan)
	}
	got, err := e.DB.Query(q, rowOpts...)
	if err != nil {
		t.Fatal(err)
	}
	// The filter reserves a row reference per caser row it reads.
	if want := caser * exec.RowHdrBytes; got.Mem.Peak < want {
		t.Fatalf("Mem.Peak = %d, below the semi-join filter's %d-byte reservation", got.Mem.Peak, want)
	}

	_, scan, plan := semiJoin(opts...)
	if !strings.Contains(scan, "Scan(caser)  [") || !strings.Contains(scan, fmt.Sprintf("actual rows=%d ", matched)) ||
		!strings.Contains(scan, "probe=1") {
		t.Fatalf("vectorized scan under the semi-join did not probe the EPC's %d rows (line %q):\n%s", matched, scan, plan)
	}
}

// TestJoinBackKeySetRunsOnce checks that the five-rule lookup's key-set
// subquery, which the rewrite inlines at every use and pushdown copies
// further, is planned once per statement: every use shares one Distinct
// node, which executes once and serves the other uses from the cache.
func TestJoinBackKeySetRunsOnce(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := corpusQueries(t, e)["lookup"]
	plan, err := e.DB.ExplainAnalyze(q, repro.WithStrategy(repro.JoinBack), repro.WithRules(e.RulePrefix(5)...))
	if err != nil {
		t.Fatal(err)
	}
	var uses []string
	for _, line := range strings.Split(plan, "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " "), "Distinct  [") {
			uses = append(uses, line)
		}
	}
	if len(uses) < 2 {
		t.Fatalf("want the key set used more than once, got %d uses:\n%s", len(uses), plan)
	}
	cached := fmt.Sprintf("cached×%d]", len(uses)-1)
	for _, line := range uses {
		if !strings.HasSuffix(line, cached) {
			t.Fatalf("key-set use %q: want one execution and %s\n%s", line, cached, plan)
		}
	}
}

// corpusQueries is the query corpus the row/vector, serial/parallel and
// eager/stream invariance suites run under every strategy: the paper's
// q1, q2 and q2', the join-back EPC lookup (its semi-join and small-build
// joins probe indexes), a count over an EPC that does not exist (an empty
// key set), and a semi-join whose key set matches too many rows to probe.
func corpusQueries(t *testing.T, e *bench.Env) map[string]string {
	t.Helper()
	rows, err := e.DB.Query("SELECT epc FROM caser LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"q1":      e.Q1(0.4),
		"q2":      e.Q2(0.3),
		"q2p":     e.Q2Prime(0.3),
		"lookup":  "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = '" + rows.Data[0][0].Str() + "' ORDER BY rtime",
		"missing": "SELECT count(*) FROM caser WHERE epc = 'urn:epc:id:sgtin:0000000.000000.000000000'",
		"wide":    "SELECT epc, rtime, biz_loc FROM caser WHERE epc IN (SELECT child_epc FROM parent)",
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

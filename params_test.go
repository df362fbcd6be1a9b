package repro_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/exec"
)

// paramCase is a corpus query with two bindings of its literals: v1
// plans the shape, v2 must then hit it.
type paramCase struct {
	name     string
	template string // the query with %s where its varying literal goes
	v1, v2   string
	strat    repro.Strategy
	rules    []string
}

func paramCases(t *testing.T, e *bench.Env) []paramCase {
	t.Helper()
	rows, err := e.DB.Query("SELECT DISTINCT epc FROM caser ORDER BY epc", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	epc := func(i int) string { return "'" + rows.Data[i*len(rows.Data)/5][0].Str() + "'" }
	q1 := strings.Replace(e.Q1(0.4), e.Q1Bound(0.4), "%s", 1)
	q2 := strings.Replace(e.Q2(0.3), e.Q2Bound(0.3), "%s", 1)
	q2p := strings.Replace(e.Q2Prime(0.3), e.Q2Bound(0.3), "%s", 1)
	lookup := "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = %s ORDER BY rtime"
	grid := e.RulePrefix(3)
	var cases []paramCase
	for _, v := range bench.Variants() {
		cases = append(cases,
			paramCase{"q1/" + v.Name, q1, e.Q1Bound(0.4), e.Q1Bound(0.45), v.Strat, grid},
			paramCase{"q2/" + v.Name, q2, e.Q2Bound(0.3), e.Q2Bound(0.32), v.Strat, grid},
			paramCase{"q2p/" + v.Name, q2p, e.Q2Bound(0.3), e.Q2Bound(0.32), v.Strat, grid},
			paramCase{"lookup/" + v.Name, lookup, epc(1), epc(3), v.Strat, e.RulePrefix(5)},
			paramCase{"missing/" + v.Name, "SELECT count(*) FROM caser WHERE epc = %s", "'urn:epc:id:sgtin:0000000.000000.000000000'", "'urn:epc:id:sgtin:0000000.000000.000000001'", v.Strat, e.RulePrefix(5)},
		)
	}
	return cases
}

// TestShapeHitMatchesFreshCompile runs each corpus query with one value,
// then with another as a plan-cache hit, and checks the hit's rows are
// identical to the second value compiled on a reset cache — under row and
// vector evaluation, serial and parallel execution, eager and streamed —
// and to the `$1` form of the query bound with WithParams and prepared.
func TestShapeHitMatchesFreshCompile(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	db := e.DB
	modes := []struct {
		name string
		opts []repro.QueryOption
	}{
		{"vector/par1", []repro.QueryOption{repro.WithParallelism(1)}},
		{"vector/par4", []repro.QueryOption{repro.WithParallelism(4)}},
		{"row/par1", []repro.QueryOption{repro.WithParallelism(1), repro.WithRowEval()}},
		{"row/par4", []repro.QueryOption{repro.WithParallelism(4), repro.WithRowEval()}},
	}
	for _, pc := range paramCases(t, e) {
		for _, m := range modes {
			for _, stream := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/stream=%v", pc.name, m.name, stream)
				t.Run(name, func(t *testing.T) {
					opts := append([]repro.QueryOption{repro.WithStrategy(pc.strat), repro.WithRules(pc.rules...)}, m.opts...)
					run := func(sql string, extra ...repro.QueryOption) (*repro.Rows, error) {
						o := append(append([]repro.QueryOption{}, opts...), extra...)
						if !stream {
							return db.Query(sql, o...)
						}
						rows, err := db.QueryStream(sql, o...)
						if err != nil {
							return nil, err
						}
						return drain(t, rows), nil
					}
					db.ResetPlanCache()
					if _, err := run(fmt.Sprintf(pc.template, pc.v1)); err != nil {
						if pc.strat == repro.Expanded {
							t.Skipf("infeasible: %v", err)
						}
						t.Fatal(err)
					}
					q2 := fmt.Sprintf(pc.template, pc.v2)
					hit, err := run(q2)
					if err != nil {
						t.Fatal(err)
					}
					if !hit.Rewrite.CacheHit {
						t.Fatalf("second value missed the cache (stats %+v)", db.PlanCacheStats())
					}
					db.ResetPlanCache()
					fresh, err := run(q2)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, fresh, hit)
					if hit.Rewrite.SQL() != fresh.Rewrite.SQL() {
						t.Errorf("rewritten SQL differs between hit and fresh compile:\nhit:   %s\nfresh: %s", hit.Rewrite.SQL(), fresh.Rewrite.SQL())
					}
					v2, err := db.Query("SELECT "+pc.v2, repro.WithStrategy(repro.Dirty))
					if err != nil {
						t.Fatal(err)
					}
					bound, err := run(fmt.Sprintf(pc.template, "$1"), repro.WithParams(v2.Data[0][0]))
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, fresh, bound)
					if stream {
						return
					}
					p, err := db.Prepare(fmt.Sprintf(pc.template, "$1"), opts...)
					if err != nil {
						t.Fatalf("Prepare of the $1 form: %v", err)
					}
					prepared, err := p.Run(v2.Data[0][0])
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, fresh, prepared)
				})
			}
		}
	}
}

// drain materializes a streaming Rows into Data.
func drain(t *testing.T, rows *repro.Rows) *repro.Rows {
	t.Helper()
	defer rows.Close()
	for rows.Next() {
		rows.Data = append(rows.Data, append([]repro.Value{}, rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestShapeRunsConcurrentlyUnderBindings runs one cached shape from two
// goroutines with different EPCs: each gets only its own EPC's rows.
func TestShapeRunsConcurrentlyUnderBindings(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.DB.Query("SELECT DISTINCT epc FROM caser ORDER BY epc", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	epcs := []string{rows.Data[0][0].Str(), rows.Data[len(rows.Data)-1][0].Str()}
	const q = "SELECT epc, rtime FROM caser WHERE epc = $1 ORDER BY rtime"
	p, err := e.DB.Prepare(q, repro.WithParallelism(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*20)
	for _, epc := range epcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r, err := p.Run(repro.NewString(epc))
				if err != nil {
					errs <- err
					return
				}
				if len(r.Data) == 0 {
					errs <- fmt.Errorf("%s: no rows", epc)
				}
				for _, row := range r.Data {
					if got := row[0].Str(); got != epc {
						errs <- fmt.Errorf("run for %s returned a row of %s", epc, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := e.DB.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("one shape never hit the cache: %+v", st)
	}
}

// TestBandReplan plans a range literal at a selective value (index scan),
// then binds one whose selectivity crosses to a sequential scan: the hit
// re-plans, the counter moves, and EXPLAIN shows the other access path.
func TestBandReplan(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("m", repro.ColumnDef{Name: "k", Kind: repro.KindInt}, repro.ColumnDef{Name: "v", Kind: repro.KindString}); err != nil {
		t.Fatal(err)
	}
	var batch [][]repro.Value
	for i := 0; i < 5000; i++ {
		batch = append(batch, []repro.Value{repro.NewInt(int64(i)), repro.NewString(fmt.Sprint("v", i%7))})
	}
	if err := db.Insert("m", batch...); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("m", "k"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("m"); err != nil {
		t.Fatal(err)
	}
	narrow, err := db.Explain("SELECT v FROM m WHERE k < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(narrow, "IndexScan(m.k)") || !strings.Contains(narrow, "-- params: $1 = 10") || !strings.Contains(narrow, "-- band $1: m.k rows") {
		t.Fatalf("selective range does not plan an index scan with its band:\n%s", narrow)
	}
	again, err := db.Rewrite("SELECT v FROM m WHERE k < 12")
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Errorf("a value inside the band missed the cache")
	}
	before := db.PlanCacheStats()
	wide, err := db.Explain("SELECT v FROM m WHERE k < 4000")
	if err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Replans != before.Replans+1 {
		t.Errorf("replans %d → %d, want one more", before.Replans, after.Replans)
	}
	if strings.Contains(wide, "IndexScan") || !strings.Contains(wide, "Scan(m | k < 4000)") {
		t.Errorf("wide range kept the index plan:\n%s", wide)
	}
	// The shape keeps both plans, so traffic alternating between the two
	// bands hits each band's plan rather than re-planning every request.
	for round := 0; round < 2; round++ {
		for _, q := range []string{"SELECT v FROM m WHERE k < 11", "SELECT v FROM m WHERE k < 3900"} {
			ri, err := db.Rewrite(q)
			if err != nil {
				t.Fatal(err)
			}
			if !ri.CacheHit {
				t.Errorf("round %d: %q re-planned although its band has a plan (%+v)", round, q, db.PlanCacheStats())
			}
		}
	}
	rows, err := db.Query("SELECT count(*) FROM m WHERE k < 4000")
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].Int(); n != 4000 {
		t.Errorf("count = %d, want 4000", n)
	}
	if st := db.PlanCacheStats(); st.Entries != 2 || st.Replans != after.Replans {
		t.Errorf("stats %+v, want one entry per shape and no re-plan after the first", st)
	}
}

// TestPreparedParams covers the public placeholder surface: arity and
// kind errors match ErrParams, timestamps given as strings coerce to the
// compared TIME column, and Prepared runs bind per call.
func TestPreparedParams(t *testing.T) {
	db := newServingDB(t, 5)
	p, err := db.Prepare("SELECT count(*) FROM reads WHERE rtime >= $1 AND biz_loc = $2")
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumParams(); n != 2 {
		t.Errorf("NumParams = %d, want 2", n)
	}
	for _, bad := range []string{
		"SELECT count(*) FROM no_such WHERE rtime >= $1",
		"SELECT no_such FROM reads WHERE rtime >= $1",
		"SELECT count(*) FROM reads WHERE rtime >= $1",
	} {
		opts := []repro.QueryOption{}
		if !strings.Contains(bad, "no_such") {
			opts = append(opts, repro.WithRules("no_such_rule"))
		}
		if _, err := db.Prepare(bad, opts...); err == nil {
			t.Errorf("Prepare(%q) succeeded; want the error a run reports", bad)
		}
	}
	if _, err := p.Run(repro.NewString("x")); !errors.Is(err, repro.ErrParams) {
		t.Errorf("one value for two placeholders: err = %v, want ErrParams", err)
	}
	if _, err := p.Run(repro.NewInt(3), repro.NewString("gate")); !errors.Is(err, repro.ErrParams) {
		t.Errorf("INT for a TIME column: err = %v, want ErrParams", err)
	}
	at := time.UnixMicro(0).UTC().Format(time.RFC3339Nano)
	byString, err := p.Run(repro.NewString(at), repro.NewString("gate"))
	if err != nil {
		t.Fatal(err)
	}
	byTime, err := p.Run(repro.NewTime(time.UnixMicro(0)), repro.NewString("gate"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, byTime, byString)
	if !byTime.Rewrite.CacheHit {
		t.Error("second run of a prepared shape missed the cache")
	}
	traced, err := db.Query("SELECT count(*) FROM reads WHERE biz_loc = 'gate' AND rtime >= $1",
		repro.WithParams(repro.NewTime(time.UnixMicro(0))), repro.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := traced.Trace().Root.Attr("params"); n != "2" {
		t.Errorf("trace root params = %q, want 2 (one bound, one lifted)", n)
	}
	if _, err := db.Query("SELECT count(*) FROM reads", repro.WithParams(repro.NewInt(1))); !errors.Is(err, repro.ErrParams) {
		t.Errorf("a value for a statement without placeholders: err = %v, want ErrParams", err)
	}
	plain, err := db.Prepare("SELECT count(*) FROM reads")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(repro.NewInt(1)); !errors.Is(err, repro.ErrParams) {
		t.Errorf("a run value for a prepared statement without placeholders: err = %v, want ErrParams", err)
	}
}

// TestLiteralTextUnchanged checks what callers see of a literal query is
// the text the literal compile gives: RewriteInfo.SQL and EXPLAIN (less
// the params and band lines) equal the rewriter's own output for the
// statement as written, across the corpus and strategies.
func TestLiteralTextUnchanged(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules := e.RulePrefix(3)
	for qname, q := range corpusQueries(t, e) {
		for _, v := range bench.Variants() {
			t.Run(qname+"/"+v.Name, func(t *testing.T) {
				e.DB.ResetPlanCache()
				lit, err := e.DB.Rewriter.RewriteSQL(q, rules, v.Strat)
				if err != nil {
					t.Skipf("no rewrite: %v", err)
				}
				opts := []repro.QueryOption{repro.WithStrategy(v.Strat), repro.WithRules(rules...)}
				ri, err := e.DB.Rewrite(q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if ri.SQL() != lit.SQL {
					t.Errorf("RewriteInfo.SQL differs from the literal rewrite:\n got %s\nwant %s", ri.SQL(), lit.SQL)
				}
				plan, err := e.DB.Explain(q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				var kept []string
				for _, line := range strings.SplitAfter(plan, "\n") {
					if !strings.HasPrefix(line, "-- params:") && !strings.HasPrefix(line, "-- band ") {
						kept = append(kept, line)
					}
				}
				want := fmt.Sprintf("-- strategy: %s (est cost %.0f)\n-- %s\n", lit.Strategy, lit.EstCost, lit.SQL) + exec.Explain(lit.Plan)
				if got := strings.Join(kept, ""); got != want {
					t.Errorf("EXPLAIN differs from the literal plan:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestPreparedBuildReuseSkipsBoundSides runs a prepared join under two
// bindings of a predicate on its build side: each run builds its table
// under its own binding, so the second binding never sees the first
// one's rows.
func TestPreparedBuildReuseSkipsBoundSides(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT count(*) FROM caser c, locs l WHERE c.biz_loc = l.gln AND l.site = $1"
	p, err := e.DB.Prepare(q, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	sites, err := e.DB.Query("SELECT DISTINCT site FROM locs ORDER BY site", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{sites.Data[0][0].Str(), sites.Data[len(sites.Data)-1][0].Str(), sites.Data[0][0].Str()} {
		got, err := p.Run(repro.NewString(s))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.DB.Query(strings.Replace(q, "$1", "'"+s+"'", 1), repro.WithStrategy(repro.Dirty))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, want, got)
	}
}

// TestShapeKeepsZonePruning checks a cached shape prunes segments on the
// value of the binding it runs under, not the one it was planned with:
// a hit prunes exactly what a fresh compile of its value prunes.
func TestShapeKeepsZonePruning(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("z", repro.ColumnDef{Name: "k", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	batch := make([][]repro.Value, 70000)
	for i := range batch {
		batch[i] = []repro.Value{repro.NewInt(int64(i))}
	}
	if err := db.Insert("z", batch...); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("z"); err != nil {
		t.Fatal(err)
	}
	pruned := func(bound int, wantHit bool) string {
		t.Helper()
		hits := db.PlanCacheStats().Hits
		plan, err := db.ExplainAnalyze(fmt.Sprintf("SELECT count(*) FROM z WHERE k >= %d", bound))
		if err != nil {
			t.Fatal(err)
		}
		if hit := db.PlanCacheStats().Hits > hits; hit != wantHit {
			t.Fatalf("k >= %d: cache hit %v, want %v:\n%s", bound, hit, wantHit, plan)
		}
		i := strings.Index(plan, "pruned=")
		if i < 0 {
			t.Fatalf("no pruning reported:\n%s", plan)
		}
		return strings.Fields(plan[i:])[0]
	}
	planned := pruned(30000, false)
	hit := pruned(35000, true)
	db.ResetPlanCache()
	if fresh := pruned(35000, false); hit != fresh || hit == planned {
		t.Errorf("k >= 35000 pruned %s on the shape planned at 30000 (%s there), %s compiled fresh", hit, planned, fresh)
	}
}

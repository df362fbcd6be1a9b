package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// testDB builds a small catalog:
//
//	reads(epc string, rtime time, loc string, v int)   -- indexed on rtime, epc
//	locs(gln string, site string)                      -- indexed on gln
//	emptyt(x int)
//	view allreads = reads ∪ reads2 (reads2 has one extra row)
func testDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase()

	reads := storage.NewTable("reads", schema.New(
		schema.Col("reads", "epc", types.KindString),
		schema.Col("reads", "rtime", types.KindTime),
		schema.Col("reads", "loc", types.KindString),
		schema.Col("reads", "v", types.KindInt),
	))
	// epc e1: rtimes 10,20,30 at locA/locA/locB; epc e2: 15,25 at locB/locC.
	rows := []struct {
		epc string
		ts  int64
		loc string
		v   int64
	}{
		{"e1", 10, "locA", 1},
		{"e1", 20, "locA", 2},
		{"e1", 30, "locB", 3},
		{"e2", 15, "locB", 4},
		{"e2", 25, "locC", 5},
	}
	for _, r := range rows {
		reads.Append(schema.Row{
			types.NewString(r.epc), types.NewTime(r.ts * 1_000_000),
			types.NewString(r.loc), types.NewInt(r.v),
		})
	}
	reads.BuildIndex("rtime")
	reads.BuildIndex("epc")
	reads.Analyze()
	if err := db.AddTable(reads); err != nil {
		t.Fatal(err)
	}

	locs := storage.NewTable("locs", schema.New(
		schema.Col("locs", "gln", types.KindString),
		schema.Col("locs", "site", types.KindString),
	))
	locs.Append(
		schema.Row{types.NewString("locA"), types.NewString("dc1")},
		schema.Row{types.NewString("locB"), types.NewString("dc1")},
		schema.Row{types.NewString("locC"), types.NewString("dc2")},
	)
	locs.BuildIndex("gln")
	locs.Analyze()
	if err := db.AddTable(locs); err != nil {
		t.Fatal(err)
	}

	emptyt := storage.NewTable("emptyt", schema.New(schema.Col("emptyt", "x", types.KindInt)))
	emptyt.Analyze()
	if err := db.AddTable(emptyt); err != nil {
		t.Fatal(err)
	}

	reads2 := storage.NewTable("reads2", reads.Schema.Clone())
	reads2.Append(schema.Row{types.NewString("e3"), types.NewTime(99 * 1_000_000), types.NewString("locZ"), types.NewInt(9)})
	reads2.Analyze()
	if err := db.AddTable(reads2); err != nil {
		t.Fatal(err)
	}
	// A larger table where index scans actually pay off.
	bigt := storage.NewTable("bigt", schema.New(
		schema.Col("bigt", "id", types.KindInt),
		schema.Col("bigt", "grp", types.KindString),
	))
	for i := 0; i < 1000; i++ {
		bigt.Append(schema.Row{types.NewInt(int64(i)), types.NewString(string(rune('a' + i%26)))})
	}
	bigt.BuildIndex("id")
	bigt.Analyze()
	if err := db.AddTable(bigt); err != nil {
		t.Fatal(err)
	}

	uv, err := sqlparser.Parse("select * from reads union all select * from reads2")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView("allreads", uv); err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *catalog.Database, q string) *exec.Result {
	t.Helper()
	node, err := New(db).PlanSQL(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	res, err := exec.Run(exec.NewCtx(), node)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func planFor(t *testing.T, db *catalog.Database, q string) exec.Node {
	t.Helper()
	node, err := New(db).PlanSQL(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return node
}

func TestSimpleSelect(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select epc, v from reads where v >= 3")
	if len(res.Rows) != 3 || res.Schema.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectStarNoProjectionOverhead(t *testing.T) {
	db := testDB(t)
	node := planFor(t, db, "select * from reads where v = 1")
	if exec.CountNodes(node, "Project") != 0 {
		t.Fatalf("bare star should skip projection:\n%s", exec.Explain(node))
	}
	res := run(t, db, "select * from reads")
	if len(res.Rows) != 5 || res.Schema.Len() != 4 {
		t.Fatalf("star = %v", res.Rows)
	}
}

func TestIndexScanChosenForSelectivePredicate(t *testing.T) {
	db := testDB(t)
	node := planFor(t, db, "select * from bigt where id >= 10 and id < 20")
	if exec.CountNodes(node, "IndexScan") != 1 {
		t.Fatalf("expected index scan:\n%s", exec.Explain(node))
	}
	res := run(t, db, "select * from bigt where id >= 10 and id < 20")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// On a tiny table a sequential scan must win instead.
	small := planFor(t, db, "select * from reads where epc = 'e1'")
	if exec.CountNodes(small, "IndexScan") != 0 {
		t.Fatalf("tiny table should seq-scan:\n%s", exec.Explain(small))
	}
	// An unselective range keeps the sequential scan even on the big table.
	wide := planFor(t, db, "select * from bigt where id >= 0")
	if exec.CountNodes(wide, "IndexScan") != 0 {
		t.Fatalf("unselective range should seq-scan:\n%s", exec.Explain(wide))
	}
}

func TestIndexRangeScanWithResidual(t *testing.T) {
	db := testDB(t)
	q := "select * from reads where rtime >= timestamp '1970-01-01 00:00:15' and rtime <= timestamp '1970-01-01 00:00:25' and v <> 4"
	res := run(t, db, q)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCommaJoinWithHashJoin(t *testing.T) {
	db := testDB(t)
	q := "select r.epc, l.site from reads r, locs l where r.loc = l.gln and l.site = 'dc1'"
	node := planFor(t, db, q)
	if exec.CountNodes(node, "HashJoin") != 1 {
		t.Fatalf("expected hash join:\n%s", exec.Explain(node))
	}
	res := run(t, db, q)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAnsiJoinAndLeftJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select r.epc from reads r join locs l on r.loc = l.gln where l.site = 'dc2'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e2" {
		t.Fatalf("ansi join = %v", res.Rows)
	}
	res = run(t, db, "select l.gln, r.epc from locs l left join reads r on r.loc = l.gln and r.v > 100")
	if len(res.Rows) != 3 {
		t.Fatalf("left join = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if !row[1].IsNull() {
			t.Fatalf("left join must null-pad: %v", res.Rows)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select epc, count(*), sum(v), count(distinct loc) from reads group by epc")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	byEpc := map[string]schema.Row{}
	for _, r := range res.Rows {
		byEpc[r[0].Str()] = r
	}
	e1 := byEpc["e1"]
	if e1[1].Int() != 3 || e1[2].Int() != 6 || e1[3].Int() != 2 {
		t.Fatalf("e1 aggs = %v", e1)
	}
}

func TestHavingAndOrderByAggregate(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select epc, count(*) as c from reads group by epc having count(*) > 2 order by c desc")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e1" {
		t.Fatalf("having = %v", res.Rows)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select count(*), max(v), min(v) from reads")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].Int() != 5 || r[1].Int() != 5 || r[2].Int() != 1 {
		t.Fatalf("global aggs = %v", r)
	}
	// Aggregate over an empty table still yields one row.
	res = run(t, db, "select count(*), max(x) from emptyt")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", res.Rows)
	}
}

func TestWindowFunctionEndToEnd(t *testing.T) {
	db := testDB(t)
	q := `select epc, rtime, max(loc) over (partition by epc order by rtime rows between 1 preceding and 1 preceding) as prev_loc from reads`
	res := run(t, db, q)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// First read of each sequence has NULL prev_loc.
	nulls := 0
	for _, r := range res.Rows {
		if r[2].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Fatalf("expected 2 border rows, got %d: %v", nulls, res.Rows)
	}
}

func TestDuplicateFilterQueryFromPaperSection41(t *testing.T) {
	db := testDB(t)
	// The de-duplication statement of §4.1, adapted to this schema: e1 has
	// locations [locA locA locB] — the second locA is a duplicate.
	q := `with v1 as (
	        select epc, rtime, loc as loc_current,
	               max(loc) over (partition by epc order by rtime asc rows between 1 preceding and 1 preceding) as loc_before
	        from reads)
	      select * from v1 where loc_current <> loc_before or loc_before is null`
	res := run(t, db, q)
	if len(res.Rows) != 4 {
		t.Fatalf("dedup rows = %v", res.Rows)
	}
}

func TestWindowSortSharing(t *testing.T) {
	db := testDB(t)
	// Two window expressions with identical signatures share one sort.
	q := `select max(v) over (partition by epc order by rtime rows 1 preceding) a,
	             min(v) over (partition by epc order by rtime rows 1 preceding) b
	      from reads`
	node := planFor(t, db, q)
	if got := exec.CountNodes(node, "Sort"); got != 1 {
		t.Fatalf("expected 1 sort, got %d:\n%s", got, exec.Explain(node))
	}
	if got := exec.CountNodes(node, "Window"); got != 1 {
		t.Fatalf("expected 1 window node, got %d", got)
	}
	// A second signature forces a second sort.
	q2 := `select max(v) over (partition by epc order by rtime) a,
	              max(v) over (partition by loc order by rtime) b
	       from reads`
	node2 := planFor(t, db, q2)
	if got := exec.CountNodes(node2, "Sort"); got != 2 {
		t.Fatalf("expected 2 sorts, got %d:\n%s", got, exec.Explain(node2))
	}
}

func TestWindowReusesIndexOrderNotApplicable(t *testing.T) {
	db := testDB(t)
	// Index scan on epc yields epc order, but the window needs (epc,
	// rtime); a sort is still required.
	q := "select max(v) over (partition by epc order by rtime) m from reads where epc = 'e1'"
	node := planFor(t, db, q)
	if got := exec.CountNodes(node, "Sort"); got != 1 {
		t.Fatalf("sorts = %d:\n%s", got, exec.Explain(node))
	}
}

func TestInSubquery(t *testing.T) {
	db := testDB(t)
	q := "select epc, v from reads where loc in (select gln from locs where site = 'dc1')"
	res := run(t, db, q)
	if len(res.Rows) != 4 {
		t.Fatalf("in-subquery rows = %v", res.Rows)
	}
	// NOT IN.
	q = "select epc from reads where loc not in (select gln from locs where site = 'dc1')"
	res = run(t, db, q)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e2" {
		t.Fatalf("not-in rows = %v", res.Rows)
	}
}

func TestJoinBackShapeSemiJoinViaIn(t *testing.T) {
	db := testDB(t)
	// The join-back pattern: restrict to sequences containing a qualifying
	// read, then fetch the full sequences.
	q := `select r.* from reads r where r.epc in (select epc from reads where v = 3)`
	res := run(t, db, q)
	if len(res.Rows) != 3 {
		t.Fatalf("join-back rows = %v", res.Rows)
	}
}

func TestDistinctAndUnionView(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select distinct loc from reads")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct locs = %v", res.Rows)
	}
	res = run(t, db, "select epc from reads union select epc from reads")
	if len(res.Rows) != 2 {
		t.Fatalf("union dedups = %v", res.Rows)
	}
	res = run(t, db, "select * from allreads")
	if len(res.Rows) != 6 {
		t.Fatalf("view rows = %v", res.Rows)
	}
}

func TestPredicatePushdownThroughUnionView(t *testing.T) {
	db := testDB(t)
	q := "select * from allreads where epc = 'e3'"
	res := run(t, db, q)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e3" {
		t.Fatalf("view filter rows = %v", res.Rows)
	}
	// The predicate must reach the branch scans — fused into each branch's
	// Scan (or a Filter directly above it), not sitting above the union.
	node := planFor(t, db, q)
	fused := exec.CountNodes(node, "Scan(reads | ") + exec.CountNodes(node, "Scan(reads2 | ")
	if got := exec.CountNodes(node, "Filter") + fused; got != 2 {
		t.Fatalf("predicate not pushed into union branches (pushed=%d):\n%s", got, exec.Explain(node))
	}
}

// TestCTEPlannedOnce: a CTE read under two aliases is one node run once,
// and each alias resolves its columns to its own side of the join.
func TestCTEPlannedOnce(t *testing.T) {
	db := testDB(t)
	q := `with big as (select epc, v from reads where v > 1)
	      select a.epc, a.v, b.v from big a, big b where a.epc = b.epc and a.v = 2 and b.v = 3`
	node := planFor(t, db, q)
	ctx := exec.NewAnalyzeCtx()
	res, err := exec.Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e1" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Int() != 3 {
		t.Fatalf("cte self-join = %v, want [e1 2 3]", res.Rows)
	}
	var names []string
	for _, c := range res.Schema.Columns {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "epc,v,v" {
		t.Fatalf("columns = %s, want epc,v,v", got)
	}
	// The body is the one node with two parents; it ran once and served
	// the second reference from the statement cache.
	parents := map[exec.Node]int{}
	var walk func(exec.Node)
	walk = func(n exec.Node) {
		for _, c := range n.Children() {
			if parents[c]++; parents[c] == 1 {
				walk(c)
			}
		}
	}
	walk(node)
	var shared []exec.Node
	for n, k := range parents {
		if k > 1 {
			shared = append(shared, n)
		}
	}
	if len(shared) != 1 {
		t.Fatalf("%d shared nodes, want the CTE body alone:\n%s", len(shared), exec.Explain(node))
	}
	if st := ctx.Stats(shared[0]); st == nil || st.Hits != 1 {
		t.Fatalf("CTE body stats = %+v, want one cache hit:\n%s", st, exec.ExplainAnalyze(node, ctx))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select v from reads order by v desc limit 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 5 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("order/limit = %v", res.Rows)
	}
}

func TestAvgIntervalDwellPattern(t *testing.T) {
	db := testDB(t)
	// The q1 "dwell" shape: avg over TIME differences.
	q := `with v1 as (
	        select rtime, max(rtime) over (partition by epc order by rtime rows between 1 preceding and 1 preceding) as prev
	        from reads)
	      select avg(rtime - prev) from v1 where prev is not null`
	res := run(t, db, q)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Gaps: e1 10,10; e2 10 seconds → avg 10s.
	if v := res.Rows[0][0]; v.Kind() != types.KindInterval || v.IntervalUsec() != 10*1_000_000 {
		t.Fatalf("avg dwell = %v (%s)", v, v.Kind())
	}
}

func TestPlanErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"select * from nosuch",
		"select nosuchcol from reads",
		"select r.epc from reads r, locs l where loc2 = 1",
		"select epc from reads group by epc having nosuch > 1",
		"select v, epc from reads group by epc", // v not grouped
		"select * from reads group by epc",
		"select max(v) over (partition by epc order by rtime range between 1 preceding and current row) from reads where 1 = 0 order by nosuch",
	}
	for _, q := range bad {
		if _, err := New(db).PlanSQL(q); err == nil {
			t.Errorf("PlanSQL(%q): expected error", q)
		}
	}
}

func TestAmbiguousColumnDetected(t *testing.T) {
	db := testDB(t)
	_, err := New(db).PlanSQL("select epc from reads a, reads b where v = 1")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguity not detected: %v", err)
	}
}

func TestExplainShowsEstimates(t *testing.T) {
	db := testDB(t)
	node := planFor(t, db, "select * from reads where epc = 'e1'")
	out := exec.Explain(node)
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "cost=") {
		t.Fatalf("explain = %s", out)
	}
}

func TestCostOrderingIndexVsSeq(t *testing.T) {
	db := testDB(t)
	sel := planFor(t, db, "select * from bigt where id < 50")
	all := planFor(t, db, "select * from bigt")
	if sel.EstCost() >= all.EstCost() {
		t.Fatalf("selective query should cost less: %v vs %v", sel.EstCost(), all.EstCost())
	}
}

func TestLikeOperator(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select epc from reads where loc like 'loc%'")
	if len(res.Rows) != 5 {
		t.Fatalf("like rows = %d", len(res.Rows))
	}
	res = run(t, db, "select distinct epc from reads where loc like '%B'")
	if len(res.Rows) != 2 {
		t.Fatalf("suffix like rows = %v", res.Rows)
	}
	res = run(t, db, "select epc from reads where loc like 'loc_' and loc not like 'locA'")
	if len(res.Rows) != 3 {
		t.Fatalf("underscore like rows = %d", len(res.Rows))
	}
	// NULL operand yields NULL, which WHERE drops.
	res = run(t, db, "select * from reads where null like 'x%'")
	if len(res.Rows) != 0 {
		t.Fatal("null like must not match")
	}
}

func TestExceptIntersect(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select loc from reads except select loc from reads where epc = 'e2'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "locA" {
		t.Fatalf("except = %v", res.Rows)
	}
	res = run(t, db, "select loc from reads intersect select gln from locs")
	if len(res.Rows) != 3 {
		t.Fatalf("intersect = %v", res.Rows)
	}
	// Set semantics: duplicates collapse even when both sides have them.
	res = run(t, db, "select epc from reads intersect select epc from reads")
	if len(res.Rows) != 2 {
		t.Fatalf("self intersect = %v", res.Rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select v from reads order by v limit 2 offset 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 3 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("limit offset = %v", res.Rows)
	}
	res = run(t, db, "select v from reads order by v offset 4")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("offset only = %v", res.Rows)
	}
	res = run(t, db, "select v from reads order by v offset 99")
	if len(res.Rows) != 0 {
		t.Fatalf("past-end offset = %v", res.Rows)
	}
}

func TestStringFunctions(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select upper(loc), lower(loc), substr(loc, 4), substr(loc, 1, 3) from reads where epc = 'e1' and v = 1")
	r := res.Rows[0]
	if r[0].Str() != "LOCA" || r[1].Str() != "loca" || r[2].Str() != "A" || r[3].Str() != "loc" {
		t.Fatalf("string funcs = %v", r)
	}
}

func TestOrderByNonProjectedColumn(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select epc from reads order by rtime desc limit 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "e1" || res.Rows[1][0].Str() != "e2" {
		t.Fatalf("order by non-projected = %v", res.Rows)
	}
	// Alias-based ORDER BY still works.
	res = run(t, db, "select v * 2 as dv from reads order by dv desc limit 1")
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("order by alias = %v", res.Rows)
	}
	// A name that is both an alias and an input column resolves to the
	// input column.
	res = run(t, db, "select v + 100 as v from reads order by v limit 1")
	if res.Rows[0][0].Int() != 101 {
		t.Fatalf("alias/input collision = %v", res.Rows)
	}
	// Aggregated queries keep working (ORDER BY over aggregates).
	res = run(t, db, "select epc, sum(v) s from reads group by epc order by s desc limit 1")
	if res.Rows[0][0].Str() != "e2" {
		t.Fatalf("order by aggregate = %v", res.Rows)
	}
}

package repro_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The quickstart flow: build a table by hand, define a rule, query with
// cleansing.
func TestQuickstartFlow(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	at := func(min int64) repro.Value {
		return repro.Value(timeValue(min))
	}
	rows := [][]repro.Value{
		{stringValue("e1"), at(0), stringValue("dock")},
		{stringValue("e1"), at(2), stringValue("dock")}, // duplicate within 5 min
		{stringValue("e1"), at(90), stringValue("shelf")},
	}
	if err := db.Insert("reads", rows...); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("reads", "rtime"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("reads"); err != nil {
		t.Fatal(err)
	}
	info, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Template, "$input") {
		t.Errorf("template = %s", info.Template)
	}

	dirty, err := db.Query("SELECT count(*) FROM reads", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Data[0][0].Int() != 3 {
		t.Fatalf("dirty count = %v", dirty.Data)
	}
	clean, err := db.Query("SELECT count(*) FROM reads")
	if err != nil {
		t.Fatal(err)
	}
	if clean.Data[0][0].Int() != 2 {
		t.Fatalf("cleansed count = %v (rewrite: %s)", clean.Data, clean.Rewrite.SQL())
	}
	if clean.Rewrite.Strategy == repro.Dirty {
		t.Error("cleansing should have applied")
	}
}

func TestWorkloadAndPaperRules(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 2, AnomalyPct: 10, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	names, err := db.DefinePaperRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("rules = %v", names)
	}
	// Rewrite inspection.
	ri, err := db.Rewrite("SELECT count(*) FROM caser", repro.WithStrategy(repro.JoinBack))
	if err != nil {
		t.Fatal(err)
	}
	if ri.Strategy != repro.JoinBack || !strings.Contains(ri.SQL(), "__missing_r2_flag_0") {
		t.Errorf("rewrite = %+v", ri.Strategy)
	}
	// Explain output.
	plan, err := db.Explain("SELECT count(*) FROM caser", repro.WithRules("reader"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy:", "Window", "rows="} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain missing %q:\n%s", want, plan)
		}
	}
	// Expanded conditions (Table 1 machinery) through the facade.
	cc, err := db.ExpandedConditions("SELECT * FROM caser WHERE rtime <= TIMESTAMP '2026-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if cc["cycle"] != "{}" {
		t.Errorf("cycle condition = %q", cc["cycle"])
	}
	if !strings.Contains(cc["reader"], "readerX") {
		t.Errorf("reader condition = %q", cc["reader"])
	}
}

func TestFacadeErrors(t *testing.T) {
	db := repro.Open()
	if err := db.Insert("nosuch"); err == nil {
		t.Error("insert into missing table")
	}
	if err := db.BuildIndex("nosuch", "x"); err == nil {
		t.Error("index on missing table")
	}
	if err := db.Analyze("nosuch"); err == nil {
		t.Error("analyze missing table")
	}
	if _, err := db.DefinePaperRules(); err == nil {
		t.Error("paper rules without workload")
	}
	if _, err := db.DefineRule("DEFINE broken"); err == nil {
		t.Error("broken rule source")
	}
	if _, err := db.Query("SELECT * FROM nosuch"); err == nil {
		t.Error("query on missing table")
	}
	if err := db.CreateView("v", "not sql"); err == nil {
		t.Error("bad view sql")
	}
}

func stringValue(s string) repro.Value {
	return repro.Value(mustValue("string", s))
}

func intValue(v int64) repro.Value {
	return repro.NewInt(v)
}

func timeValue(min int64) repro.Value {
	return repro.Value(mustValue("time", min))
}

// mustValue builds values without importing internal/types in examples and
// tests of the public API; the facade re-exports the Value type itself.
func mustValue(kind string, v any) repro.Value {
	switch kind {
	case "string":
		return repro.NewString(v.(string))
	case "time":
		return repro.NewTime(time.Unix(v.(int64)*60, 0).UTC())
	}
	panic("unknown kind")
}

func TestExplainAnalyze(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainAnalyze("SELECT count(*) FROM caser", repro.WithRules("reader"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual rows=", "time=", "est rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

// The paper's hybrid model: cleanse shared anomalies eagerly, keep the
// application-specific ones deferred.
func TestMaterializeCleansed(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 20, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	before, _ := db.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	n, err := db.MaterializeCleansed("caser", "caser_dedup", "duplicate")
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) >= before.Data[0][0].Int() {
		t.Errorf("eager cleansing removed nothing: %d vs %v", n, before.Data[0][0])
	}
	after, err := db.Query("SELECT count(*) FROM caser_dedup", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if after.Data[0][0].Int() != int64(n) {
		t.Errorf("materialized table count mismatch: %v vs %d", after.Data[0][0], n)
	}
	// Deferred duplicate-rule count over caser must equal the eager table.
	deferred, err := db.Query("SELECT count(*) FROM caser", repro.WithRules("duplicate"))
	if err != nil {
		t.Fatal(err)
	}
	if deferred.Data[0][0].Int() != int64(n) {
		t.Errorf("eager (%d) and deferred (%v) cleansing disagree", n, deferred.Data[0][0])
	}
	if _, err := db.MaterializeCleansed("nosuch", "x"); err == nil {
		t.Error("missing source must error")
	}
	if _, err := db.MaterializeCleansed("caser", "caser_dedup", "duplicate"); err == nil {
		t.Error("existing destination must error")
	}
}

func TestSaveOpenDirRoundTrip(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("SELECT count(*) FROM caser", repro.WithRules("reader", "duplicate"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := repro.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query("SELECT count(*) FROM caser", repro.WithRules("reader", "duplicate"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0][0].Int() != want.Data[0][0].Int() {
		t.Errorf("reloaded cleansed count = %v, want %v", got.Data[0][0], want.Data[0][0])
	}
	if _, err := repro.OpenDir(t.TempDir()); err == nil {
		t.Error("OpenDir on empty dir must fail")
	}
}

func TestPreparedQueries(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("SELECT count(*) FROM caser", repro.WithRules("reader", "duplicate"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Rewrite().Strategy == repro.Dirty {
		t.Fatal("prepared query should carry a cleansing rewrite")
	}
	first, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent reruns give identical answers.
	done := make(chan int64, 4)
	for i := 0; i < 4; i++ {
		go func() {
			r, err := p.Run()
			if err != nil {
				done <- -1
				return
			}
			done <- r.Data[0][0].Int()
		}()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; got != first.Data[0][0].Int() {
			t.Fatalf("concurrent run %d = %d, want %v", i, got, first.Data[0][0])
		}
	}
	if _, err := db.Prepare("select * from nosuch"); err == nil {
		t.Error("prepare of bad query must fail")
	}
}

// A statement without placeholders, prepared before a rule exists,
// applies the rule on its next run: each run resolves its plan through
// the plan cache, whose key the rule definition moved on.
func TestPreparedSeesLaterRules(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("reads",
		[]repro.Value{stringValue("e1"), timeValue(0), stringValue("dock")},
		[]repro.Value{stringValue("e1"), timeValue(2), stringValue("dock")},
		[]repro.Value{stringValue("e1"), timeValue(90), stringValue("shelf")},
	); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("SELECT count(*) FROM reads")
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := before.Data[0][0].Int(); n != 3 {
		t.Fatalf("count before the rule = %d, want 3", n)
	}
	if _, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}
	after, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Data[0][0].Int(); n != 2 {
		t.Errorf("count after the rule = %d, want 2 (rewrite %s: %s)", n, after.Rewrite.Strategy, after.Rewrite.SQL())
	}
	if after.Rewrite.Strategy == repro.Dirty || after.Rewrite.CacheHit {
		t.Errorf("run after the rule: strategy %s, cache hit %v; want a fresh cleansing plan", after.Rewrite.Strategy, after.Rewrite.CacheHit)
	}
	if got := p.Rewrite().Strategy; got != repro.Dirty {
		t.Errorf("Prepared.Rewrite() = %s, want the Prepare-time compile's dirty", got)
	}
}

func TestDryRunRule(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 2, AnomalyPct: 20, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	// The duplicate rule deletes injected duplicates.
	eff, err := db.DryRunRule("duplicate", 3)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Deleted == 0 || eff.Deleted != eff.Input-eff.Output {
		t.Errorf("duplicate effect = %+v", eff)
	}
	if len(eff.SampleDeleted) == 0 || len(eff.SampleDeleted) > 3 {
		t.Errorf("samples = %v", eff.SampleDeleted)
	}
	if eff.Modified != 0 {
		t.Errorf("duplicate rule should not modify: %+v", eff)
	}
	// The replacing rule modifies rather than deletes.
	eff, err = db.DryRunRule("replacing", 3)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Modified == 0 || eff.Deleted != 0 {
		t.Errorf("replacing effect = %+v", eff)
	}
	if len(eff.SampleModified) == 0 || !strings.Contains(eff.SampleModified[0], "→") {
		t.Errorf("modified samples = %v", eff.SampleModified)
	}
	// Dry runs never change the table.
	before, _ := db.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	db.DryRunRule("reader", 1)
	after, _ := db.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	if before.Data[0][0].Int() != after.Data[0][0].Int() {
		t.Error("dry run mutated the table")
	}
	if _, err := db.DryRunRule("nosuch", 1); err == nil {
		t.Error("unknown rule must error")
	}
}

// A prepared join over a dimension table sees rows inserted into it
// between runs.
func TestPreparedJoinSeesDimensionChanges(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("fact",
		repro.ColumnDef{Name: "k", Kind: repro.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dim",
		repro.ColumnDef{Name: "k", Kind: repro.KindInt},
		repro.ColumnDef{Name: "label", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("fact", []repro.Value{intValue(1)}, []repro.Value{intValue(2)}, []repro.Value{intValue(3)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("dim",
		[]repro.Value{intValue(1), stringValue("one")},
		[]repro.Value{intValue(2), stringValue("two")},
	); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("select fact.k, dim.label from fact, dim where fact.k = dim.k order by fact.k")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("first run rows = %d", len(rows.Data))
	}
	// Rerun without changes: same answer.
	rows, err = p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rerun rows = %d", len(rows.Data))
	}
	// Grow the dimension table; the next run must include the new match.
	if err := db.Insert("dim", []repro.Value{intValue(3), stringValue("three")}); err != nil {
		t.Fatal(err)
	}
	rows, err = p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 3 {
		t.Fatalf("post-insert rows = %d, want 3", len(rows.Data))
	}
	if got := rows.Data[2][1].Str(); got != "three" {
		t.Fatalf("new dimension row label = %q", got)
	}
}

// A prepared join executes like a query: traced, every operator of its
// second run records the rows it recorded on its first, the build side's
// scan included, and the same rows as an ad-hoc query of the statement.
func TestPreparedJoinTracesLikeAQuery(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("fact", repro.ColumnDef{Name: "k", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dim",
		repro.ColumnDef{Name: "k", Kind: repro.KindInt},
		repro.ColumnDef{Name: "label", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	for i := range 6 {
		if err := db.Insert("fact", []repro.Value{intValue(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("dim",
		[]repro.Value{intValue(1), stringValue("one")},
		[]repro.Value{intValue(2), stringValue("two")},
		[]repro.Value{intValue(5), stringValue("five")},
	); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT fact.k, dim.label FROM fact, dim WHERE fact.k = dim.k"
	opts := []repro.QueryOption{repro.WithTrace(nil), repro.WithParallelism(1)}
	operatorRows := func(rows *repro.Rows) string {
		t.Helper()
		tr := rows.Trace()
		if tr == nil || tr.Find("execute") == nil {
			t.Fatal("traced run has no execute span")
		}
		var b strings.Builder
		tr.Find("execute").Walk(func(depth int, sp *obs.Span) {
			n, _ := sp.Attr("rows")
			fmt.Fprintf(&b, "%*s%s rows=%s\n", 2*depth, "", sp.Name, n)
		})
		return b.String()
	}
	p, err := db.Prepare(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var runs []string
	for range 2 {
		rows, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, operatorRows(rows))
	}
	adHoc, err := db.Query(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := operatorRows(adHoc)
	if !strings.Contains(want, "Scan(dim) rows=3") {
		t.Fatalf("query trace lacks the build scan's rows:\n%s", want)
	}
	for i, got := range runs {
		if got != want {
			t.Errorf("prepared run %d records other operator rows than the query\nprepared:\n%squery:\n%s", i+1, got, want)
		}
	}
}

// Zone-map pruning is observable: a selective range predicate over a
// multi-segment table skips segments, and EXPLAIN ANALYZE reports the
// considered/pruned counts on the fused scan.
func TestExplainAnalyzeShowsSegmentPruning(t *testing.T) {
	// Pin the sealing threshold so the segment/pruned counts below hold
	// under any REPRO_SEGMENT_ROWS the process was started with.
	old := storage.DefaultSegmentRows
	storage.DefaultSegmentRows = 64
	t.Cleanup(func() { storage.DefaultSegmentRows = old })

	db := repro.Open()
	if err := db.CreateTable("seg", repro.ColumnDef{Name: "a", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	// Three full 64-row segments plus a 20-row tail.
	n := 3*64 + 20
	rows := make([][]repro.Value, n)
	for i := range rows {
		rows[i] = []repro.Value{intValue(int64(i))}
	}
	if err := db.Insert("seg", rows...); err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainAnalyze("select count(*) from seg where a >= 130")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Scan(seg | a >= 130") {
		t.Fatalf("predicate not fused into the scan:\n%s", out)
	}
	// Segments [0,64) and [64,128) prune; [128,192) and the tail survive.
	if !strings.Contains(out, "segments=4 pruned=2") {
		t.Fatalf("analyze output missing pruning counts:\n%s", out)
	}
	// The answer is unaffected: rows 130..211 survive.
	res, err := db.Query("select count(*) from seg where a >= 130")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Data[0][0].Int(); got != int64(n-130) {
		t.Fatalf("count = %d, want %d", got, n-130)
	}
}

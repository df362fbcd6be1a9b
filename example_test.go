package repro_test

import (
	"fmt"
	"strings"
	"time"

	"repro"
)

// Example shows the core deferred-cleansing loop: a rule is defined once,
// and every query is rewritten to answer over cleansed data without the
// stored table changing.
func Example() {
	db := repro.Open()
	db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	)
	t0 := time.Date(2026, 7, 4, 9, 0, 0, 0, time.UTC)
	db.Insert("reads",
		[]repro.Value{repro.NewString("e1"), repro.NewTime(t0), repro.NewString("dock")},
		[]repro.Value{repro.NewString("e1"), repro.NewTime(t0.Add(2 * time.Minute)), repro.NewString("dock")},
		[]repro.Value{repro.NewString("e1"), repro.NewTime(t0.Add(90 * time.Minute)), repro.NewString("shelf")},
	)
	db.Analyze("reads")
	db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`)

	dirty, _ := db.Query("SELECT count(*) FROM reads", repro.WithStrategy(repro.Dirty))
	clean, _ := db.Query("SELECT count(*) FROM reads")
	fmt.Println("dirty:", dirty.Data[0][0])
	fmt.Println("clean:", clean.Data[0][0])
	// Output:
	// dirty: 3
	// clean: 2
}

// ExampleDB_Rewrite inspects the SQL a rewrite produces instead of running
// it — useful for understanding what the engine will submit.
func ExampleDB_Rewrite() {
	db := repro.Open()
	db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "reader", Kind: repro.KindString},
	)
	db.Analyze("reads")
	db.DefineRule(`DEFINE reader ON reads
		AS (A, *B) WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 10 mins
		ACTION DELETE A`)

	info, _ := db.Rewrite(
		"SELECT count(*) FROM reads WHERE rtime <= TIMESTAMP '2026-01-01'",
		repro.WithStrategy(repro.Expanded))
	fmt.Println("strategy:", info.Strategy)
	// The pushed predicate is the query bound relaxed by the rule's
	// 10-minute correlation window.
	fmt.Println("widened:", strings.Contains(info.SQL(), "2026-01-01 00:09:59.999999"))
	// Output:
	// strategy: expanded
	// widened: true
}

// ExampleDB_ExpandedConditions reproduces the paper's Table-1 analysis for
// one rule and one query.
func ExampleDB_ExpandedConditions() {
	db := repro.Open()
	db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	)
	db.Analyze("reads")
	db.DefineRule(`DEFINE cycle ON reads
		AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc <> B.biz_loc
		ACTION DELETE B`)
	cc, _ := db.ExpandedConditions("SELECT * FROM reads WHERE rtime <= TIMESTAMP '2026-01-01'")
	fmt.Println("cycle:", cc["cycle"])
	// Output:
	// cycle: {}
}

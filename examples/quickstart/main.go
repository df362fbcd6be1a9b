// Quickstart: define a cleansing rule on a hand-built reads table and see
// deferred cleansing change a query's answer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	db := repro.Open()

	// A tiny reads table: tag e1 is read twice at the dock within two
	// minutes (a duplicate read — the reader at the dock chattered), then
	// at the shelf an hour and a half later.
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		log.Fatal(err)
	}
	t0 := time.Date(2026, 7, 4, 9, 0, 0, 0, time.UTC)
	read := func(epc string, offset time.Duration, loc string) []repro.Value {
		return []repro.Value{repro.NewString(epc), repro.NewTime(t0.Add(offset)), repro.NewString(loc)}
	}
	if err := db.Insert("reads",
		read("e1", 0, "dock"),
		read("e1", 2*time.Minute, "dock"), // duplicate
		read("e1", 90*time.Minute, "shelf"),
		read("e2", 10*time.Minute, "dock"),
	); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndex("reads", "rtime"); err != nil {
		log.Fatal(err)
	}
	if err := db.Analyze("reads"); err != nil {
		log.Fatal(err)
	}

	// The duplicate rule from §4.3 of the paper, in extended SQL-TS: two
	// adjacent reads of the same tag at the same location within five
	// minutes — drop the second.
	rule, err := db.DefineRule(`
		DEFINE dedup ON reads
		AS (A, B)
		WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rule compiled to SQL/OLAP template:")
	fmt.Println(" ", rule.Template)

	// The same query, dirty vs cleansed.
	const q = "SELECT epc, count(*) FROM reads GROUP BY epc"
	dirty, err := db.Query(q, repro.WithStrategy(repro.Dirty))
	if err != nil {
		log.Fatal(err)
	}
	clean, err := db.Query(q) // default: Auto strategy, all rules
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncounts over dirty data:   ", render(dirty))
	fmt.Println("counts after cleansing:   ", render(clean))
	fmt.Println("\nchosen strategy:", clean.Rewrite.Strategy)
	fmt.Println("rewritten SQL:  ", clean.Rewrite.SQL())
}

func render(r *repro.Rows) string {
	out := ""
	for _, row := range r.Data {
		out += fmt.Sprintf("%s=%s ", row[0].Str(), row[1])
	}
	return out
}

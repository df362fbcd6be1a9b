package repro_test

// Indexes cover a prefix: an index answers for the rows that existed
// when it was built, and every read through it also checks the rows
// appended since. These tests pin that an indexed predicate sees every
// row an unindexed one does — after Insert, after Ingest, under random
// append/BuildIndex interleavings, and before and after a WAL reopen.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
)

// mkLocReads creates a reads table with the three indexable columns the
// cleansing queries filter on.
func mkLocReads(t *testing.T, db *repro.DB, name string) {
	t.Helper()
	if err := db.CreateTable(name,
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
}

// locRead is row i of the generated reads: 50 EPCs, 60 read times a
// second apart, 40 locations, each cycling so that every segment of 60
// rows or more spans its column's whole range and no zone map can steer
// the planner off the index.
func locRead(i int) []repro.Value {
	return []repro.Value{
		repro.NewString(fmt.Sprintf("e%03d", i%50)),
		repro.NewTime(time.Unix(1_600_000_000+int64(i%60), 0).UTC()),
		repro.NewString(fmt.Sprintf("loc%02d", i%40)),
	}
}

func locReads(from, n int) [][]repro.Value {
	rows := make([][]repro.Value, n)
	for i := range rows {
		rows[i] = locRead(from + i)
	}
	return rows
}

// sortedRows runs q and returns its rows rendered and sorted, so results
// compare as multisets.
func sortedRows(t *testing.T, db *repro.DB, q string) []string {
	t.Helper()
	res, err := db.Query(q, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(res.Data))
	for i, r := range res.Data {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.SQL()
		}
		out[i] = strings.Join(cells, ",")
	}
	sort.Strings(out)
	return out
}

// TestIndexSeesRowsAppendedAfterBuild appends one row after BuildIndex,
// through Insert and through Ingest, and looks it up by each indexed
// column: the plan reads the index, and the new row is in the answer.
// Its values fall inside every column's range but match no other row.
func TestIndexSeesRowsAppendedAfterBuild(t *testing.T) {
	late := []repro.Value{
		repro.NewString("e024z"),
		repro.NewTime(time.Unix(1_600_000_024, 5e8).UTC()),
		repro.NewString("loc19z"),
	}
	for _, path := range []string{"Insert", "Ingest"} {
		for ord, col := range []string{"epc", "rtime", "biz_loc"} {
			t.Run(path+"/"+col, func(t *testing.T) {
				db := repro.Open()
				defer db.Close()
				mkLocReads(t, db, "reads")
				if err := db.Insert("reads", locReads(0, 5000)...); err != nil {
					t.Fatal(err)
				}
				if err := db.BuildIndex("reads", col); err != nil {
					t.Fatal(err)
				}
				appendRows := db.Insert
				if path == "Ingest" {
					appendRows = db.Ingest
				}
				if err := appendRows("reads", late); err != nil {
					t.Fatal(err)
				}
				q := fmt.Sprintf("SELECT epc FROM reads WHERE %s = %s", col, late[ord].SQL())
				plan, err := db.Explain(q, repro.WithStrategy(repro.Dirty))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "IndexScan(reads."+col+")") {
					t.Fatalf("plan does not read the index:\n%s", plan)
				}
				if got := sortedRows(t, db, q); len(got) != 1 || got[0] != "'e024z'" {
					t.Fatalf("%s = %v, want the appended row", q, got)
				}
			})
		}
	}
}

// TestIndexedMatchesUnindexedUnderAppends interleaves appends and index
// builds at random on one table, feeds the same rows to an unindexed twin,
// and checks that equality and range predicates on every column answer
// alike after each step.
func TestIndexedMatchesUnindexedUnderAppends(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := repro.Open()
		mkLocReads(t, db, "ix")
		mkLocReads(t, db, "plain")
		n := 0
		for step := 0; step < 12; step++ {
			if rng.Intn(3) == 0 {
				col := []string{"epc", "rtime", "biz_loc"}[rng.Intn(3)]
				if err := db.BuildIndex("ix", col); err != nil {
					t.Fatal(err)
				}
				continue
			}
			batch := locReads(n, 1+rng.Intn(3000))
			n += len(batch)
			for _, tab := range []string{"ix", "plain"} {
				if err := db.Ingest(tab, batch...); err != nil {
					t.Fatal(err)
				}
			}
			r := locRead(rng.Intn(n))
			preds := []string{
				"epc = " + r[0].SQL(),
				"rtime = " + r[1].SQL(),
				"biz_loc = " + r[2].SQL(),
				"epc >= " + r[0].SQL() + " AND epc < 'e010'",
				"rtime > " + r[1].SQL(),
				"biz_loc = " + r[2].SQL() + " AND epc >= " + r[0].SQL(),
			}
			for _, p := range preds {
				want := sortedRows(t, db, "SELECT epc, rtime, biz_loc FROM plain WHERE "+p)
				got := sortedRows(t, db, "SELECT epc, rtime, biz_loc FROM ix WHERE "+p)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("seed %d step %d: %s: indexed %d rows, unindexed %d", seed, step, p, len(got), len(want))
				}
			}
		}
		db.Close()
	}
}

// TestIndexedAnswerSurvivesReopen asks the same indexed question of a
// durable DB before close and after reopen — recovery rebuilds the index
// over every row, so a stale index would answer differently.
func TestIndexedAnswerSurvivesReopen(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkLocReads(t, db, "reads")
	if err := db.Ingest("reads", locReads(0, 5000)...); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("reads", "epc"); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("reads", locReads(5000, 300)...); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT epc, rtime FROM reads WHERE epc = 'e007'",
		"SELECT epc, rtime FROM reads WHERE biz_loc = 'loc07' AND epc >= 'e040'",
	}
	before := make([][]string, len(queries))
	for i, q := range queries {
		before[i] = sortedRows(t, db, q)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurableDB(t, wal)
	defer db2.Close()
	for i, q := range queries {
		after := sortedRows(t, db2, q)
		if strings.Join(before[i], "\n") != strings.Join(after, "\n") {
			t.Fatalf("%s: %d rows before close, %d after reopen", q, len(before[i]), len(after))
		}
	}
}

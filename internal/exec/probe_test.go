package exec_test

// Key-driven index access, end to end through the planner: which plain
// scans turn the keys bound above them into index probes, which read the
// whole table, and that either way the answer is the row path's.

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

const probeRows = 4096

// probeDB builds t(id int, k int, s string, f float) — probeRows rows,
// eight per k, indexed on k, s and f — and the small key tables the
// queries draw from: keys (k 1..3), nullk (NULL and 1), fkeys (FLOAT 1, 2).
func probeDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase()
	add := func(tab *storage.Table, rows []schema.Row, indexed ...string) {
		t.Helper()
		if err := tab.Append(rows...); err != nil {
			t.Fatal(err)
		}
		for _, col := range indexed {
			if err := tab.BuildIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		tab.Analyze()
		if err := db.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var rows []schema.Row
	for i := 0; i < probeRows; i++ {
		k := int64(i % (probeRows / 8))
		rows = append(rows, schema.Row{types.NewInt(int64(i)), types.NewInt(k), types.NewString(fmt.Sprintf("s%04d", k)), types.NewFloat(float64(k))})
	}
	add(storage.NewTable("t", schema.New(
		schema.Col("t", "id", types.KindInt), schema.Col("t", "k", types.KindInt),
		schema.Col("t", "s", types.KindString), schema.Col("t", "f", types.KindFloat),
	)), rows, "k", "s", "f")
	rows = nil
	for k := int64(1); k <= 3; k++ {
		rows = append(rows, schema.Row{types.NewInt(k), types.NewString(fmt.Sprintf("s%04d", k)), types.NewFloat(float64(k))})
	}
	add(storage.NewTable("keys", schema.New(
		schema.Col("keys", "k", types.KindInt), schema.Col("keys", "s", types.KindString), schema.Col("keys", "f", types.KindFloat),
	)), rows)
	add(storage.NewTable("nullk", schema.New(schema.Col("nullk", "k", types.KindInt))),
		[]schema.Row{{types.Null}, {types.NewInt(1)}})
	add(storage.NewTable("fkeys", schema.New(schema.Col("fkeys", "x", types.KindFloat))),
		[]schema.Row{{types.NewFloat(1)}, {types.NewFloat(2)}})
	return db
}

// scanOfT finds the plan's scan of t.
func scanOfT(n exec.Node) *exec.ScanNode {
	if s, ok := n.(*exec.ScanNode); ok && s.Table.Name == "t" {
		return s
	}
	for _, c := range n.Children() {
		if s := scanOfT(c); s != nil {
			return s
		}
	}
	return nil
}

// runProbe plans q, runs it vectorized with stats under res (nil for
// unbounded), checks the answer against the row path's, and returns the
// stats of the scan of t.
func runProbe(t *testing.T, db *catalog.Database, q string, res func() *govern.Resources) exec.NodeStats {
	t.Helper()
	node, err := plan.New(db).PlanSQL(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	run := func(vec bool) (*exec.Result, *exec.NodeStats) {
		ctx := exec.NewAnalyzeCtx().SetVectorize(vec)
		if res != nil {
			ctx.SetResources(res())
		}
		r, err := exec.Run(ctx, node)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		st := ctx.Stats(scanOfT(node))
		if st == nil {
			t.Fatalf("%s: no stats for the scan of t", q)
		}
		return r, st
	}
	want, _ := run(false)
	got, st := run(true)
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("%s: vectorized rows differ from the row path's\nvector: %v\nrow:    %v", q, got.Rows, want.Rows)
	}
	return *st
}

func TestScanProbesBoundKeys(t *testing.T) {
	db := probeDB(t)
	for _, tc := range []struct{ name, q string }{
		{"semi-join filter", "SELECT id FROM t WHERE k IN (SELECT k FROM keys)"},
		{"semi-join on a string column", "SELECT id FROM (SELECT * FROM t) u WHERE s IN (SELECT s FROM keys)"},
		{"inner join build keys", "SELECT t.id, keys.s FROM t, keys WHERE t.k = keys.k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runProbe(t, db, tc.q, nil)
			if st.Probe != 3 || st.Rows != 3*8 {
				t.Fatalf("scan of t: probe=%d rows=%d, want probe=3 rows=24", st.Probe, st.Rows)
			}
		})
	}
}

// One plan node run twice builds its table twice, and each build hands
// its keys to the scan: the plan keeps no state between executions.
func TestScanProbesCachedBuildKeys(t *testing.T) {
	node, err := plan.New(probeDB(t)).PlanSQL("SELECT t.id, keys.s FROM t, keys WHERE t.k = keys.k")
	if err != nil {
		t.Fatal(err)
	}
	join, ok := node.Children()[0].(*exec.HashJoinNode)
	if !ok {
		t.Fatalf("no hash join under the projection (plan:\n%s)", exec.Explain(node))
	}
	for run := 0; run < 2; run++ {
		ctx := exec.NewAnalyzeCtx()
		if _, err := exec.Run(ctx, node); err != nil {
			t.Fatal(err)
		}
		if st := ctx.Stats(join.Right); st == nil || st.Rows != 3 {
			t.Fatalf("run %d: build side of the join did not run and return 3 rows: %+v", run, st)
		}
		if st := ctx.Stats(scanOfT(node)); st.Probe != 3 || st.Rows != 3*8 {
			t.Fatalf("run %d: scan of t: probe=%d rows=%d, want probe=3 rows=24", run, st.Probe, st.Rows)
		}
	}
}

// A probed scan hands the stages and breakers above it a few rows; the
// vectors they evaluate expressions into are sized to those rows, not to
// a full MorselSize chunk, so a lookup allocates for what it reads.
func TestProbedOperatorsAllocateForTheRowsTheyGet(t *testing.T) {
	db := probeDB(t)
	for _, q := range []string{
		"SELECT t.id + 1, keys.s FROM t, keys WHERE t.k = keys.k ORDER BY t.id + 1",
		"SELECT id, SUM(id + 1) OVER (PARTITION BY k ORDER BY id) FROM t WHERE k IN (SELECT k FROM keys)",
	} {
		node, err := plan.New(db).PlanSQL(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		run := func() {
			if _, err := exec.Run(exec.NewCtx().SetVectorize(true), node); err != nil {
				t.Fatalf("exec %q: %v", q, err)
			}
		}
		run()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		// One vector a full chunk wide.
		limit := uint64(exec.MorselSize) * uint64(unsafe.Sizeof(types.Value{}))
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
			t.Errorf("%s: %d bytes allocated per run over 24 probed rows, want at most %d\n%s", q, per, limit, exec.Explain(node))
		}
	}
}

func TestScanReadsWholeTableWithoutUsableKeys(t *testing.T) {
	db := probeDB(t)
	grace := func() *govern.Resources { return govern.NewResources(1, true, t.TempDir(), govern.Inject{}) }
	for _, tc := range []struct {
		name, q string
		res     func() *govern.Resources
	}{
		{"NOT IN", "SELECT id FROM t WHERE k NOT IN (SELECT k FROM keys)", nil},
		{"IN under OR", "SELECT id FROM t WHERE k IN (SELECT k FROM keys) OR id = 5", nil},
		{"LEFT join", "SELECT t.id, keys.s FROM t LEFT JOIN keys ON t.k = keys.k", nil},
		{"NULL key", "SELECT id FROM t WHERE k IN (SELECT k FROM nullk)", nil},
		{"INT column, FLOAT keys", "SELECT id FROM t WHERE k IN (SELECT x FROM fkeys)", nil},
		{"FLOAT column", "SELECT id FROM t WHERE f IN (SELECT f FROM keys)", nil},
		{"too many matches", "SELECT id FROM t WHERE k IN (SELECT k FROM t WHERE id < 1024)", nil},
		{"grace build", "SELECT t.id, keys.s FROM t, keys WHERE t.k = keys.k", grace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runProbe(t, db, tc.q, tc.res)
			if st.Probe != 0 || st.Rows != probeRows {
				t.Fatalf("scan of t: probe=%d rows=%d, want the whole table (probe=0 rows=%d)", st.Probe, st.Rows, probeRows)
			}
		})
	}
}

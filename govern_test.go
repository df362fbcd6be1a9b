// Tests for the resource-governance layer as the public API exposes it:
// memory budgets that degrade to spilling with bit-identical answers,
// panic isolation between concurrent queries, spill-file cleanup under
// cancellation, and admission control. Budget failures with spilling off
// and the plan-cache eviction that follows are rows of
// TestStatementLifecycle (statement_test.go).
package repro_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newGovernDB loads the paper's RFID workload at scale 1 (~1500 caseR
// rows) — the corpus the acceptance criteria run against.
func newGovernDB(t testing.TB, opts ...repro.Option) *repro.DB {
	t.Helper()
	db := repro.Open(opts...)
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return db
}

// Corpus queries whose working sets dwarf a tens-of-KiB budget: a full
// per-row sort, a grouped aggregation and an equi-join over caseR.
const (
	spillSortQuery  = `SELECT epc, rtime, biz_loc FROM caser ORDER BY rtime, epc, biz_loc`
	spillGroupQuery = `SELECT biz_loc, COUNT(*) AS c, MIN(rtime) AS first_seen FROM caser GROUP BY biz_loc ORDER BY c DESC, biz_loc`
	spillJoinQuery  = `SELECT a.epc, a.rtime, b.biz_loc FROM caser a JOIN caser b ON a.epc = b.epc AND a.rtime = b.rtime`
)

// The dedupe operators over caseR, each one hash grouping pass.
var spillDedupeQueries = []string{
	`SELECT DISTINCT epc, biz_step FROM caser`,
	`SELECT epc, biz_loc FROM caser UNION SELECT epc, biz_step FROM caser`,
	`SELECT epc, biz_step FROM caser EXCEPT SELECT epc, biz_step FROM caser WHERE biz_loc = 'loc1-special'`,
	`SELECT epc, biz_step FROM caser INTERSECT SELECT epc, biz_step FROM caser WHERE biz_loc = 'loc1-special'`,
}

func TestCorpusQueriesSpillBitIdentically(t *testing.T) {
	db := newGovernDB(t)
	for _, q := range append([]string{spillSortQuery, spillGroupQuery, spillJoinQuery}, spillDedupeQueries...) {
		want, err := db.Query(q, repro.WithParallelism(1))
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		for _, par := range []int{1, 4} {
			got, err := db.Query(q, repro.WithMemoryLimit(32<<10), repro.WithParallelism(par))
			if err != nil {
				t.Fatalf("par=%d: budgeted run failed instead of spilling: %v", par, err)
			}
			if !got.Mem.Spilled() {
				t.Fatalf("par=%d: query under 32KiB budget did not spill (peak %d)", par, got.Mem.Peak)
			}
			if got.Mem.Limit != 32<<10 {
				t.Errorf("Mem.Limit = %d, want %d", got.Mem.Limit, 32<<10)
			}
			if got.Mem.Peak <= 0 || got.Mem.SpillBytes <= 0 {
				t.Errorf("empty accounting: %+v", got.Mem)
			}
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("par=%d: spilled result differs from in-memory result for %q", par, q)
			}
		}
	}
}

// TestOrderByNaNIsTotal: ORDER BY over a FLOAT column mixing NaN, ±0,
// ±Inf and integer-valued floats is a total order — NULLs first, −0 tied
// with +0, NaN above +Inf, ties in input order — so the rows come back
// the same serially, across four sort runs, and spilled.
func TestOrderByNaNIsTotal(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("m", repro.ColumnDef{Name: "id", Kind: repro.KindInt}, repro.ColumnDef{Name: "f", Kind: repro.KindFloat}); err != nil {
		t.Fatal(err)
	}
	fs := []float64{math.NaN(), 1, math.Inf(1), 0, -3, math.Copysign(0, -1), math.Inf(-1), 2, math.NaN(), 1e300}
	// rank is each value's place in the order; NULL is -1.
	rank := map[string]int{"-Inf": 0, "-3": 1, "0": 2, "-0": 2, "1": 3, "2": 4, "1e+300": 5, "+Inf": 6, "NaN": 7}
	var rows [][]repro.Value
	for i := 0; i < 6000; i++ {
		f := repro.NewFloat(fs[(i*7)%len(fs)])
		if i%13 == 0 {
			f = repro.Null
		}
		rows = append(rows, []repro.Value{repro.NewInt(int64(i)), f})
	}
	if err := db.Insert("m", rows...); err != nil {
		t.Fatal(err)
	}
	key := func(v repro.Value) int {
		if v.IsNull() {
			return -1
		}
		return rank[v.String()]
	}
	for _, q := range []struct {
		sql  string
		desc bool
	}{{"SELECT id, f FROM m ORDER BY f", false}, {"SELECT id, f FROM m ORDER BY f DESC", true}} {
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b []repro.Value) int {
			if q.desc {
				return cmp.Compare(key(b[1]), key(a[1]))
			}
			return cmp.Compare(key(a[1]), key(b[1]))
		})
		runs := []struct {
			name string
			opts []repro.QueryOption
		}{
			{"serial", []repro.QueryOption{repro.WithParallelism(1)}},
			{"parallel", []repro.QueryOption{repro.WithParallelism(4)}},
			{"spilled", []repro.QueryOption{repro.WithParallelism(4), repro.WithMemoryLimit(32 << 10)}},
		}
		for _, run := range runs {
			res, err := db.Query(q.sql, run.opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", q.sql, run.name, err)
			}
			if run.name == "spilled" && !res.Mem.Spilled() {
				t.Fatalf("%s: did not spill (peak %d)", q.sql, res.Mem.Peak)
			}
			for i, r := range res.Data {
				if r[0].Int() != want[i][0].Int() {
					t.Fatalf("%s %s: row %d is id %d (f %v), want id %d (f %v)", q.sql, run.name, i, r[0].Int(), r[1], want[i][0].Int(), want[i][1])
				}
			}
			if len(res.Data) != len(want) {
				t.Fatalf("%s %s: %d rows, want %d", q.sql, run.name, len(res.Data), len(want))
			}
		}
	}
}

func TestExplainAnalyzeAnnotatesSpill(t *testing.T) {
	db := newGovernDB(t)
	out, err := db.ExplainAnalyze(spillSortQuery, repro.WithMemoryLimit(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spilled=") {
		t.Errorf("EXPLAIN ANALYZE missing per-operator spilled= annotation:\n%s", out)
	}
	if !strings.Contains(out, "-- mem: peak=") || !strings.Contains(out, "limit=32.0 KiB") {
		t.Errorf("EXPLAIN ANALYZE missing mem trailer:\n%s", out)
	}
}

func TestInjectedPanicFailsOnlyItsQuery(t *testing.T) {
	db := newServingDB(t, 20000)
	const q = `SELECT epc, biz_loc, COUNT(*) AS c FROM reads GROUP BY epc, biz_loc ORDER BY c`
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := []repro.QueryOption{repro.WithParallelism(4)}
			if i == 0 {
				opts = append(opts, repro.WithFaults(repro.FaultInjection{WorkerPanic: true}))
			}
			_, errs[i] = db.Query(q, opts...)
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[0], repro.ErrInternal) {
		t.Fatalf("faulted query: err = %v, want ErrInternal", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("concurrent query %d failed alongside the panicking one: %v", i+1, err)
		}
	}
	// And the engine answers the next query normally.
	if _, err := db.Query(q); err != nil {
		t.Fatalf("engine broken after injected panic: %v", err)
	}
}

func TestCancelDuringSpillRemovesTempFiles(t *testing.T) {
	spillDir := t.TempDir()
	db := repro.Open(repro.WithSpillDir(spillDir))
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	rows := make([][]repro.Value, 50000)
	for i := range rows {
		rows[i] = []repro.Value{
			stringValue(fmt.Sprintf("e%05d", i%997)),
			timeValue(int64(i)),
			stringValue(fmt.Sprintf("loc%03d", i%53)),
		}
	}
	if err := db.Insert("reads", rows...); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT epc, rtime, biz_loc FROM reads ORDER BY rtime, epc, biz_loc`

	canceled := 0
	for _, delay := range []time.Duration{
		500 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(delay, cancel)
		_, err := db.QueryContext(ctx, q, repro.WithMemoryLimit(32<<10))
		cancel()
		if err != nil {
			if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("delay %v: err = %v, want ErrCanceled wrapping context.Canceled", delay, err)
			}
			canceled++
		}
		// Whether the query finished or died mid-merge, no spill files may
		// survive it.
		entries, rdErr := os.ReadDir(spillDir)
		if rdErr != nil {
			t.Fatal(rdErr)
		}
		if len(entries) != 0 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("delay %v: spill files leaked: %v", delay, names)
		}
	}
	if canceled == 0 {
		t.Error("no run was actually canceled; delays too generous for this machine")
	}
}

func TestAdmissionControlRejectsAndQueues(t *testing.T) {
	db := repro.Open(repro.WithMaxConcurrent(1), repro.WithAdmissionQueue(0))
	if err := db.CreateTable("kv", repro.ColumnDef{Name: "k", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("kv", []repro.Value{repro.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM kv`

	hold := repro.WithFaults(repro.FaultInjection{SlowOp: 400 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(q, hold)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the slow query take the only slot
	if _, err := db.Query(q); !errors.Is(err, repro.ErrOverloaded) {
		t.Fatalf("second query: err = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
	st := db.ResourceStats()
	if st.Admission.Rejected == 0 {
		t.Errorf("ResourceStats.Admission.Rejected = 0 after a rejection")
	}

	// With a queue, a waiter honors its deadline while blocked.
	db2 := repro.Open(repro.WithMaxConcurrent(1), repro.WithAdmissionQueue(4))
	if err := db2.CreateTable("kv", repro.ColumnDef{Name: "k", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Insert("kv", []repro.Value{repro.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() {
		_, err := db2.Query(q, hold)
		done2 <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := db2.Query(q, repro.WithTimeout(50*time.Millisecond)); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("queued query past deadline: err = %v, want ErrCanceled", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
}

func TestResourceStatsAccumulate(t *testing.T) {
	db := newGovernDB(t)
	if _, err := db.Query(spillSortQuery, repro.WithMemoryLimit(32<<10)); err != nil {
		t.Fatal(err)
	}
	_, _ = db.Query(spillSortQuery, repro.WithMemoryLimit(32<<10), repro.WithoutSpill())
	st := db.ResourceStats()
	if st.Queries < 2 || st.SpilledQueries < 1 || st.SpillRuns < 1 || st.SpillBytes <= 0 {
		t.Errorf("spill totals not accumulated: %+v", st)
	}
	if st.Exhausted < 1 {
		t.Errorf("Exhausted = %d, want >= 1", st.Exhausted)
	}
	if st.MaxPeak <= 0 {
		t.Errorf("MaxPeak = %d, want > 0", st.MaxPeak)
	}
}

// MaterializeCleansed's cleansing run is a governed statement: under the
// engine's default memory budget it spills, it stores exactly the rows an
// unlimited run stores, and ResourceStats counts it.
func TestMaterializeCleansedIsGoverned(t *testing.T) {
	load := func(opts ...repro.Option) *repro.DB {
		db := repro.Open(opts...)
		if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 20, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DefinePaperRules(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	free := load()
	limited := load(repro.WithDefaultMemoryLimit(32<<10), repro.WithSpillDir(t.TempDir()))
	before := limited.ResourceStats()
	n, err := limited.MaterializeCleansed("caser", "caser_clean", "duplicate", "reader")
	if err != nil {
		t.Fatal(err)
	}
	after := limited.ResourceStats()
	if after.Queries != before.Queries+1 || after.SpilledQueries != before.SpilledQueries+1 {
		t.Fatalf("queries %d → %d, spilled %d → %d; want one more of each",
			before.Queries, after.Queries, before.SpilledQueries, after.SpilledQueries)
	}
	want, err := free.MaterializeCleansed("caser", "caser_clean", "duplicate", "reader")
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("stored %d rows under the budget, %d without", n, want)
	}
	const q = "SELECT * FROM caser_clean"
	got, err := limited.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := free.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, ref, got)
}

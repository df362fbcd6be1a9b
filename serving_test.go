// Tests for the serving layer: context cancellation, concurrent queries
// racing catalog mutations, the rewrite/plan cache and its epoch-based
// invalidation, and the sentinel errors. The WithTimeout option is the
// timeout row of TestStatementLifecycle (statement_test.go).
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
)

// newServingDB builds a small reads table (epc, rtime, biz_loc) with n
// rows in one partition, spaced a minute apart.
func newServingDB(t testing.TB, n int, opts ...repro.Option) *repro.DB {
	t.Helper()
	db := repro.Open(opts...)
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	rows := make([][]repro.Value, n)
	for i := range rows {
		rows[i] = []repro.Value{stringValue("e1"), timeValue(int64(i)), stringValue("dock")}
	}
	if err := db.Insert("reads", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// longWindowQuery folds a wide constant-offset frame per row over a
// single partition — O(rows × frame) work with no shortcut, so it runs
// long enough to be canceled mid-flight.
const longWindowQuery = `SELECT epc, MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 3000 PRECEDING AND 1 PRECEDING) AS prev FROM reads`

func TestQueryContextCancelsMidWindow(t *testing.T) {
	db := newServingDB(t, 30000)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(25*time.Millisecond, cancel)

	start := time.Now()
	_, err := db.QueryContext(ctx, longWindowQuery)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	if !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("errors.Is(err, repro.ErrCanceled) = false; err = %v", err)
	}
	// The operator polls its context cooperatively; a canceled query must
	// return promptly, not after finishing the remaining 90M-fold work.
	if elapsed > 5*time.Second {
		t.Errorf("canceled query took %v to return", elapsed)
	}
}

func TestQueryContextPreCanceled(t *testing.T) {
	db := newServingDB(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT count(*) FROM reads"); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("pre-canceled context: err = %v", err)
	}
}

// TestConcurrentServing races queries against rule definitions and
// inserts; run under -race it proves the serving lock covers the whole
// rewrite+execute span.
func TestConcurrentServing(t *testing.T) {
	const initial, inserted = 100, 30
	db := newServingDB(t, initial)
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := db.Query("SELECT count(*) FROM reads"); err != nil {
					errCh <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserted; i++ {
			row := []repro.Value{stringValue("e2"), timeValue(int64(1000 + i)), stringValue("shelf")}
			if err := db.Insert("reads", row); err != nil {
				errCh <- fmt.Errorf("insert: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 4; i++ {
			src := fmt.Sprintf(`DEFINE conc%d ON reads
				AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < %d mins
				ACTION DELETE B`, i, i)
			if _, err := db.DefineRule(src); err != nil {
				errCh <- fmt.Errorf("define: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	got, err := db.Query("SELECT count(*) FROM reads", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Data[0][0].Int(); n != initial+inserted {
		t.Errorf("dirty count after the dust settles = %d, want %d", n, initial+inserted)
	}
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	db := newServingDB(t, 5)
	if _, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT count(*) FROM reads"

	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rewrite.CacheHit {
		t.Error("first query reported a cache hit")
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Rewrite.CacheHit {
		t.Error("repeated query missed the cache")
	}
	if second.Rewrite.CacheHits == 0 {
		t.Errorf("CacheHits = 0 after a hit (misses = %d)", second.Rewrite.CacheMisses)
	}
	if st := db.PlanCacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("PlanCacheStats = %+v after a hit", st)
	}

	// A different strategy is a different cache key.
	forced, err := db.Query(q, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if forced.Rewrite.CacheHit {
		t.Error("strategy change still hit the cache")
	}

	// Loading data bumps the catalog epoch: the old entry can't be hit,
	// and the re-planned query sees the new row.
	if err := db.Insert("reads", []repro.Value{stringValue("e9"), timeValue(500), stringValue("gate")}); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(q, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if after.Rewrite.CacheHit {
		t.Error("query after Insert hit a stale plan")
	}
	if n := after.Data[0][0].Int(); n != 6 {
		t.Errorf("dirty count after insert = %d, want 6", n)
	}

	// Defining a rule invalidates too.
	if _, err := db.Query(q); err != nil { // warm the Auto entry again
		t.Fatal(err)
	}
	if _, err := db.DefineRule(`DEFINE wide ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 20 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rewrite.CacheHit {
		t.Error("query after DefineRule hit a stale plan")
	}

	db.ResetPlanCache()
	if st := db.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("PlanCacheStats after reset = %+v", st)
	}
}

// TestPreparedSharesCache: Prepare populates the same cache Query reads,
// and repeated runs of the prepared plan agree with direct queries.
func TestPreparedSharesCache(t *testing.T) {
	db := newServingDB(t, 5)
	const q = "SELECT count(*) FROM reads"
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	viaQuery, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !viaQuery.Rewrite.CacheHit {
		t.Error("query after Prepare missed the cache")
	}
	for i := 0; i < 3; i++ {
		got, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := got.Data[0][0].Int(); n != 5 {
			t.Errorf("prepared run %d = %d rows, want 5", i, n)
		}
	}
	// A prepared plan honors its run context like a direct query.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("pre-canceled RunContext: err = %v", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	db := newServingDB(t, 3)
	if err := db.Insert("nosuch"); !errors.Is(err, repro.ErrNoTable) {
		t.Errorf("Insert into missing table: err = %v", err)
	}
	if err := db.BuildIndex("nosuch", "rtime"); !errors.Is(err, repro.ErrNoTable) {
		t.Errorf("BuildIndex on missing table: err = %v", err)
	}
	if err := db.Analyze("nosuch"); !errors.Is(err, repro.ErrNoTable) {
		t.Errorf("Analyze on missing table: err = %v", err)
	}
	if _, err := db.MaterializeCleansed("nosuch", "dest"); !errors.Is(err, repro.ErrNoTable) {
		t.Errorf("MaterializeCleansed from missing table: err = %v", err)
	}
	if _, err := db.DryRunRule("nosuch", 3); !errors.Is(err, repro.ErrUnknownRule) {
		t.Errorf("DryRunRule on missing rule: err = %v", err)
	}
}

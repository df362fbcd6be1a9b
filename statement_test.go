// Tests for the statement lifecycle shared by every governed entry point:
// one table over entry points × outcomes asserting the same invariants in
// every cell, and the prepared-statement timeout the shared begin fixed.
package repro_test

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro"
)

// lifecycleEntry drives one governed entry point to completion and
// returns the statement's error. Streams are drained and closed twice, so
// every stream cell also proves finish is idempotent.
type lifecycleEntry struct {
	name     string
	prepared bool
	run      func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error
}

func drainAndClose(rows *repro.Rows, err error) error {
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	err = rows.Err()
	_ = rows.Close()
	_ = rows.Close()
	if err == nil {
		err = rows.Err()
	}
	return err
}

var lifecycleEntries = []lifecycleEntry{
	{name: "QueryContext", run: func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		_, err := db.QueryContext(ctx, sql, opts...)
		return err
	}},
	{name: "ExplainAnalyzeContext", run: func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		_, err := db.ExplainAnalyzeContext(ctx, sql, opts...)
		return err
	}},
	{name: "QueryStreamContext", run: func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		return drainAndClose(db.QueryStreamContext(ctx, sql, opts...))
	}},
	{name: "Prepared.RunContext", prepared: true, run: func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		p, err := db.Prepare(sql, opts...)
		if err != nil {
			return err
		}
		_, err = p.RunContext(ctx)
		return err
	}},
	{name: "Prepared.StreamContext", prepared: true, run: func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		p, err := db.Prepare(sql, opts...)
		if err != nil {
			return err
		}
		return drainAndClose(p.StreamContext(ctx))
	}},
}

// lifecycleQuery sorts the whole reads table of newServingDB: a few
// thousand rows dwarf a 32 KiB budget, so it spills or, with spilling
// off, exhausts.
const lifecycleQuery = `SELECT epc, rtime, biz_loc FROM reads ORDER BY rtime, epc, biz_loc`

var queryOutcomes = []string{"ok", "canceled", "killed", "exhausted", "overloaded", "error"}

func outcomeCounts(t *testing.T, db *repro.DB) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, oc := range queryOutcomes {
		m[oc] = metricValue(t, db, "repro_queries_total", oc)
	}
	return m
}

// TestStatementLifecycle runs every governed entry point through every
// way a statement can end and asserts, for each cell: the sentinel and
// Code, exactly one repro_queries_total increment under the right
// outcome, the execution counted in ResourceStats.Queries iff it reached
// the executor, the plan-cache entry evicted only on exhaustion, and
// nothing left behind — admission slot, registry entry, spill files, the
// catalog read lock.
func TestStatementLifecycle(t *testing.T) {
	slow := repro.WithFaults(repro.FaultInjection{SlowOp: 5 * time.Second})
	scenarios := []struct {
		name    string
		sql     string
		opts    []repro.QueryOption
		want    error // nil = success
		also    error // a second sentinel the error must match
		code    string
		outcome string
		// executed: the statement reached the executor (counts in
		// ResourceStats.Queries). cached: its plan-cache entry survives.
		executed, cached bool
		// occupy fills the only admission slot before the statement starts.
		occupy bool
		// cancelAfter cancels the caller's context mid-flight; kill stops
		// the statement through DB.Kill once the registry shows it.
		cancelAfter time.Duration
		kill        bool
	}{
		{name: "ok", sql: lifecycleQuery, opts: []repro.QueryOption{repro.WithMemoryLimit(32 << 10)},
			outcome: "ok", executed: true, cached: true},
		{name: "admission rejected", sql: lifecycleQuery, occupy: true,
			want: repro.ErrOverloaded, code: repro.CodeOverloaded, outcome: "overloaded"},
		{name: "compile error", sql: `SELECT a FROM no_such_table`,
			want: repro.ErrNoTable, code: repro.CodeNoTable, outcome: "error"},
		{name: "budget exhausted", sql: lifecycleQuery,
			opts: []repro.QueryOption{repro.WithMemoryLimit(32 << 10), repro.WithoutSpill()},
			want: repro.ErrResourceExhausted, code: repro.CodeResourceExhausted, outcome: "exhausted", executed: true},
		{name: "caller cancel", sql: lifecycleQuery, opts: []repro.QueryOption{slow}, cancelAfter: 30 * time.Millisecond,
			want: repro.ErrCanceled, also: context.Canceled, code: repro.CodeCanceled, outcome: "canceled", executed: true, cached: true},
		{name: "timeout", sql: lifecycleQuery, opts: []repro.QueryOption{slow, repro.WithTimeout(30 * time.Millisecond)},
			want: repro.ErrCanceled, also: context.DeadlineExceeded, code: repro.CodeCanceled, outcome: "canceled", executed: true, cached: true},
		{name: "DB.Kill", sql: lifecycleQuery, opts: []repro.QueryOption{slow}, kill: true,
			want: repro.ErrCanceled, also: context.Canceled, code: repro.CodeCanceled, outcome: "killed", executed: true, cached: true},
		{name: "worker panic", sql: lifecycleQuery,
			opts: []repro.QueryOption{repro.WithFaults(repro.FaultInjection{WorkerPanic: true})},
			want: repro.ErrInternal, code: repro.CodeInternal, outcome: "error", executed: true, cached: true},
	}

	for _, e := range lifecycleEntries {
		for _, sc := range scenarios {
			if e.prepared && sc.name == "compile error" {
				continue // Prepare compiles; a statement that fails there never begins
			}
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				spillDir := t.TempDir()
				limit := 4
				if sc.occupy {
					limit = 1
				}
				db := newServingDB(t, 3000, repro.WithMaxConcurrent(limit), repro.WithAdmissionQueue(0), repro.WithSpillDir(spillDir))
				vacate := func() {}
				if sc.occupy {
					holder, err := db.QueryStream(`SELECT epc FROM reads`)
					if err != nil {
						t.Fatal(err)
					}
					vacate = func() { holder.Close() }
				}
				db.ResetPlanCache()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if sc.cancelAfter > 0 {
					time.AfterFunc(sc.cancelAfter, cancel)
				}
				if sc.kill {
					go func() {
						for ctx.Err() == nil {
							for _, q := range db.ActiveQueries() {
								if q.Kind == "query" && db.Kill(q.ID) == nil {
									return
								}
							}
							time.Sleep(2 * time.Millisecond)
						}
					}()
				}

				before, queriesBefore := outcomeCounts(t, db), db.ResourceStats().Queries
				start := time.Now()
				err := e.run(ctx, db, sc.sql, sc.opts...)
				if d := time.Since(start); d > 4*time.Second {
					t.Errorf("statement took %v; it was not stopped, the slow operator ran out", d)
				}
				after, queriesAfter := outcomeCounts(t, db), db.ResourceStats().Queries
				cancel()
				vacate()

				if sc.want == nil && err != nil {
					t.Fatalf("err = %v, want success", err)
				}
				if sc.want != nil && !errors.Is(err, sc.want) {
					t.Fatalf("err = %v, want %v", err, sc.want)
				}
				if sc.also != nil && !errors.Is(err, sc.also) {
					t.Errorf("err = %v, want it to match %v as well", err, sc.also)
				}
				if got := repro.Code(err); got != sc.code {
					t.Errorf("Code = %q, want %q", got, sc.code)
				}
				for _, oc := range queryOutcomes {
					want := 0.0
					if oc == sc.outcome {
						want = 1
					}
					if got := after[oc] - before[oc]; got != want {
						t.Errorf(`repro_queries_total{outcome=%q} moved by %v, want %v`, oc, got, want)
					}
				}
				wantQueries := int64(0)
				if sc.executed {
					wantQueries = 1
				}
				if got := queriesAfter - queriesBefore; got != wantQueries {
					t.Errorf("ResourceStats.Queries moved by %d, want %d", got, wantQueries)
				}
				// Prepare caches the plan even when the run is then rejected.
				wantCached := sc.cached || (e.prepared && sc.occupy)
				if got := db.PlanCacheStats().Entries == 1; got != wantCached {
					t.Errorf("plan cached = %v (%d entries), want %v", got, db.PlanCacheStats().Entries, wantCached)
				}

				if rs := db.ResourceStats(); rs.Admission.Running != 0 {
					t.Errorf("admission slots still held: %+v", rs.Admission)
				}
				if active := db.ActiveQueries(); len(active) != 0 {
					t.Errorf("registry not empty: %+v", active)
				}
				if ents, err := os.ReadDir(spillDir); err != nil || len(ents) != 0 {
					t.Errorf("spill files left behind: %v (%v)", ents, err)
				}
				// The engine keeps serving, and a statement whose plan was
				// evicted replans instead of hitting the failed entry.
				if sc.sql == lifecycleQuery {
					rows, err := db.Query(sc.sql)
					if err != nil {
						t.Fatalf("same query, unbudgeted, afterwards: %v", err)
					}
					if rows.Rewrite.CacheHit != wantCached {
						t.Errorf("follow-up CacheHit = %v, want %v", rows.Rewrite.CacheHit, wantCached)
					}
				}
				// DDL takes the write lock: it blocks forever on a leaked
				// read lock.
				ddl := make(chan error, 1)
				go func() { ddl <- db.CreateTable("after_statement", repro.ColumnDef{Name: "a", Kind: repro.KindInt}) }()
				select {
				case err := <-ddl:
					if err != nil {
						t.Errorf("CreateTable afterwards: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("CreateTable blocked: the statement leaked the catalog read lock")
				}
			})
		}
	}
}

// TestPreparedHonorsTimeout: a WithTimeout given to Prepare bounds every
// Run and Stream, with a fresh deadline per run.
func TestPreparedHonorsTimeout(t *testing.T) {
	db := newServingDB(t, 3000)
	p, err := db.Prepare(lifecycleQuery,
		repro.WithTimeout(30*time.Millisecond),
		repro.WithFaults(repro.FaultInjection{SlowOp: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Run":    func() error { _, err := p.Run(); return err },
		"Stream": func() error { return drainAndClose(p.Stream()) },
	} {
		start := time.Now()
		err := run()
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want ErrCanceled wrapping context.DeadlineExceeded", name, err)
		}
		if d := time.Since(start); d > 4*time.Second {
			t.Errorf("%s took %v; the 30ms timeout did not bound it", name, d)
		}
	}

	// The deadline starts when a run does, not at Prepare: a fast
	// statement still runs after its timeout has elapsed since Prepare.
	fast, err := db.Prepare(`SELECT count(*) FROM reads`, repro.WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := fast.Run(); err != nil {
			t.Fatalf("run %d of a fast statement prepared 250ms ago with a 200ms timeout: %v", i, err)
		}
	}
	// And it composes with the run's own context: the earlier one wins.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fast.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled run context: err = %v, want context.Canceled", err)
	}
}

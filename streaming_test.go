// Tests for the streaming query API: corpus parity between eager and
// incremental consumption at several parallelism levels, sentinel parity
// on the failure paths (budget, panic, cancellation), lifecycle release
// on early Close, Scan conversions, and trace head-sampling.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
)

// BenchmarkFirstRowLatency prices the point of the streaming executor:
// how long until the first rows leave the engine, against how long the
// whole query takes. A 1M-row fused filter+scan is streamed twice per
// mode — "first" stops after one batch and abandons the stream, "drain"
// consumes to the footer. On any healthy run first-row latency is an
// order of magnitude under completion, because the scan is still
// claiming morsels when the first batch is handed to the caller.
func BenchmarkFirstRowLatency(b *testing.B) {
	db := repro.Open()
	if err := db.CreateTable("big", repro.ColumnDef{Name: "a", Kind: repro.KindInt}); err != nil {
		b.Fatal(err)
	}
	const n = 1 << 20
	const batch = 1 << 14
	rows := make([][]repro.Value, 0, batch)
	for lo := 0; lo < n; lo += batch {
		rows = rows[:0]
		for i := lo; i < lo+batch && i < n; i++ {
			rows = append(rows, []repro.Value{repro.NewInt(int64(i % 100003))})
		}
		if err := db.Insert("big", rows...); err != nil {
			b.Fatal(err)
		}
	}
	const q = `SELECT a FROM big WHERE a > 100`
	for _, par := range []int{1, 4} {
		opts := []repro.QueryOption{repro.WithParallelism(par)}
		b.Run(benchParName("first", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stream, err := db.QueryStream(q, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if !stream.Next() {
					b.Fatalf("no rows: %v", stream.Err())
				}
				stream.Close()
			}
		})
		b.Run(benchParName("drain", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stream, err := db.QueryStream(q, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if got, serr := drainStream(stream); serr != nil || len(got) == 0 {
					b.Fatalf("rows=%d err=%v", len(got), serr)
				}
			}
		})
	}
}

func benchParName(mode string, par int) string {
	return fmt.Sprintf("%s/par=%d", mode, par)
}

// drainStream consumes a streaming Rows through the cursor, returning
// the collected rows and the terminal error.
func drainStream(rows *repro.Rows) ([][]repro.Value, error) {
	defer rows.Close()
	var out [][]repro.Value
	for rows.Next() {
		out = append(out, rows.Row())
	}
	return out, rows.Err()
}

// TestQueryStreamCorpusMatchesEager runs the paper's benchmark queries
// under every rewrite strategy, comparing the eager Query result with
// the same query consumed incrementally through Rows.Next at
// parallelism 1 and NumCPU — the streaming form of the engine's
// determinism guarantee. CI runs it again with REPRO_SEGMENT_ROWS=64 so
// the batch boundaries land everywhere.
func TestQueryStreamCorpusMatchesEager(t *testing.T) {
	e, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules := e.RulePrefix(5)
	for qname, q := range corpusQueries(t, e) {
		for _, v := range bench.Variants() {
			t.Run(qname+"/"+v.Name, func(t *testing.T) {
				for _, par := range []int{1, runtime.NumCPU()} {
					opts := []repro.QueryOption{
						repro.WithStrategy(v.Strat), repro.WithRules(rules...),
						repro.WithParallelism(par),
					}
					want, err := e.DB.Query(q, opts...)
					if err != nil {
						if v.Strat == repro.Expanded {
							t.Skipf("infeasible: %v", err)
						}
						t.Fatal(err)
					}
					stream, err := e.DB.QueryStream(q, opts...)
					if err != nil {
						t.Fatalf("par=%d: QueryStream: %v", par, err)
					}
					if stream.Data != nil {
						t.Fatalf("par=%d: streaming Rows has eager Data", par)
					}
					got, serr := drainStream(stream)
					if serr != nil {
						t.Fatalf("par=%d: stream error: %v", par, serr)
					}
					requireSameRows(t, fmt.Sprintf("par=%d", par), want.Data, got)
					if stream.Mem.Peak <= 0 {
						t.Fatalf("par=%d: streaming Rows has no memory accounting", par)
					}
				}
			})
		}
	}
}

// requireSameRows fails the test unless the streamed rows equal the
// eager ones, value for value and in order.
func requireSameRows(t *testing.T, label string, eager, stream [][]repro.Value) {
	t.Helper()
	if len(stream) != len(eager) {
		t.Fatalf("%s: stream rows = %d, eager rows = %d", label, len(stream), len(eager))
	}
	for i := range stream {
		for j := range stream[i] {
			va, vb := eager[i][j], stream[i][j]
			if !va.Equal(vb) || va.IsNull() != vb.IsNull() {
				t.Fatalf("%s: row %d col %d: eager %s vs stream %s", label, i, j, va.SQL(), vb.SQL())
			}
		}
	}
}

// TestStreamSparsePredicateMatchesEager streams a fused-predicate scan
// whose matches are few and far apart — the reads of the least busy
// reader — so whole morsels yield no row. An empty morsel is not the end
// of the stream: the streamed result must equal the eager one at every
// parallelism and under row-at-a-time evaluation. CI's tiny-segment
// streaming step runs it with 64-row morsels, where almost every morsel
// is empty.
func TestStreamSparsePredicateMatchesEager(t *testing.T) {
	e, err := bench.Load(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	rare, err := e.DB.Query(`SELECT reader, count(*) AS c FROM caser GROUP BY reader ORDER BY c, reader LIMIT 1`,
		repro.WithStrategy(repro.Dirty))
	if err != nil || len(rare.Data) != 1 {
		t.Fatalf("least busy reader: rows=%v err=%v", rare, err)
	}
	q := fmt.Sprintf(`SELECT rtime FROM caser WHERE reader = '%s'`, rare.Data[0][0].Str())
	variants := map[string][]repro.QueryOption{
		"par=1":    {repro.WithParallelism(1)},
		"par=4":    {repro.WithParallelism(4)},
		"row-eval": {repro.WithRowEval()},
	}
	for label, opts := range variants {
		opts = append(opts, repro.WithStrategy(repro.Dirty))
		want, err := e.DB.Query(q, opts...)
		if err != nil {
			t.Fatalf("%s: Query: %v", label, err)
		}
		if int64(len(want.Data)) != rare.Data[0][1].Int() {
			t.Fatalf("%s: eager rows = %d, reader has %d reads", label, len(want.Data), rare.Data[0][1].Int())
		}
		stream, err := e.DB.QueryStream(q, opts...)
		if err != nil {
			t.Fatalf("%s: QueryStream: %v", label, err)
		}
		got, serr := drainStream(stream)
		if serr != nil {
			t.Fatalf("%s: stream error: %v", label, serr)
		}
		requireSameRows(t, label, want.Data, got)
	}
}

// TestResultRowsDoNotAliasStorage: rows handed to the caller are the
// caller's. A projection of a scan's leading columns copies them (only
// rows the execution itself produced are kept in place), so writing to
// every row Query and QueryStream return leaves the table as it was.
func TestResultRowsDoNotAliasStorage(t *testing.T) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT epc, rtime FROM caser`
	scribble := func(row []repro.Value) {
		for j := range row {
			row[j] = repro.NewString("scribbled")
		}
	}
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]repro.Value, len(first.Data))
	for i, row := range first.Data {
		want[i] = append([]repro.Value(nil), row...)
		scribble(row)
	}
	stream, err := db.QueryStream(q)
	if err != nil {
		t.Fatal(err)
	}
	for stream.Next() {
		scribble(stream.Row())
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	again, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "after writing to the results", want, again.Data)
}

// TestResultRowsDoNotAliasPooledScratch is the pooled twin of
// TestResultRowsDoNotAliasStorage: the rows a query hands out never live
// in the pooled worker scratch that later queries reuse. It keeps the
// eager and streamed rows of a lookup and of q1 under expanded, at
// parallelism 1 and 4, then runs 20 other queries concurrently (under
// -race the pool also drops a share of what it is given, so scratch
// both returns and is made anew), and requires every kept row to be
// unchanged.
func TestResultRowsDoNotAliasPooledScratch(t *testing.T) {
	e, err := bench.Load(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	epcs := lookupEPCs(t, e.DB, 21)
	rules := repro.WithRules(e.RulePrefix(3)...)
	queries := []struct {
		label string
		sql   string
		opts  []repro.QueryOption
	}{
		{"lookup", lookupSQL(epcs[0]), nil},
		{"q1 expanded", e.Q1(0.1), []repro.QueryOption{repro.WithStrategy(repro.Expanded), rules}},
	}
	type kept struct {
		label      string
		rows, copy [][]repro.Value
	}
	var all []kept
	keep := func(label string, rows [][]repro.Value) {
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", label)
		}
		c := make([][]repro.Value, len(rows))
		for i, r := range rows {
			c[i] = append([]repro.Value(nil), r...)
		}
		all = append(all, kept{label, rows, c})
	}
	for _, q := range queries {
		for _, par := range []int{1, 4} {
			opts := append([]repro.QueryOption{repro.WithParallelism(par)}, q.opts...)
			label := fmt.Sprintf("%s par=%d", q.label, par)
			eager, err := e.DB.Query(q.sql, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			keep(label+" eager", eager.Data)
			stream, err := e.DB.QueryStream(q.sql, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			streamed, err := drainStream(stream)
			if err != nil {
				t.Fatalf("%s stream: %v", label, err)
			}
			keep(label+" streamed", streamed)
		}
	}
	others := make(chan error, 20)
	for i := range 20 {
		go func() {
			sql, opts := lookupSQL(epcs[1+i]), []repro.QueryOption{repro.WithParallelism(2)}
			switch i % 4 {
			case 1:
				sql, opts = e.Q1(0.1), append(opts, repro.WithStrategy(repro.JoinBack), rules)
			case 3:
				sql, opts = e.Q2(0.1), append(opts, repro.WithStrategy(repro.Expanded), rules)
			}
			_, err := e.DB.Query(sql, opts...)
			others <- err
		}()
	}
	for range 20 {
		if err := <-others; err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range all {
		requireSameRows(t, k.label+" after 20 more queries", k.copy, k.rows)
	}
}

func TestPreparedStreamMatchesRun(t *testing.T) {
	db := newGovernDB(t)
	p, err := db.Prepare(spillGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := p.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got, serr := drainStream(stream)
	if serr != nil {
		t.Fatal(serr)
	}
	if len(got) != len(want.Data) {
		t.Fatalf("stream rows = %d, run rows = %d", len(got), len(want.Data))
	}
	for i := range got {
		for j := range got[i] {
			if !got[i][j].Equal(want.Data[i][j]) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

// TestQueryStreamSentinelParity asserts the streaming path terminates
// with the same error sentinels as the materializing path.
func TestQueryStreamSentinelParity(t *testing.T) {
	db := newGovernDB(t)

	t.Run("budget", func(t *testing.T) {
		rows, err := db.QueryStream(spillSortQuery,
			repro.WithMemoryLimit(32<<10), repro.WithoutSpill())
		if err != nil {
			t.Fatalf("pre-execution error: %v", err)
		}
		got, serr := drainStream(rows)
		if len(got) != 0 {
			t.Fatalf("budget-failed stream delivered %d rows", len(got))
		}
		if !errors.Is(serr, repro.ErrResourceExhausted) {
			t.Fatalf("err = %v, want ErrResourceExhausted", serr)
		}
	})

	t.Run("panic", func(t *testing.T) {
		for _, par := range []int{1, 4} {
			rows, err := db.QueryStream(spillSortQuery,
				repro.WithParallelism(par),
				repro.WithFaults(repro.FaultInjection{WorkerPanic: true}))
			if err != nil {
				t.Fatalf("par=%d: pre-execution error: %v", par, err)
			}
			if _, serr := drainStream(rows); !errors.Is(serr, repro.ErrInternal) {
				t.Fatalf("par=%d: err = %v, want ErrInternal", par, serr)
			}
			// The fault is per-query: the next stream is clean.
			rows, err = db.QueryStream(spillSortQuery, repro.WithParallelism(par))
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if got, serr := drainStream(rows); serr != nil || len(got) == 0 {
				t.Fatalf("par=%d: recovery stream: rows=%d err=%v", par, len(got), serr)
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.QueryStreamContext(ctx, spillSortQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row before cancel: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		serr := rows.Err()
		if !errors.Is(serr, repro.ErrCanceled) || !errors.Is(serr, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", serr)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		rows, err := db.QueryStream(spillSortQuery,
			repro.WithTimeout(50*time.Millisecond),
			repro.WithFaults(repro.FaultInjection{SlowOp: 400 * time.Millisecond}))
		if err != nil {
			if !errors.Is(err, repro.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			return
		}
		if _, serr := drainStream(rows); !errors.Is(serr, repro.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", serr)
		}
	})
}

// TestQueryStreamCloseReleasesLifecycle opens a stream, abandons it
// after one row, and asserts Close released everything the query held:
// the admission slot, the catalog read lock, and the stream itself
// (idempotent Close).
func TestQueryStreamCloseReleasesLifecycle(t *testing.T) {
	db := newGovernDB(t, repro.WithMaxConcurrent(1))
	rows, err := db.QueryStream(spillSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// The stream holds the only admission slot: a second query cannot get
	// in before its deadline.
	if _, err := db.Query(spillGroupQuery, repro.WithTimeout(100*time.Millisecond)); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("concurrent query: err = %v, want ErrCanceled (queued behind the stream)", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Slot and catalog lock are free again: queries and DDL both proceed.
	if _, err := db.Query(spillGroupQuery); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
	if err := db.CreateTable("post_stream", repro.ColumnDef{Name: "a", Kind: repro.KindInt}); err != nil {
		t.Fatalf("DDL after Close: %v", err)
	}
}

func TestRowsScanConversions(t *testing.T) {
	db := newGovernDB(t)
	rows, err := db.QueryStream(`SELECT epc, rtime, biz_loc FROM caser ORDER BY rtime, epc, biz_loc`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var epc, loc string
	var rtime time.Time
	if err := rows.Scan(&epc, &rtime, &loc); err != nil {
		t.Fatal(err)
	}
	if epc == "" || loc == "" || rtime.IsZero() {
		t.Fatalf("scan produced zero values: %q %v %q", epc, rtime, loc)
	}
	// *any and *Value accept every column.
	var anyEpc any
	var v repro.Value
	var anyLoc any
	if err := rows.Scan(&anyEpc, &v, &anyLoc); err != nil {
		t.Fatal(err)
	}
	if s, ok := anyEpc.(string); !ok || s != epc {
		t.Fatalf("*any epc = %#v, want %q", anyEpc, epc)
	}
	// Kind mismatches and arity mismatches are errors, not corruption.
	var wrong int64
	if err := rows.Scan(&wrong, &rtime, &loc); err == nil {
		t.Fatal("scanning STRING into *int64 succeeded")
	}
	if err := rows.Scan(&epc); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

// TestEagerRowsCursor checks the cursor API over a materialized result.
func TestEagerRowsCursor(t *testing.T) {
	db := newGovernDB(t)
	rows, err := db.Query(spillGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for rows.Next() {
		if rows.Row() == nil {
			t.Fatal("nil current row")
		}
		n++
	}
	if n != len(rows.Data) {
		t.Fatalf("cursor saw %d rows, Data holds %d", n, len(rows.Data))
	}
	if rows.Err() != nil {
		t.Fatalf("eager Err = %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStreamFirstRowMetric(t *testing.T) {
	db := newGovernDB(t)
	rows, err := db.QueryStream(spillGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := drainStream(rows); serr != nil {
		t.Fatal(serr)
	}
	count, _, ok := db.Metrics().HistogramStats("repro_first_row_seconds", "")
	if !ok || count < 1 {
		t.Fatalf("repro_first_row_seconds count = %d,%v, want >= 1", count, ok)
	}
	// Eager queries never touch the first-row histogram.
	if _, err := db.Query(spillGroupQuery); err != nil {
		t.Fatal(err)
	}
	after, _, _ := db.Metrics().HistogramStats("repro_first_row_seconds", "")
	if after != count {
		t.Fatalf("eager query moved repro_first_row_seconds: %d -> %d", count, after)
	}
}

func TestWithTraceSampling(t *testing.T) {
	run := func(t *testing.T, fraction float64, queries int) (traced, hookCalls int) {
		t.Helper()
		db := newGovernDB(t, repro.WithTraceSampling(fraction))
		for i := 0; i < queries; i++ {
			rows, err := db.Query(spillGroupQuery,
				repro.WithTrace(func(tr *repro.Trace) { hookCalls++ }))
			if err != nil {
				t.Fatal(err)
			}
			if rows.Trace() != nil {
				traced++
			}
		}
		return traced, hookCalls
	}

	t.Run("half", func(t *testing.T) {
		traced, hookCalls := run(t, 0.5, 10)
		// Deterministic head sampling: the first eligible query and every
		// second one after it — 5 of 10.
		if traced != 5 {
			t.Fatalf("traced = %d of 10 at fraction 0.5, want 5", traced)
		}
		// The hook fires for every query, with a nil trace when sampled out.
		if hookCalls != 10 {
			t.Fatalf("hook calls = %d, want 10", hookCalls)
		}
	})
	t.Run("none", func(t *testing.T) {
		if traced, _ := run(t, 0, 6); traced != 0 {
			t.Fatalf("traced = %d at fraction 0, want 0", traced)
		}
	})
	t.Run("all", func(t *testing.T) {
		if traced, _ := run(t, 1, 6); traced != 6 {
			t.Fatalf("traced = %d at fraction 1, want 6", traced)
		}
	})
}

// TestRowsStartSpanHoldsTraceUntilClose: a consumer span opened on a
// streaming result keeps the trace back past end of stream — the engine
// is done, the consumer is not — and Close delivers it, once, with the
// span in it. Without a consumer span the trace goes out at end of
// stream as before; an eager or untraced Rows has no span to give.
func TestRowsStartSpanHoldsTraceUntilClose(t *testing.T) {
	db := newGovernDB(t)
	var delivered []*repro.Trace
	hook := repro.WithTrace(func(tr *repro.Trace) { delivered = append(delivered, tr) })

	stream, err := db.QueryStream(spillGroupQuery, hook)
	if err != nil {
		t.Fatal(err)
	}
	sp := stream.StartSpan("encode")
	if sp == nil {
		t.Fatal("StartSpan on a traced stream returned nil")
	}
	for stream.Next() {
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 0 {
		t.Fatal("trace delivered at end of stream while a consumer span was open")
	}
	sp.SetAttr("rows", "all")
	stream.Close()
	stream.Close()
	if len(delivered) != 1 || delivered[0].Find("encode") != sp {
		t.Fatalf("after Close: %d traces delivered, encode span present = %v",
			len(delivered), len(delivered) == 1 && delivered[0].Find("encode") == sp)
	}
	if stream.StartSpan("late") != nil {
		t.Fatal("StartSpan after the stream finished returned a span")
	}

	plain, err := db.QueryStream(spillGroupQuery, hook)
	if err != nil {
		t.Fatal(err)
	}
	for plain.Next() {
	}
	if len(delivered) != 2 {
		t.Fatalf("without a consumer span the trace must go out at end of stream; delivered = %d", len(delivered))
	}
	plain.Close()

	eager, err := db.Query(spillGroupQuery, hook)
	if err != nil {
		t.Fatal(err)
	}
	if eager.StartSpan("encode") != nil {
		t.Fatal("StartSpan on an eager Rows returned a span")
	}
	untraced, err := db.QueryStream(spillGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer untraced.Close()
	if untraced.StartSpan("encode") != nil {
		t.Fatal("StartSpan on an untraced stream returned a span")
	}
}

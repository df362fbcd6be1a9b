package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/storage"
)

// lookupSQL is the cleansed history of one EPC: the served benchmark's
// trace_lookup request, and the paper's case of deferred cleansing that
// touches only the reads a query needs.
func lookupSQL(epc string) string {
	return "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = '" + epc + "' ORDER BY rtime"
}

// lookupEPCs returns n EPCs spread evenly over caser's distinct EPCs.
func lookupEPCs(tb testing.TB, db *repro.DB, n int) []string {
	tb.Helper()
	rows, err := db.Query("SELECT DISTINCT epc FROM caser ORDER BY epc", repro.WithStrategy(repro.Dirty))
	if err != nil {
		tb.Fatal(err)
	}
	if len(rows.Data) < n {
		tb.Fatalf("%d distinct EPCs, want at least %d", len(rows.Data), n)
	}
	epcs := make([]string, n)
	for i := range epcs {
		epcs[i] = rows.Data[i*len(rows.Data)/n][0].Str()
	}
	return epcs
}

// TestLookupAllocsBounded bounds what one lookup allocates, end to end
// through Query at parallelism 1 — parse, plan-cache bind, and the
// execution of the rewritten plan — cycling 64 EPCs at scale 2. The
// bounds are the measured figures plus 5 %: 713 allocations and 155 KB
// at this writing, 862 and 992 KB under -race, whose instrumentation
// allocates more and whose sync.Pool drops a share of the scratch.
func TestLookupAllocsBounded(t *testing.T) {
	e, err := bench.Load(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	epcs := lookupEPCs(t, e.DB, 64)
	opts := []repro.QueryOption{repro.WithParallelism(1)}
	i := 0
	lookup := func() {
		if _, err := e.DB.Query(lookupSQL(epcs[i%len(epcs)]), opts...); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range epcs {
		lookup()
	}
	const runs = 256
	allocs := testing.AllocsPerRun(runs, lookup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		lookup()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	maxAllocs, maxBytes := 749.0, uint64(163_200)
	if raceEnabled {
		maxAllocs, maxBytes = 905, 1_041_300
	}
	t.Logf("%.0f allocs and %d bytes per lookup", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("%.0f allocs and %d bytes per lookup, want at most %.0f and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestLookupsDuringSealingIngest runs index lookups, materialized and
// streamed, while Ingest appends 7-row batches to a table of 16-row
// segments, so batches seal segments and leave tail runs behind. Row n
// holds EPC e(n mod 5); every lookup of an EPC must return its rows as
// an unbroken prefix, in rtime order: a row that an index run missed
// would leave a gap. Run with -race.
func TestLookupsDuringSealingIngest(t *testing.T) {
	old := storage.DefaultSegmentRows
	storage.DefaultSegmentRows = 16
	t.Cleanup(func() { storage.DefaultSegmentRows = old })
	const epcs, batches, per = 5, 60, 7
	db := repro.Open()
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "n", Kind: repro.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	next := 0
	ingest := func() error {
		rows := make([][]repro.Value, per)
		for i := range rows {
			rows[i] = []repro.Value{
				repro.NewString(fmt.Sprintf("e%d", next%epcs)),
				repro.NewTime(time.UnixMicro(int64(next)).UTC()),
				repro.NewInt(int64(next)),
			}
			next++
		}
		return db.Ingest("reads", rows...)
	}
	for range 3 { // a build run over two sealed segments and a tail
		if err := ingest(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex("reads", "epc"); err != nil {
		t.Fatal(err)
	}
	sql := func(e int) string {
		return fmt.Sprintf("SELECT n FROM reads WHERE epc = 'e%d' ORDER BY rtime", e)
	}
	if plan, err := db.Explain(sql(0)); err != nil || !strings.Contains(plan, "IndexScan(reads.epc)") {
		t.Fatalf("lookup does not scan the index (%v):\n%s", err, plan)
	}
	// check reports whether ns are e's rows n = e, e+5, ... in order.
	check := func(e int, ns []int64) error {
		for i, n := range ns {
			if n != int64(e+i*epcs) {
				return fmt.Errorf("e%d: rows %v are not an unbroken prefix", e, ns)
			}
		}
		return nil
	}
	fetch := func(e int, stream bool) ([]int64, error) {
		opts := []repro.QueryOption{repro.WithStrategy(repro.Dirty)}
		var ns []int64
		if !stream {
			res, err := db.Query(sql(e), opts...)
			if err != nil {
				return nil, err
			}
			for _, r := range res.Data {
				ns = append(ns, r[0].Int())
			}
			return ns, check(e, ns)
		}
		rows, err := db.QueryStream(sql(e), opts...)
		if err != nil {
			return nil, err
		}
		for rows.Next() {
			ns = append(ns, rows.Row()[0].Int())
		}
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return ns, check(e, ns)
	}
	// Each reader ticks after every lookup, and the writer waits for a
	// tick from both after every batch, so lookups interleave with seals.
	done := make(chan struct{})
	ticks := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var wg sync.WaitGroup
	for r, stream := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if !failed {
					if _, err := fetch(i%epcs, stream); err != nil {
						t.Error(err)
						failed = true
					}
				}
				select {
				case ticks[r] <- struct{}{}:
				default:
				}
			}
		}()
	}
	var err error
	for range batches {
		if err = ingest(); err != nil {
			break
		}
		for _, tick := range ticks {
			<-tick
		}
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for e := range epcs {
		ns, err := fetch(e, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := (next - e + epcs - 1) / epcs; len(ns) != want {
			t.Fatalf("e%d: %d rows, want %d", e, len(ns), want)
		}
	}
}

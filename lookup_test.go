package repro_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/bench"
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

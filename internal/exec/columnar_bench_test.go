package exec

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// BenchmarkColumnarScan measures the columnar fused-scan path against the
// row-era shape it replaced: a FilterNode sitting above a plain Scan that
// materializes every row first. All variants run the same predicate over
// the same sealed table at Parallelism=1 and produce bit-identical
// outputs (asserted once before timing).
//
//	filter-above-scan/row     the PR-2-era baseline: materialize, then
//	                          row-at-a-time predicate
//	filter-above-scan/vector  materialize, then batch kernels
//	fused/vector              predicate over segment column vectors,
//	                          matches materialized lazily
//	fused/vector-pruned       same, with a selective range predicate
//	                          whose zone maps skip 3 of 4 segments
func BenchmarkColumnarScan(b *testing.B) {
	tab := columnarBenchTable(b)

	wide := "case when flag = 1 and val < 900 then 0 else 1 end = 1 and val >= 5"
	selective := fmt.Sprintf("id >= %d and val >= 5", benchRows-benchRows/8)
	lo := types.NewInt(int64(benchRows - benchRows/8))
	selZone := []storage.ZonePred{{Col: 0, Bounds: storage.Bounds{Lo: &lo, LoIncl: true}}}

	mkFiltered := func(src string) Node {
		return NewFilterNode(NewScanNode(tab), benchCompileOn(b, src, tab), src)
	}
	mkFused := func(src string, zone []storage.ZonePred) Node {
		return fuse(NewScanNode(tab), benchCompileOn(b, src, tab), src, zone)
	}

	// Parity gate: every variant must produce the same rows.
	baseline := mustRows(b, mkFiltered(wide), false)
	for _, v := range []struct {
		name string
		node Node
		vec  bool
	}{
		{"filter-above-scan/vector", mkFiltered(wide), true},
		{"fused/vector", mkFused(wide, nil), true},
	} {
		got := mustRows(b, v.node, v.vec)
		assertSameRows(b, v.name, baseline, got)
	}
	prunedBase := mustRows(b, mkFiltered(selective), false)
	assertSameRows(b, "fused/vector-pruned", prunedBase, mustRows(b, mkFused(selective, selZone), true))

	run := func(name string, build func() Node, vec bool, rows int) {
		b.Run(name, func(b *testing.B) {
			n := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := NewCtx().SetParallelism(1).SetVectorize(vec)
				if _, err := Run(ctx, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	run("filter-above-scan/row", func() Node { return mkFiltered(wide) }, false, benchRows)
	run("filter-above-scan/vector", func() Node { return mkFiltered(wide) }, true, benchRows)
	run("fused/vector", func() Node { return mkFused(wide, nil) }, true, benchRows)
	run("fused/vector-pruned", func() Node { return mkFused(selective, selZone) }, true, benchRows)
}

// columnarBenchTable seals benchRows rows into default-size segments:
// id ascending (zone-prunable), plus the flag/val/loc mix the
// vectorization benchmarks use.
func columnarBenchTable(b *testing.B) *storage.Table {
	b.Helper()
	s := &schema.Schema{}
	s.Columns = append(s.Columns,
		schema.Col("t", "id", types.KindInt),
		schema.Col("t", "flag", types.KindInt),
		schema.Col("t", "val", types.KindInt),
		schema.Col("t", "loc", types.KindString),
	)
	tab := storage.NewTable("t", s)
	data := benchRowsData(benchRows)
	for i, r := range data {
		row := schema.Row{types.NewInt(int64(i)), r[0], r[1], r[2]}
		if err := tab.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	if tab.SegmentCount() < 2 {
		b.Fatalf("bench table sealed %d segments; raise benchRows", tab.SegmentCount())
	}
	return tab
}

func benchCompileOn(b *testing.B, src string, tab *storage.Table) *eval.Compiled {
	b.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := eval.Compile(e, &eval.Env{Schema: tab.Schema})
	if err != nil {
		b.Fatal(err)
	}
	if !c.Vectorized() {
		b.Fatalf("%q compiled without a batch kernel", src)
	}
	return c
}

func mustRows(b *testing.B, n Node, vec bool) []schema.Row {
	b.Helper()
	res, err := Run(NewCtx().SetParallelism(1).SetVectorize(vec), n)
	if err != nil {
		b.Fatal(err)
	}
	return res.Rows
}

func assertSameRows(b *testing.B, name string, want, got []schema.Row) {
	b.Helper()
	if len(want) != len(got) {
		b.Fatalf("%s: %d rows, baseline %d", name, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				b.Fatalf("%s: row %d col %d = %v, baseline %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

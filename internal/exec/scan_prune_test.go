package exec

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// pruneTable builds t(a) = 0..n-1 in segments of segRows rows.
func pruneTable(t *testing.T, n, segRows int) *storage.Table {
	t.Helper()
	old := storage.DefaultSegmentRows
	storage.DefaultSegmentRows = segRows
	t.Cleanup(func() { storage.DefaultSegmentRows = old })
	tab := storage.NewTable("t", intSchema("a"))
	for i := int64(0); i < int64(n); i++ {
		if err := tab.Append(schema.Row{types.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// fusedScan builds a ScanNode with src fused as predicate and the given
// zone preds.
func fusedScan(t *testing.T, tab *storage.Table, src string, zone []storage.ZonePred) *ScanNode {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanNode(tab)
	pred, err := eval.Compile(e, &eval.Env{Schema: s.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	return fuse(s, pred, src, zone)
}

func runScan(t *testing.T, s *ScanNode, vec bool) (*Result, *NodeStats) {
	t.Helper()
	ctx := NewCtx().SetVectorize(vec).EnableStats()
	res, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctx.Stats(s)
}

func TestZoneMapPruningSkipsSegments(t *testing.T) {
	tab := pruneTable(t, 64, 8) // 8 sealed segments, no tail
	lo := types.NewInt(48)
	zone := []storage.ZonePred{{Col: 0, Bounds: storage.Bounds{Lo: &lo, LoIncl: true}}}
	scan := fusedScan(t, tab, "a >= 48", zone)

	res, st := runScan(t, scan, true)
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	if st.Segments != 8 || st.Pruned != 6 {
		t.Fatalf("segments=%d pruned=%d, want 8/6", st.Segments, st.Pruned)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(48+i) {
			t.Fatalf("row %d = %v", i, r[0])
		}
	}
}

func TestZoneMapPruningDisabledUnderRowEval(t *testing.T) {
	tab := pruneTable(t, 64, 8)
	lo := types.NewInt(48)
	zone := []storage.ZonePred{{Col: 0, Bounds: storage.Bounds{Lo: &lo, LoIncl: true}}}

	vecRes, vecSt := runScan(t, fusedScan(t, tab, "a >= 48", zone), true)
	rowRes, rowSt := runScan(t, fusedScan(t, tab, "a >= 48", zone), false)
	// Row mode is the pruning correctness baseline: it reads every
	// segment and must produce the identical answer.
	if rowSt.Pruned != 0 {
		t.Fatalf("row-eval pruned %d segments, want 0", rowSt.Pruned)
	}
	if vecSt.Pruned == 0 {
		t.Fatal("vector eval pruned nothing")
	}
	if len(vecRes.Rows) != len(rowRes.Rows) {
		t.Fatalf("vector %d rows vs row %d rows", len(vecRes.Rows), len(rowRes.Rows))
	}
	for i := range vecRes.Rows {
		if vecRes.Rows[i][0] != rowRes.Rows[i][0] {
			t.Fatalf("row %d differs: %v vs %v", i, vecRes.Rows[i][0], rowRes.Rows[i][0])
		}
	}
}

func TestZoneMapPredicateStraddlesSegments(t *testing.T) {
	tab := pruneTable(t, 40, 8) // segments [0,8) [8,16) [16,24) [24,32) [32,40)
	lo, hi := types.NewInt(14), types.NewInt(17)
	zone := []storage.ZonePred{{Col: 0, Bounds: storage.Bounds{Lo: &lo, LoIncl: true, Hi: &hi, HiIncl: true}}}
	scan := fusedScan(t, tab, "a >= 14 and a <= 17", zone)

	res, st := runScan(t, scan, true)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (14..17 across a segment boundary)", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(14+i) {
			t.Fatalf("row %d = %v", i, r[0])
		}
	}
	// The two segments covering [8,16) and [16,24) survive; the other
	// three are pruned.
	if st.Segments != 5 || st.Pruned != 3 {
		t.Fatalf("segments=%d pruned=%d, want 5/3", st.Segments, st.Pruned)
	}
}

func TestZoneMapTailAndPartialSegments(t *testing.T) {
	tab := pruneTable(t, 20, 8) // 2 sealed + 4-row tail (16..19)
	lo := types.NewInt(18)
	zone := []storage.ZonePred{{Col: 0, Bounds: storage.Bounds{Lo: &lo, LoIncl: true}}}
	scan := fusedScan(t, tab, "a >= 18", zone)

	res, st := runScan(t, scan, true)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// Both sealed segments are prunable; the tail never is.
	if st.Segments != 3 || st.Pruned != 2 {
		t.Fatalf("segments=%d pruned=%d, want 3/2", st.Segments, st.Pruned)
	}
}

package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/types"
)

func testTable(t *testing.T, vals []int64) *Table {
	t.Helper()
	tab := NewTable("t", schema.New(
		schema.Col("t", "id", types.KindInt),
		schema.Col("t", "v", types.KindInt),
	))
	for i, v := range vals {
		row := schema.Row{types.NewInt(int64(i)), types.NewInt(v)}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestAppendArityCheck(t *testing.T) {
	tab := testTable(t, nil)
	if err := tab.Append(schema.Row{types.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if tab.RowCount() != 0 {
		t.Fatal("failed append must not add rows")
	}
}

func TestIndexScanBounds(t *testing.T) {
	tab := testTable(t, []int64{5, 3, 9, 1, 7, 3})
	if err := tab.BuildIndex("v"); err != nil {
		t.Fatal(err)
	}
	if tab.IndexOn("v") == nil {
		t.Fatal("index missing")
	}
	collect := func(b Bounds) []int64 {
		var out []int64
		for _, rid := range tab.Lookup(1, []Bounds{b})[0] {
			out = append(out, tab.RowAt(int(rid))[1].Int())
		}
		return out
	}
	v3, v7 := types.NewInt(3), types.NewInt(7)
	if got := collect(Bounds{Lo: &v3, LoIncl: true, Hi: &v7, HiIncl: false}); len(got) != 3 || got[0] != 3 || got[1] != 3 || got[2] != 5 {
		t.Errorf("range [3,7) = %v", got)
	}
	if got := collect(Bounds{Lo: &v3, LoIncl: false}); len(got) != 3 {
		t.Errorf("range (3,∞) = %v", got)
	}
	if got := collect(Bounds{Equals: &v3}); len(got) != 2 {
		t.Errorf("equals 3 = %v", got)
	}
	if got := collect(Bounds{}); len(got) != 6 {
		t.Errorf("full scan = %v", got)
	}
	hi := types.NewInt(-5)
	if got := collect(Bounds{Hi: &hi, HiIncl: true}); len(got) != 0 {
		t.Errorf("empty range = %v", got)
	}
}

func TestIndexSkipsNulls(t *testing.T) {
	tab := NewTable("t", schema.New(schema.Col("t", "v", types.KindInt)))
	tab.Append(schema.Row{types.NewInt(1)}, schema.Row{types.Null}, schema.Row{types.NewInt(2)})
	if err := tab.BuildIndex("v"); err != nil {
		t.Fatal(err)
	}
	if got := tab.IndexOn("v").Len(); got != 2 {
		t.Errorf("index len = %d, want 2 (nulls excluded)", got)
	}
}

func TestBuildIndexUnknownColumn(t *testing.T) {
	tab := testTable(t, []int64{1})
	if err := tab.BuildIndex("nope"); err == nil {
		t.Fatal("unknown column should error")
	}
	if tab.IndexOn("nope") != nil {
		t.Fatal("no index expected")
	}
}

// Property: index range scans agree with a linear filter for random data
// and random bounds.
func TestIndexScanMatchesLinearScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		tab := NewTable("t", schema.New(schema.Col("t", "v", types.KindInt)))
		for _, v := range vals {
			tab.Append(schema.Row{types.NewInt(v)})
		}
		tab.BuildIndex("v")
		lo := types.NewInt(int64(rng.Intn(50)))
		hi := types.NewInt(int64(rng.Intn(50)))
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		got := tab.Lookup(0, []Bounds{{Lo: &lo, LoIncl: loIncl, Hi: &hi, HiIncl: hiIncl}})[0]
		var want []int32
		for i, v := range vals {
			okLo := v > lo.Int() || (loIncl && v == lo.Int())
			okHi := v < hi.Int() || (hiIncl && v == hi.Int())
			if okLo && okHi {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Lookup over an index built part-way through the appends
// returns exactly the rows a linear filter keeps, per range, in (value,
// row ID) order — the covered prefix from the index, the rest checked in
// zone-pruned sealed segments and the tail.
func TestLookupCoversRowsAppendedAfterBuildProperty(t *testing.T) {
	defer func(n int) { DefaultSegmentRows = n }(DefaultSegmentRows)
	DefaultSegmentRows = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("t", schema.New(schema.Col("t", "v", types.KindInt)))
		var vals []types.Value
		add := func(n, lo, span int) {
			for i := 0; i < n; i++ {
				v := types.NewInt(int64(lo + rng.Intn(span)))
				if rng.Intn(10) == 0 {
					v = types.Null
				}
				vals = append(vals, v)
				tab.Append(schema.Row{v})
			}
		}
		add(rng.Intn(60), 0, 40)
		tab.BuildIndex("v")
		// Later values drift upward, so some suffix segments prune.
		add(rng.Intn(60), rng.Intn(60), 20)
		var ranges []Bounds
		for lo := int64(rng.Intn(5)); lo < 80; lo += int64(2 + rng.Intn(15)) {
			l, h := types.NewInt(lo), types.NewInt(lo+int64(rng.Intn(2)))
			if rng.Intn(2) == 0 {
				ranges = append(ranges, Bounds{Equals: &l})
			} else {
				ranges = append(ranges, Bounds{Lo: &l, LoIncl: true, Hi: &h, HiIncl: true})
			}
		}
		got := tab.Lookup(0, ranges)
		for i, b := range ranges {
			b = b.ranged()
			var want []int32
			for id, v := range vals {
				if !v.IsNull() && !b.belowLo(v) && !b.aboveHi(v) {
					want = append(want, int32(id))
				}
			}
			sort.SliceStable(want, func(a, c int) bool { return vals[want[a]].Int() < vals[want[c]].Int() })
			if len(got[i]) != len(want) {
				return false
			}
			for k := range want {
				if got[i][k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeStats(t *testing.T) {
	tab := testTable(t, []int64{5, 3, 9, 1, 7, 3})
	tab.Append(schema.Row{types.NewInt(99), types.Null})
	tab.Analyze()
	st := tab.Stats(1)
	if st == nil {
		t.Fatal("stats missing")
	}
	if st.NonNull != 6 {
		t.Errorf("NonNull = %d", st.NonNull)
	}
	if st.Distinct != 5 {
		t.Errorf("Distinct = %d", st.Distinct)
	}
	if st.Min.Int() != 1 || st.Max.Int() != 9 {
		t.Errorf("Min/Max = %v/%v", st.Min, st.Max)
	}
}

func TestRangeSelectivity(t *testing.T) {
	st := &ColStats{NonNull: 100, Distinct: 100, Min: types.NewInt(0), Max: types.NewInt(100)}
	lo, hi := types.NewInt(0), types.NewInt(10)
	if got := st.RangeSelectivity(&lo, &hi); got < 0.099 || got > 0.101 {
		t.Errorf("selectivity = %v, want ~0.1", got)
	}
	if got := st.RangeSelectivity(nil, nil); got != 1.0 {
		t.Errorf("unbounded selectivity = %v", got)
	}
	lo2 := types.NewInt(200)
	if got := st.RangeSelectivity(&lo2, nil); got != 0 {
		t.Errorf("out-of-range selectivity = %v", got)
	}
	var nilStats *ColStats
	if got := nilStats.RangeSelectivity(nil, nil); got <= 0 || got > 1 {
		t.Errorf("fallback selectivity = %v", got)
	}
}

func TestEqSelectivityAndDistinctAfter(t *testing.T) {
	st := &ColStats{NonNull: 1000, Distinct: 50}
	if got := st.EqSelectivity(); got != 0.02 {
		t.Errorf("EqSelectivity = %v", got)
	}
	// Keeping all rows should recover about all distinct values.
	if got := st.DistinctAfter(1000); got < 49 {
		t.Errorf("DistinctAfter(1000) = %v, want ≈50", got)
	}
	// Keeping very few rows keeps few distincts.
	if got := st.DistinctAfter(1); got > 1.0001 {
		t.Errorf("DistinctAfter(1) = %v", got)
	}
	if got := st.DistinctAfter(0); got != 0 {
		t.Errorf("DistinctAfter(0) = %v", got)
	}
}

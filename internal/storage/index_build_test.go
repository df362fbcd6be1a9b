package storage_test

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rfidgen"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// mixedTable is a table of 1000 rows over 64-row segments (15 sealed and
// a tail), a column of every kind plus fnan, a FLOAT column holding NaN;
// every column has NULLs and duplicates.
func mixedTable(t testing.TB) *storage.Table {
	t.Helper()
	defer func(n int) { storage.DefaultSegmentRows = n }(storage.DefaultSegmentRows)
	storage.DefaultSegmentRows = 64
	kinds := []types.Kind{types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindTime, types.KindInterval, types.KindFloat}
	names := []string{"b", "i", "f", "s", "tm", "iv", "fnan"}
	cols := make([]schema.Column, len(kinds))
	for j, k := range kinds {
		cols[j] = schema.Col("mixed", names[j], k)
	}
	tab := storage.NewTable("mixed", schema.New(cols...))
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, 42}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, math.Inf(1), math.Inf(-1), 1 << 53, 1e-300}
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "b", "\xff", "urn:epc:1"}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 1000; r++ {
		row := make(schema.Row, len(kinds))
		for j := range row {
			if rng.Intn(8) == 0 {
				continue // NULL
			}
			x := rng.Intn(len(ints))
			switch names[j] {
			case "b":
				row[j] = types.NewBool(x%2 == 0)
			case "i":
				row[j] = types.NewInt(ints[x])
			case "f":
				row[j] = types.NewFloat(floats[x])
			case "s":
				row[j] = types.NewString(strs[x])
			case "tm":
				row[j] = types.NewTime(ints[x])
			case "iv":
				row[j] = types.NewInterval(ints[x] / 3)
			case "fnan":
				if r > 0 && x == 0 {
					row[j] = types.NewFloat(math.NaN())
				} else {
					row[j] = types.NewFloat(floats[x])
				}
			}
		}
		if r == 0 {
			row[len(row)-1] = types.NewFloat(2) // the hash pass's bounds start from a number
		}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// referenceIndex is the index build this package had before sort keys:
// every non-null (value, row ID) in row order, stable-sorted by
// types.Compare — here without the NaNs, which it orders arbitrarily
// (types.Compare calls NaN equal to every number); their row IDs come
// back apart, ascending.
func referenceIndex(tab *storage.Table, ord int) (vals []types.Value, rows, nans []int32) {
	type entry struct {
		v   types.Value
		row int32
	}
	var entries []entry
	for _, seg := range tab.Segments() {
		for i := 0; i < seg.Len(); i++ {
			switch v := seg.Value(ord, i); {
			case isNaN(v):
				nans = append(nans, int32(seg.Base+i))
			case !v.IsNull():
				entries = append(entries, entry{v, int32(seg.Base + i)})
			}
		}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		c, err := types.Compare(entries[a].v, entries[b].v)
		return err == nil && c < 0
	})
	for _, e := range entries {
		vals, rows = append(vals, e.v), append(rows, e.row)
	}
	return vals, rows, nans
}

func isNaN(v types.Value) bool { return v.Kind() == types.KindFloat && math.IsNaN(v.Float()) }

// TestBuildIndexOrderMatchesReference: on every column of the mixed
// table the index holds exactly the reference build's (value, row ID)
// lists, then the column's NaN rows (fnan's) in row ID order.
func TestBuildIndexOrderMatchesReference(t *testing.T) {
	tab := mixedTable(t)
	if tab.SegmentCount() != 15 || tab.RowCount() != 1000 {
		t.Fatalf("%d sealed segments, %d rows; want 15 and a tail", tab.SegmentCount(), tab.RowCount())
	}
	for ord, col := range tab.Schema.Columns {
		if err := tab.BuildIndex(col.Name); err != nil {
			t.Fatal(err)
		}
		vals, rows := tab.IndexOn(col.Name).Entries()
		wantVals, wantRows, nans := referenceIndex(tab, ord)
		if (col.Name == "fnan") != (len(nans) > 0) {
			t.Fatalf("column %s holds %d NaNs", col.Name, len(nans))
		}
		for _, id := range nans {
			wantVals, wantRows = append(wantVals, types.NewFloat(math.NaN())), append(wantRows, id)
		}
		if !slices.Equal(rows, wantRows) {
			t.Fatalf("column %s: row IDs\n got %v\nwant %v", col.Name, rows, wantRows)
		}
		for i, v := range vals {
			w := wantVals[i]
			if v.Kind() != w.Kind() || v.String() != w.String() || math.Signbit(floatOf(v)) != math.Signbit(floatOf(w)) {
				t.Fatalf("column %s: entry %d is %v, want %v", col.Name, i, v, w)
			}
		}
	}
}

func floatOf(v types.Value) float64 {
	if v.Kind() == types.KindFloat {
		return v.Float()
	}
	return 0
}

// hashStats is Analyze's pass over a column without a covering index,
// kept here as the reference for the statistics an index yields.
func hashStats(tab *storage.Table, ord int) storage.ColStats {
	st := storage.ColStats{Min: types.Null, Max: types.Null}
	seen := map[string]bool{}
	for _, seg := range tab.Segments() {
		for i := 0; i < seg.Len(); i++ {
			v := seg.Value(ord, i)
			if v.IsNull() {
				continue
			}
			st.NonNull++
			seen[string(types.AppendSortKey(nil, v, false))] = true
			if st.Min.IsNull() {
				st.Min, st.Max = v, v
				continue
			}
			if c, err := types.Compare(v, st.Min); err == nil && c < 0 {
				st.Min = v
			}
			if c, err := types.Compare(v, st.Max); err == nil && c > 0 {
				st.Max = v
			}
		}
	}
	st.Distinct = len(seen)
	return st
}

// TestAnalyzeFromIndexMatchesHash: for every column of the scale-4 RFID
// workload and of the mixed table, the statistics Analyze takes from an
// index equal the hash pass's. (The hash pass's bounds ignore a NaN
// unless it comes first; fnan's first value is a number.)
func TestAnalyzeFromIndexMatchesHash(t *testing.T) {
	db := catalog.NewDatabase()
	if err := rfidgen.Generate(rfidgen.Config{Scale: 4, AnomalyPct: 10, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	mixed := mixedTable(t)
	for _, col := range mixed.Schema.Columns {
		if err := mixed.BuildIndex(col.Name); err != nil {
			t.Fatal(err)
		}
	}
	mixed.Analyze()
	tables := []*storage.Table{mixed}
	for _, name := range db.TableNames() {
		tab, _ := db.Table(name)
		tables = append(tables, tab)
	}
	indexed := 0
	for _, tab := range tables {
		for ord, col := range tab.Schema.Columns {
			if tab.HasIndex(ord) {
				indexed++
			}
			got, want := tab.Stats(ord), hashStats(tab, ord)
			if got == nil || !reflect.DeepEqual(*got, want) {
				t.Errorf("%s.%s: stats %+v, hash pass %+v", tab.Name, col.Name, got, want)
			}
		}
	}
	if indexed < 20 {
		t.Fatalf("only %d indexed columns", indexed)
	}
}

// BenchmarkBuildIndex builds each index of a caser-shaped table
// (REPRO_BENCH_SCALE × 1500 rows, default 8) from rfidgen's reads.
func BenchmarkBuildIndex(b *testing.B) {
	scale := 8
	if v, err := strconv.Atoi(os.Getenv("REPRO_BENCH_SCALE")); err == nil && v > 0 {
		scale = v
	}
	tab := storage.NewTable("caser", rfidgen.ReadsSchema("caser"))
	for _, r := range rfidgen.Generate(rfidgen.Config{Scale: scale, AnomalyPct: 10, Seed: 1}).CaseR {
		row := schema.Row{
			types.NewString(r.EPC), types.NewTimeFrom(r.RTime),
			types.NewString(r.Reader), types.NewString(r.BizLoc), types.NewString(r.BizStep),
		}
		if err := tab.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	for _, col := range []string{"epc", "rtime", "biz_loc", "biz_step"} {
		b.Run(col, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tab.BuildIndex(col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

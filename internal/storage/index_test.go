package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

// indexPools are the values of the differential test's columns: INT,
// FLOAT (with INT ties at 0, 1 and past 2^53, NaN, −0 and ±Inf), STRING
// (with 0x00 bytes and prefixes) and TIME.
var indexPools = [][]types.Value{
	{types.NewInt(-2), types.NewInt(0), types.NewInt(1), types.NewInt(3), types.NewInt(1<<53 + 1), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64)},
	{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1), types.NewInt(1), types.NewInt(0), types.NewFloat(-1.5),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(1 << 53), types.NewInt(1<<53 + 1), types.NewInt(1<<54 + 3), types.NewFloat(1<<54 + 4)},
	{types.NewString(""), types.NewString("a"), types.NewString("a\x00"), types.NewString("a\x00b"), types.NewString("ab"), types.NewString("b")},
	{types.NewTime(-5), types.NewTime(0), types.NewTime(7), types.NewTime(1136214245000000)},
}

// TestLookupMatchesFreshBuildProperty: under random append schedules —
// 1-row appends, batches that cross seals of 8-row segments, BuildIndex
// at a random point and sometimes again — Lookup over random equality
// and range bounds, single and several at once, returns the IDs, in the
// same order, that Lookup returns after a fresh BuildIndex over the same
// rows; the index holds one entry per non-null value, and every run
// after the build run is in (value, row ID) order.
func TestLookupMatchesFreshBuildProperty(t *testing.T) {
	defer func(n int) { DefaultSegmentRows = n }(DefaultSegmentRows)
	DefaultSegmentRows = 8
	cols := make([]schema.Column, len(indexPools))
	for j, name := range []string{"i", "f", "s", "tm"} {
		cols[j] = schema.Col("t", name, indexPools[j][0].Kind())
	}
	sch := schema.New(cols...)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		row := func() schema.Row {
			r := make(schema.Row, len(cols))
			for j, pool := range indexPools {
				if rng.Intn(6) > 0 {
					r[j] = pool[rng.Intn(len(pool))]
				}
			}
			return r
		}
		// A bound is mostly from its column's pool, sometimes from
		// another column's (another sort class).
		bound := func(ord int) *types.Value {
			pool := indexPools[ord]
			if rng.Intn(10) == 0 {
				pool = indexPools[rng.Intn(len(indexPools))]
			}
			v := pool[rng.Intn(len(pool))]
			return &v
		}
		ranges := func(ord int) []Bounds {
			if rng.Intn(3) == 0 { // several equalities, sorted and distinct, as a probe asks
				var keys []types.Value
				for k := rng.Intn(5); k >= 0; k-- {
					keys = append(keys, *bound(ord))
				}
				slices.SortFunc(keys, types.CompareSortKey)
				keys = slices.CompactFunc(keys, func(a, b types.Value) bool { return types.CompareSortKey(a, b) == 0 })
				rs := make([]Bounds, len(keys))
				for k := range keys {
					rs[k].Equals = &keys[k]
				}
				return rs
			}
			b := Bounds{LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
			switch rng.Intn(4) {
			case 0:
				b.Equals = bound(ord)
			case 1:
				b.Lo = bound(ord)
			case 2:
				b.Hi = bound(ord)
			default:
				b.Lo, b.Hi = bound(ord), bound(ord)
			}
			return []Bounds{b}
		}

		tab := NewTable("t", sch)
		var rows []schema.Row
		check := func(step int) {
			ref := NewTable("t", sch)
			if err := ref.Append(rows...); err != nil {
				t.Fatal(err)
			}
			for ord, ix := range tab.indexes {
				if err := ref.BuildIndex(cols[ord].Name); err != nil {
					t.Fatal(err)
				}
				if got, want := ix.Len(), ref.indexes[ord].Len(); got != want {
					t.Fatalf("seed %d step %d: index on %s holds %d entries, want %d", seed, step, cols[ord].Name, got, want)
				}
				for _, r := range append(slices.Clone(ix.segs), ix.tail...) {
					for k := 1; k < len(r); k++ {
						c := types.CompareSortKey(tab.value(ord, int(r[k-1])), tab.value(ord, int(r[k])))
						if c > 0 || c == 0 && r[k-1] > r[k] {
							t.Fatalf("seed %d step %d: run %v on %s is out of (value, row ID) order", seed, step, r, cols[ord].Name)
						}
					}
				}
			}
			for q := 0; q < 30 && len(tab.indexes) > 0; q++ {
				ord := rng.Intn(len(cols))
				rs := ranges(ord)
				got, want := tab.Lookup(ord, rs), ref.Lookup(ord, rs)
				for k := range rs {
					if !slices.Equal(got[k], want[k]) {
						t.Fatalf("seed %d step %d: %s range %+v\n got %v\nwant %v", seed, step, cols[ord].Name, rs[k].ranged(), got[k], want[k])
					}
				}
			}
		}
		steps := 5 + rng.Intn(25)
		buildAt := rng.Intn(steps)
		for step := 0; step < steps; step++ {
			if step == buildAt || step > buildAt && rng.Intn(12) == 0 {
				for _, c := range cols {
					if err := tab.BuildIndex(c.Name); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := 1
			if rng.Intn(2) == 0 {
				n = rng.Intn(30)
			}
			batch := make([]schema.Row, n)
			for k := range batch {
				batch[k] = row()
			}
			if err := tab.Append(batch...); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, batch...)
			if step == steps-1 || rng.Intn(4) == 0 {
				check(step)
			}
		}
	}
}

// TestLookupRangeIsOneSortClass: a range holds only values of its bounds'
// sort class, and none when its two bounds' classes differ.
func TestLookupRangeIsOneSortClass(t *testing.T) {
	tab := NewTable("t", schema.New(schema.Col("t", "v", types.KindString)))
	for _, v := range []types.Value{types.NewString("a"), types.NewInt(5), types.NewString("b"), types.NewTime(5)} {
		if err := tab.Append(schema.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.BuildIndex("v"); err != nil {
		t.Fatal(err)
	}
	five, s := types.NewInt(5), types.NewString("a")
	for _, c := range []struct {
		b    Bounds
		want []int32
	}{
		{Bounds{Lo: &five, LoIncl: true}, []int32{1}},
		{Bounds{Hi: &five, HiIncl: true}, []int32{1}},
		{Bounds{Lo: &s, LoIncl: true}, []int32{0, 2}},
		{Bounds{Hi: &s}, nil},
		{Bounds{Lo: &five, LoIncl: true, Hi: &s, HiIncl: true}, nil},
		{Bounds{}, []int32{1, 0, 2, 3}},
	} {
		if got := tab.Lookup(0, []Bounds{c.b})[0]; !slices.Equal(got, c.want) {
			t.Errorf("%+v: got %v, want %v", c.b, got, c.want)
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// bigRows builds a deterministic mixed-type table comfortably above
// ParallelThreshold: id ascending, k with heavy duplication (exercises
// sort stability and grouping), f a float payload, s a low-cardinality
// string, plus a NULL sprinkled into every column.
func bigRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := 0; i < n; i++ {
		id := types.NewInt(int64(i))
		k := types.NewInt(int64((i * 7919) % 97))
		f := types.NewFloat(float64(i%1000) * 0.125)
		s := types.NewString(fmt.Sprintf("s%02d", i%53))
		if i%211 == 0 {
			k = types.Null
		}
		if i%307 == 0 {
			f = types.Null
		}
		rows[n-1-i] = schema.Row{id, k, f, s}
	}
	return rows
}

func bigSchema() *schema.Schema {
	s := &schema.Schema{}
	for i, n := range []string{"id", "k", "f", "s"} {
		kind := types.KindInt
		switch i {
		case 2:
			kind = types.KindFloat
		case 3:
			kind = types.KindString
		}
		s.Columns = append(s.Columns, schema.Col("t", n, kind))
	}
	return s
}

// execBoth runs the same plan serially and with 8 workers and asserts
// the outputs are identical cell by cell — the core determinism
// guarantee of the morsel framework.
func execBoth(t *testing.T, n Node) {
	t.Helper()
	serial, err := Run(NewCtx().SetParallelism(1), n)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(NewCtx().SetParallelism(8), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count: serial %d vs parallel %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if len(serial.Rows[i]) != len(parallel.Rows[i]) {
			t.Fatalf("row %d width mismatch", i)
		}
		for j := range serial.Rows[i] {
			a, b := serial.Rows[i][j], parallel.Rows[i][j]
			if !a.Equal(b) || a.IsNull() != b.IsNull() {
				t.Fatalf("row %d col %d: serial %s vs parallel %s", i, j, a.SQL(), b.SQL())
			}
		}
	}
}

func TestParallelFilterMatchesSerial(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(20000))
	pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		if r[1].IsNull() {
			return types.Null, nil
		}
		return types.NewBool(r[1].Int()%3 == 0), nil
	})
	execBoth(t, NewFilterNode(in, pred, "k%3=0"))
}

func TestParallelProjectMatchesSerial(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(20000))
	double := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewInt(r[0].Int() * 2), nil
	})
	execBoth(t, NewProjectNode(in, intSchema("a", "b"), []*eval.Compiled{colFn(0), double}))
}

func TestParallelSortMatchesSerial(t *testing.T) {
	// Heavy duplication in the key makes any stability violation visible.
	in := NewValuesNode(bigSchema(), bigRows(30000))
	execBoth(t, NewSortNode(in, []*eval.Compiled{colFn(1), colFn(3)}, []bool{false, true}))
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	// id%4096 keeps per-key match lists short (a few rows) while still
	// exercising duplicate keys and NULL handling.
	modKey := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		if r[0].Int()%977 == 0 {
			return types.Null, nil
		}
		return types.NewInt(r[0].Int() % 4096), nil
	})
	build := func(kind JoinKind, residual *eval.Compiled) Node {
		l := NewValuesNode(bigSchema(), bigRows(20000))
		r := NewValuesNode(bigSchema(), bigRows(9000))
		return NewHashJoinNode(l, r, []*eval.Compiled{modKey}, []*eval.Compiled{modKey}, kind, residual, "k=k")
	}
	t.Run("inner", func(t *testing.T) { execBoth(t, build(JoinKindInner, nil)) })
	t.Run("left", func(t *testing.T) { execBoth(t, build(JoinKindLeft, nil)) })
	t.Run("residual", func(t *testing.T) {
		res := eval.FromFunc(func(r schema.Row) (types.Value, error) {
			return types.NewBool(r[0].Int() < r[4].Int()), nil
		})
		execBoth(t, build(JoinKindInner, res))
	})
}

func TestParallelGroupMatchesSerial(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(25000))
	out := &schema.Schema{}
	for _, n := range []string{"k", "c", "cd", "sf", "si", "av", "mn", "mx"} {
		out.Columns = append(out.Columns, schema.Col("", n, types.KindInt))
	}
	aggs := []AggSpec{
		{Func: "count", OutName: "c"},
		{Func: "count", Arg: colFn(3), Distinct: true, OutName: "cd"},
		{Func: "sum", Arg: colFn(2), OutName: "sf"},
		{Func: "sum", Arg: colFn(0), OutName: "si"},
		{Func: "avg", Arg: colFn(2), OutName: "av"},
		{Func: "min", Arg: colFn(0), OutName: "mn"},
		{Func: "max", Arg: colFn(2), OutName: "mx"},
	}
	execBoth(t, NewGroupNode(in, out, []*eval.Compiled{colFn(1)}, aggs))
}

func TestParallelGlobalAggMatchesSerial(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(25000))
	out := &schema.Schema{Columns: []schema.Column{schema.Col("", "sf", types.KindFloat)}}
	execBoth(t, NewGroupNode(in, out, nil, []AggSpec{{Func: "sum", Arg: colFn(2), OutName: "sf"}}))
}

func TestParallelDistinctAndSetOpsMatchSerial(t *testing.T) {
	proj := func(n int) Node {
		in := NewValuesNode(bigSchema(), bigRows(n))
		return NewProjectNode(in, intSchema("k", "s"), []*eval.Compiled{colFn(1), colFn(3)})
	}
	t.Run("distinct", func(t *testing.T) { execBoth(t, NewDistinct(proj(20000))) })
	t.Run("union", func(t *testing.T) {
		n, err := NewUnionNode(proj(15000), proj(9000))
		if err != nil {
			t.Fatal(err)
		}
		execBoth(t, NewDistinct(n))
	})
	t.Run("except", func(t *testing.T) {
		n, err := NewSetOp(proj(15000), proj(9000), false)
		if err != nil {
			t.Fatal(err)
		}
		execBoth(t, n)
	})
	t.Run("intersect", func(t *testing.T) {
		n, err := NewSetOp(proj(15000), proj(9000), true)
		if err != nil {
			t.Fatal(err)
		}
		execBoth(t, n)
	})
}

func TestParallelIndexScanMatchesSerial(t *testing.T) {
	tab := storage.NewTable("t", intSchema("a"))
	for i := 0; i < 20000; i++ {
		tab.Append(schema.Row{types.NewInt(int64((i * 7919) % 20011))})
	}
	tab.BuildIndex("a")
	lo := types.NewInt(100)
	execBoth(t, indexRange(NewScanNode(tab), 0, storage.Bounds{Lo: &lo, LoIncl: true}))
}

// Sort keys must be computed once per row, never per comparison — a
// counting key function proves it at both parallelism settings, in
// memory and spilled to disk under a 64 KiB budget.
func TestSortEvaluatesKeysOncePerRow(t *testing.T) {
	const n = 20000
	for _, spill := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			in := NewValuesNode(bigSchema(), bigRows(n))
			var calls atomic.Int64
			key := eval.FromFunc(func(r schema.Row) (types.Value, error) {
				calls.Add(1)
				return r[1], nil
			})
			ctx := NewCtx()
			if spill {
				ctx, _ = spillCtx(t, 64<<10)
			}
			if _, err := Run(ctx.SetParallelism(par), NewSortNode(in, []*eval.Compiled{key}, []bool{false})); err != nil {
				t.Fatal(err)
			}
			if spill && !ctx.Resources().Stats().Spilled() {
				t.Fatalf("par=%d: sort did not spill", par)
			}
			if got := calls.Load(); got != n {
				t.Fatalf("spill=%v par=%d: key func called %d times for %d rows", spill, par, got, n)
			}
		}
	}
}

// The keying hot path — encode a row's key columns and hash them — must
// not allocate.
func TestKeyEncodingZeroAllocs(t *testing.T) {
	row := schema.Row{types.NewInt(12345), types.NewString("case07"), types.NewFloat(2.5), types.Null}
	keys := []*eval.Compiled{colFn(0), colFn(1), colFn(2), colFn(3)}
	var enc keyEnc
	enc.funcs(keys, row) // warm the scratch buffer
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		key, _, _ := enc.funcs(keys, row)
		sink += hashKey(key)
	})
	if allocs != 0 {
		t.Fatalf("key encode+hash allocates %.1f per row", allocs)
	}
	_ = sink
}

// Canceling mid-operator must stop parallel workers: a predicate cancels
// the context partway through a large parallel filter, and the query
// must fail with the context's error.
func TestCancellationInsideParallelOperator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := NewValuesNode(bigSchema(), bigRows(200000))
	var n atomic.Int64
	pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		if n.Add(1) == 10000 {
			cancel()
		}
		return types.NewBool(true), nil
	})
	_, err := Run(NewCtxWith(ctx).SetParallelism(8), NewFilterNode(in, pred, "cancelable"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// EXPLAIN ANALYZE must surface per-operator fan-out.
func TestExplainAnalyzeReportsWorkers(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(20000))
	n := NewFilterNode(in, eval.FromFunc(func(schema.Row) (types.Value, error) { return types.NewBool(true), nil }), "true")
	ctx := NewAnalyzeCtx().SetParallelism(4)
	if _, err := Run(ctx, n); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats(n)
	if st == nil || st.Workers != 4 {
		t.Fatalf("stats = %+v, want Workers=4", st)
	}
	out := ExplainAnalyze(n, ctx)
	if want := "workers=4"; !strings.Contains(out, want) {
		t.Fatalf("ExplainAnalyze missing %q:\n%s", want, out)
	}
}

// TestWideParallelismSizesScratchByFanOut: a pipeline stage's per-worker
// scratch is sized by the workers its pump runs — one over a few rows —
// not by the context's parallelism, so a huge requested width over a
// filter → project → window → hash-join pipeline allocates next to
// nothing.
func TestWideParallelismSizesScratchByFanOut(t *testing.T) {
	plan := func() Node {
		in := NewValuesNode(intSchema("a", "b"), intRows([]int64{0, 1}, []int64{1, 1}, []int64{2, 2}, []int64{4, 2}))
		f := NewFilterNode(in, evenPred(), "a%2=0")
		p := NewProjectNode(f, intSchema("b", "a"), []*eval.Compiled{colFn(1), colFn(0)})
		w := NewWindowNode(p, intSchema("b", "a", "w"), []*eval.Compiled{colFn(0)}, nil, nil,
			[]WindowAgg{{Func: "count", OutName: "w", Frame: FrameSpec{Mode: FramePartition}}})
		dim := NewValuesNode(intSchema("k"), intRows([]int64{0}, []int64{2}))
		return NewHashJoinNode(w, dim, []*eval.Compiled{colFn(1)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "a=k")
	}
	want, err := Run(NewCtx().SetParallelism(1), plan())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Run(NewCtx().SetParallelism(1<<20), plan())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("draining %d rows at parallelism 1<<20 allocated %d bytes, want < 1 MiB", len(got.Rows), d)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || len(want.Rows) != 2 {
		t.Fatalf("rows = %v, want %v (2 rows)", got.Rows, want.Rows)
	}
}

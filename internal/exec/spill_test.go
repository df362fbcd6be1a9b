package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// mixedRows builds a deterministic input with heavy key ties (so run
// merges and grace partitions exercise stability), float payloads (so
// accumulation order is observable bit-for-bit), and strings (so the
// spill codec's variable-length path runs).
func mixedRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = schema.Row{
			types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i%31) * 0.125),
			types.NewString(fmt.Sprintf("s%03d", i%50)),
			types.NewInt(int64(i)),
		}
	}
	return rows
}

func mixedSchema() *schema.Schema {
	s := &schema.Schema{}
	for _, n := range []string{"a", "b", "c", "d"} {
		s.Columns = append(s.Columns, schema.Col("t", n, types.KindInt))
	}
	return s
}

// spillCtx returns an execution context with a budget low enough to force
// every materializing operator to disk, plus the resources handle for
// inspection.
func spillCtx(t *testing.T, limit int64) (*Ctx, *govern.Resources) {
	t.Helper()
	res := govern.NewResources(limit, true, t.TempDir(), govern.Inject{})
	t.Cleanup(func() { res.Close() })
	return NewCtx().SetResources(res), res
}

func TestExternalSortBitIdenticalToInMemory(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{colFn(0), colFn(2)}, []bool{false, true})

	want := mustExec(t, sortn)

	ctx, res := spillCtx(t, 64<<10)
	got, err := Run(ctx, sortn)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats().Spilled() {
		t.Fatal("sort did not spill under a 64KiB budget")
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatal("external sort output differs from in-memory sort")
	}
}

func TestGraceGroupBitIdenticalToInMemory(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	out := intSchema("a", "c", "sum", "cnt", "avg", "min")
	aggs := []AggSpec{
		{Func: "sum", Arg: colFn(1), OutName: "sum"},
		{Func: "count", OutName: "cnt"},
		{Func: "avg", Arg: colFn(1), OutName: "avg"},
		{Func: "min", Arg: colFn(3), OutName: "min"},
	}
	group := NewGroupNode(in, out, []*eval.Compiled{colFn(0), colFn(2)}, aggs)

	want := mustExec(t, group)

	ctx, res := spillCtx(t, 64<<10)
	got, err := Run(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats().Spilled() {
		t.Fatal("aggregation did not spill under a 64KiB budget")
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatal("grace-hash aggregation output differs from in-memory aggregation")
	}
}

func TestKeylessAggregationStreamsWithoutFiles(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	out := intSchema("sum", "cnt")
	aggs := []AggSpec{
		{Func: "sum", Arg: colFn(1), OutName: "sum"},
		{Func: "count", OutName: "cnt"},
	}
	group := NewGroupNode(in, out, nil, aggs)

	want := mustExec(t, group)

	ctx, res := spillCtx(t, 32<<10)
	got, err := Run(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatal("streaming global aggregation differs from in-memory aggregation")
	}
	if st := res.Stats(); st.SpillRuns != 0 {
		t.Fatalf("global aggregation wrote %d spill runs; the streaming fold needs none", st.SpillRuns)
	}
}

func TestGraceJoinBitIdenticalToInMemory(t *testing.T) {
	lrows := mixedRows(12000)
	rrows := make([]schema.Row, 6000)
	for i := range rrows {
		key := types.NewInt(int64(i % 300))
		if i%37 == 0 {
			key = types.Null // never joins; left rows pad on the left-join path
		}
		rrows[i] = schema.Row{key, types.NewFloat(float64(i) * 0.5)}
	}
	left := NewValuesNode(mixedSchema(), lrows)
	right := NewValuesNode(intSchema("k", "v"), rrows)
	lk := []*eval.Compiled{eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewInt(r[3].Int() % 300), nil
	})}
	rk := []*eval.Compiled{colFn(0)}
	residual := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool((r[3].Int()+int64(r[5].Float()))%3 != 0), nil
	})

	for _, kind := range []JoinKind{JoinKindInner, JoinKindLeft} {
		join := NewHashJoinNode(left, right, lk, rk, kind, residual, "t.d%300 = r.k")
		want := mustExec(t, join)

		ctx, res := spillCtx(t, 64<<10)
		got, err := Run(ctx, join)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Stats().Spilled() {
			t.Fatalf("%s join did not spill under a 64KiB budget", kind)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: grace join rows = %d, in-memory = %d", kind, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Fatalf("%s: grace-hash join output differs from in-memory join", kind)
		}
	}
}

func TestSpillDisabledFailsWithResourceExhausted(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{colFn(0)}, []bool{false})

	res := govern.NewResources(64<<10, false, t.TempDir(), govern.Inject{})
	defer res.Close()
	_, err := Run(NewCtx().SetResources(res), sortn)
	if !errors.Is(err, govern.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	if !res.Exhausted() {
		t.Fatal("resources not marked exhausted")
	}
}

func TestSpillIOErrorFailsQueryCleanly(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{colFn(0)}, []bool{false})

	res := govern.NewResources(64<<10, true, t.TempDir(), govern.Inject{SpillErr: true})
	defer res.Close()
	_, err := Run(NewCtx().SetResources(res), sortn)
	if err == nil || !errors.Is(err, govern.ErrResourceExhausted) && err.Error() == "" {
		t.Fatalf("expected an error from the injected spill failure, got %v", err)
	}
	if err == nil {
		t.Fatal("query succeeded despite injected spill I/O error")
	}
}

func TestWorkerPanicBecomesErrInternal(t *testing.T) {
	for _, par := range []int{1, 4} {
		in := NewValuesNode(mixedSchema(), mixedRows(20000))
		pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
			return types.NewBool(r[0].Int()%2 == 0), nil
		})
		filter := NewFilterNode(in, pred, "a%2=0")

		res := govern.NewResources(0, false, "", govern.Inject{WorkerPanic: true})
		ctx := NewCtx().SetResources(res).SetParallelism(par)
		_, err := Run(ctx, filter)
		if !errors.Is(err, govern.ErrInternal) {
			t.Fatalf("par=%d: err = %v, want ErrInternal", par, err)
		}
		res.Close()

		// The injection is per-query: a fresh execution of the same plan
		// succeeds.
		clean, err := Run(NewCtx(), filter)
		if err != nil {
			t.Fatalf("par=%d: query after panic: %v", par, err)
		}
		if len(clean.Rows) == 0 {
			t.Fatalf("par=%d: no rows after recovery", par)
		}
	}
}

func TestCancelDuringExternalSortRemovesSpillFiles(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var calls atomic.Int64
	// The sort key cancels the query partway through run generation, after
	// several run files exist on disk.
	key := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		if calls.Add(1) == 8000 {
			cancel()
		}
		return r[0], nil
	})
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{key}, []bool{false})

	dir := t.TempDir()
	res := govern.NewResources(64<<10, true, dir, govern.Inject{})
	defer res.Close()
	_, err := Run(NewCtxWith(cctx).SetResources(res), sortn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every run file written before the cancellation must already be gone,
	// even before Resources.Close removes the directory itself.
	spillDir, err := res.SpillDir()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("canceled sort left %d spill files behind", len(ents))
	}
}

func TestExplainAnalyzeReportsSpill(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{colFn(0)}, []bool{false})

	res := govern.NewResources(64<<10, true, t.TempDir(), govern.Inject{})
	defer res.Close()
	ctx := NewAnalyzeCtx().SetResources(res)
	if _, err := Run(ctx, sortn); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats(sortn)
	if st == nil || st.SpillRuns == 0 {
		t.Fatalf("stats = %+v, want SpillRuns > 0", st)
	}
	out := ExplainAnalyze(sortn, ctx)
	if want := "spilled="; !containsStr(out, want) {
		t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSpillValueCodecRoundTrip writes values as sort-run records to a
// spill file, framed as externalSort frames them, and reads them back
// through advanceRun: every kind and the payloads a lossy encoding would
// mangle come back bit-identical, in order, with the row index intact.
func TestSpillValueCodecRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null,
		types.NewBool(true),
		types.NewBool(false),
		types.NewInt(0),
		types.NewInt(-1),
		types.NewInt(math.MaxInt64),
		types.NewInt(math.MinInt64),
		types.NewFloat(0),
		types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()),
		types.NewFloat(math.Inf(1)),
		types.NewFloat(1.0 / 3.0),
		types.NewString(""),
		types.NewString("hello"),
		types.NewString("naïve ⊕ spill"),
		types.NewTime(1136214245000000),
		types.NewInterval(-600000000),
	}
	res := govern.NewResources(0, true, t.TempDir(), govern.Inject{})
	defer res.Close()
	sf, err := res.NewSpillFile("codec")
	if err != nil {
		t.Fatal(err)
	}
	var rec []byte
	for i, v := range vals {
		rec = binary.AppendUvarint(rec[:0], uint64(1000+i))
		rec = types.AppendValue(rec, v)
		if err := writeUvarint(sf, uint64(len(rec))); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := sf.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run := &sortRun{rd: rd, key: make([]types.Value, 1)}
	defer rd.Discard()
	var n SortNode
	for i, want := range vals {
		if err := n.advanceRun(run, 1); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !run.ok || run.rowIdx != 1000+i {
			t.Fatalf("value %d: ok %v, row index %d", i, run.ok, run.rowIdx)
		}
		got := run.key[0]
		if got.Kind() != want.Kind() {
			t.Fatalf("value %d: kind %s, want %s", i, got.Kind(), want.Kind())
		}
		switch want.Kind() {
		case types.KindFloat:
			if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
				t.Fatalf("value %d: float bits differ", i)
			}
		case types.KindString:
			if got.Str() != want.Str() {
				t.Fatalf("value %d: %q != %q", i, got.Str(), want.Str())
			}
		case types.KindNull:
		default:
			if got.Raw() != want.Raw() {
				t.Fatalf("value %d: raw %d != %d", i, got.Raw(), want.Raw())
			}
		}
	}
	if err := n.advanceRun(run, 1); err != nil || run.ok {
		t.Fatalf("after the last value: ok %v, err %v; want end of run", run.ok, err)
	}
}

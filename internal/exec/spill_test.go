package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// mixedRows builds a deterministic input with heavy key ties (so run
// merges and hash partitions exercise stability), float payloads (so
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

// checkSpillParity runs n under a 64 KiB budget at parallelism 1 and 4:
// each run must spill and return exactly the in-memory result at
// parallelism 1.
func checkSpillParity(t *testing.T, what string, n Node) {
	t.Helper()
	want, err := Run(NewCtx().SetParallelism(1), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ctx, res := spillCtx(t, 64<<10)
		got, err := Run(ctx.SetParallelism(par), n)
		if err != nil {
			t.Fatalf("%s par=%d: %v", what, par, err)
		}
		if !res.Stats().Spilled() {
			t.Fatalf("%s par=%d did not spill under a 64KiB budget", what, par)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s par=%d: spilled rows = %d, in-memory = %d", what, par, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Fatalf("%s par=%d: spilled output differs from in-memory output", what, par)
		}
	}
}

func TestExternalSortBitIdenticalToInMemory(t *testing.T) {
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	checkSpillParity(t, "sort", NewSortNode(in, []*eval.Compiled{colFn(0), colFn(2)}, []bool{false, true}))
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
	checkSpillParity(t, "group", NewGroupNode(in, out, []*eval.Compiled{colFn(0), colFn(2)}, aggs))
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

// spillJoinInputs is the join the spill tests share: a left input of
// mixedRows joined on d%300 to a right input with repeated keys, NULL keys
// that never join (so left rows pad on the left-join path), and a
// residual over both sides.
func spillJoinInputs() (left, right Node, lk, rk []*eval.Compiled, residual *eval.Compiled) {
	rrows := make([]schema.Row, 6000)
	for i := range rrows {
		key := types.NewInt(int64(i % 300))
		if i%37 == 0 {
			key = types.Null
		}
		rrows[i] = schema.Row{key, types.NewFloat(float64(i) * 0.5)}
	}
	left = NewValuesNode(mixedSchema(), mixedRows(12000))
	right = NewValuesNode(intSchema("k", "v"), rrows)
	lk = []*eval.Compiled{eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewInt(r[3].Int() % 300), nil
	})}
	residual = eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool((r[3].Int()+int64(r[5].Float()))%3 != 0), nil
	})
	return left, right, lk, []*eval.Compiled{colFn(0)}, residual
}

func TestGraceJoinBitIdenticalToInMemory(t *testing.T) {
	left, right, lk, rk, residual := spillJoinInputs()
	for _, kind := range []JoinKind{JoinKindInner, JoinKindLeft} {
		checkSpillParity(t, kind.String()+" join", NewHashJoinNode(left, right, lk, rk, kind, residual, "t.d%300 = r.k"))
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

// spillNodes builds one sort, one grouped aggregation and one join over
// 20 000 input rows whose working sets dwarf a 64 KiB budget, with key
// wrapping every key expression (the identity when nil).
func spillNodes(key func(*eval.Compiled) *eval.Compiled) map[string]Node {
	if key == nil {
		key = func(f *eval.Compiled) *eval.Compiled { return f }
	}
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	aggs := []AggSpec{{Func: "sum", Arg: colFn(1), OutName: "sum"}, {Func: "count", OutName: "cnt"}}
	left, right, lk, rk, residual := spillJoinInputs()
	return map[string]Node{
		"sort":  NewSortNode(in, []*eval.Compiled{key(colFn(0))}, []bool{false}),
		"group": NewGroupNode(in, intSchema("a", "sum", "cnt"), []*eval.Compiled{key(colFn(0))}, aggs),
		"join":  NewHashJoinNode(left, right, []*eval.Compiled{key(lk[0])}, []*eval.Compiled{key(rk[0])}, JoinKindLeft, residual, "t.d%300 = r.k"),
	}
}

// spillDirEntries lists what a query left in its spill directory before
// Resources.Close removes the directory itself.
func spillDirEntries(t *testing.T, res *govern.Resources) []os.DirEntry {
	t.Helper()
	dir, err := res.SpillDir()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

func TestSpillIOErrorFailsQueryCleanly(t *testing.T) {
	for name, n := range spillNodes(nil) {
		for _, par := range []int{1, 4} {
			res := govern.NewResources(64<<10, true, t.TempDir(), govern.Inject{SpillErr: true})
			_, err := Run(NewCtx().SetResources(res).SetParallelism(par), n)
			if err == nil || !strings.Contains(err.Error(), "injected spill I/O error") {
				t.Fatalf("%s par=%d: err = %v, want the injected spill I/O error", name, par, err)
			}
			if ents := spillDirEntries(t, res); len(ents) != 0 {
				t.Fatalf("%s par=%d: failed query left %d spill files behind", name, par, len(ents))
			}
			res.Close()
		}
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

// TestCancelDuringExternalSortRemovesSpillFiles cancels spilling sorts,
// aggregations and joins from inside their key functions at points spread
// over both passes — run generation or partitioning, then the merge,
// folds and builds — and requires every spill file to be gone as soon as
// the operator returns, before Resources.Close removes the directory.
func TestCancelDuringExternalSortRemovesSpillFiles(t *testing.T) {
	// A dry run counts each operator's key evaluations.
	var calls atomic.Int64
	count := func(f *eval.Compiled) *eval.Compiled {
		return eval.FromFunc(func(r schema.Row) (types.Value, error) {
			calls.Add(1)
			return f.Eval(r)
		})
	}
	totals := map[string]int64{}
	for name, n := range spillNodes(count) {
		calls.Store(0)
		ctx, _ := spillCtx(t, 64<<10)
		if _, err := Run(ctx.SetParallelism(1), n); err != nil {
			t.Fatal(err)
		}
		totals[name] = calls.Load()
	}
	for name, total := range totals {
		for _, frac := range []int64{10, 35, 65, 90} {
			for _, par := range []int{1, 4} {
				cctx, cancel := context.WithCancel(context.Background())
				var seen atomic.Int64
				at := total * frac / 100
				n := spillNodes(func(f *eval.Compiled) *eval.Compiled {
					return eval.FromFunc(func(r schema.Row) (types.Value, error) {
						if seen.Add(1) == at {
							cancel()
						}
						return f.Eval(r)
					})
				})[name]
				res := govern.NewResources(64<<10, true, t.TempDir(), govern.Inject{})
				_, err := Run(NewCtxWith(cctx).SetResources(res).SetParallelism(par), n)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s canceled at call %d of %d, par=%d: err = %v, want context.Canceled", name, at, total, par, err)
				}
				if ents := spillDirEntries(t, res); len(ents) != 0 {
					t.Fatalf("%s canceled at call %d of %d, par=%d: %d spill files left behind", name, at, total, par, len(ents))
				}
				res.Close()
			}
		}
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

// TestSpillValueCodecRoundTrip writes the sort keys of values of every
// kind — and of the payloads a lossy encoding would mangle, in both
// directions, and as two-column tuples — as a sort run through spillRun
// and reads them back through the run's cursor: every key comes back
// byte-identical, in order, with its row index intact. (The value codec
// itself is covered by FuzzReadValue and the hash-partition spill tests.)
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
		types.NewString("a\x00b"),
		types.NewString("naïve ⊕ spill"),
		types.NewTime(1136214245000000),
		types.NewInterval(-600000000),
	}
	var keys [][]byte
	for _, desc := range []bool{false, true} {
		for i, v := range vals {
			keys = append(keys, types.AppendSortKey(nil, v, desc))
			keys = append(keys, types.AppendSortKey(types.AppendSortKey(nil, v, desc), vals[len(vals)-1-i], !desc))
		}
	}
	res := govern.NewResources(0, true, t.TempDir(), govern.Inject{})
	defer res.Close()
	ents := make([]sortEntry, len(keys))
	for i, k := range keys {
		ents[i] = sortEntry{row: 1000 + i*977, key: k}
	}
	run, err := spillRun(res, ents)
	if err != nil {
		t.Fatal(err)
	}
	defer run.discard()
	for i, want := range keys {
		if err := run.next(); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !run.ok || run.head.row != 1000+i*977 {
			t.Fatalf("key %d: ok %v, row index %d", i, run.ok, run.head.row)
		}
		if !bytes.Equal(run.head.key, want) {
			t.Fatalf("key %d: %x, want %x", i, run.head.key, want)
		}
	}
	if err := run.next(); err != nil || run.ok {
		t.Fatalf("after the last key: ok %v, err %v; want end of run", run.ok, err)
	}
}

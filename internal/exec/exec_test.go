package exec

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

func colFn(i int) *eval.Compiled { return eval.Column(i) }

func intRows(vals ...[]int64) []schema.Row {
	out := make([]schema.Row, len(vals))
	for i, rv := range vals {
		row := make(schema.Row, len(rv))
		for j, v := range rv {
			row[j] = types.NewInt(v)
		}
		out[i] = row
	}
	return out
}

func intSchema(names ...string) *schema.Schema {
	s := &schema.Schema{}
	for _, n := range names {
		s.Columns = append(s.Columns, schema.Col("t", n, types.KindInt))
	}
	return s
}

// fuse fuses pred, labelled desc, into the sequential scan s, with the
// zone preds zone.
func fuse(s *ScanNode, pred *eval.Compiled, desc string, zone []storage.ZonePred) *ScanNode {
	s.Bind = func(*Ctx) (ScanBinding, error) { return ScanBinding{Pred: pred, Zone: zone}, nil }
	s.Pred.Desc = desc
	return s
}

// indexRange makes s an index scan of column ord over b.
func indexRange(s *ScanNode, ord int, b storage.Bounds) *ScanNode {
	s.IndexOrd = ord
	s.Bind = func(*Ctx) (ScanBinding, error) { return ScanBinding{Bounds: b}, nil }
	return s
}

func mustExec(t *testing.T, n Node) *Result {
	t.Helper()
	r, err := Run(NewCtx(), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScanNodeSequentialAndIndex(t *testing.T) {
	tab := storage.NewTable("t", intSchema("a"))
	for _, v := range []int64{5, 1, 3, 2, 4} {
		tab.Append(schema.Row{types.NewInt(v)})
	}
	tab.BuildIndex("a")

	seq := NewScanNode(tab)
	if got := mustExec(t, seq); len(got.Rows) != 5 {
		t.Fatalf("seq scan rows = %d", len(got.Rows))
	}

	lo := types.NewInt(2)
	ix := indexRange(NewScanNode(tab), 0, storage.Bounds{Lo: &lo, LoIncl: true})
	got := mustExec(t, ix)
	if len(got.Rows) != 4 {
		t.Fatalf("index scan rows = %d", len(got.Rows))
	}
	// Index scans return rows in key order.
	for i := 1; i < len(got.Rows); i++ {
		if got.Rows[i][0].Int() < got.Rows[i-1][0].Int() {
			t.Fatal("index scan output not ordered")
		}
	}
}

func TestFilterProjectLimit(t *testing.T) {
	in := NewValuesNode(intSchema("a", "b"), intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(r[0].Int() >= 2), nil
	})
	f := NewFilterNode(in, pred, "a >= 2")
	proj := NewProjectNode(f, intSchema("b2"), []*eval.Compiled{eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewInt(r[1].Int() * 2), nil
	})})
	lim := NewLimitNode(proj, 1)
	got := mustExec(t, lim)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 40 {
		t.Fatalf("pipeline result = %+v", got.Rows)
	}
}

func TestSortNodeNullsFirstAndStability(t *testing.T) {
	in := NewValuesNode(intSchema("a", "b"), []schema.Row{
		{types.NewInt(2), types.NewInt(1)},
		{types.Null, types.NewInt(2)},
		{types.NewInt(1), types.NewInt(3)},
		{types.NewInt(2), types.NewInt(4)},
	})
	s := NewSortNode(in, []*eval.Compiled{colFn(0)}, []bool{false})
	got := mustExec(t, s)
	if !got.Rows[0][0].IsNull() {
		t.Fatal("nulls must sort first")
	}
	if got.Rows[1][0].Int() != 1 || got.Rows[2][1].Int() != 1 || got.Rows[3][1].Int() != 4 {
		t.Fatalf("sort not stable: %v", got.Rows)
	}
	sd := NewSortNode(in, []*eval.Compiled{colFn(0)}, []bool{true})
	gd := mustExec(t, sd)
	if gd.Rows[0][0].Int() != 2 {
		t.Fatalf("desc sort: %v", gd.Rows)
	}
}

func TestHashJoinInnerAndLeft(t *testing.T) {
	l := NewValuesNode(intSchema("id"), intRows([]int64{1}, []int64{2}, []int64{3}))
	r := NewValuesNode(intSchema("fk", "v"), intRows([]int64{1, 100}, []int64{1, 101}, []int64{3, 300}))

	inner := NewHashJoinNode(l, r, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "id=fk")
	got := mustExec(t, inner)
	if len(got.Rows) != 3 {
		t.Fatalf("inner join rows = %d", len(got.Rows))
	}

	left := NewHashJoinNode(l, r, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindLeft, nil, "id=fk")
	got = mustExec(t, left)
	if len(got.Rows) != 4 {
		t.Fatalf("left join rows = %d", len(got.Rows))
	}
	var sawNull bool
	for _, row := range got.Rows {
		if row[0].Int() == 2 {
			sawNull = row[1].IsNull() && row[2].IsNull()
		}
	}
	if !sawNull {
		t.Fatal("unmatched left row must be null-padded")
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	l := NewValuesNode(intSchema("id"), []schema.Row{{types.Null}, {types.NewInt(1)}})
	r := NewValuesNode(intSchema("fk"), []schema.Row{{types.Null}, {types.NewInt(1)}})
	j := NewHashJoinNode(l, r, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "")
	got := mustExec(t, j)
	if len(got.Rows) != 1 {
		t.Fatalf("null keys joined: %v", got.Rows)
	}
}

func TestHashJoinResidual(t *testing.T) {
	l := NewValuesNode(intSchema("id", "x"), intRows([]int64{1, 5}, []int64{1, 50}))
	r := NewValuesNode(intSchema("fk", "y"), intRows([]int64{1, 10}))
	residual := eval.FromFunc(func(row schema.Row) (types.Value, error) {
		return types.NewBool(row[1].Int() < row[3].Int()), nil
	})
	j := NewHashJoinNode(l, r, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, residual, "x<y")
	got := mustExec(t, j)
	if len(got.Rows) != 1 || got.Rows[0][1].Int() != 5 {
		t.Fatalf("residual join = %v", got.Rows)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	l := NewValuesNode(intSchema("a"), intRows([]int64{1}, []int64{2}))
	r := NewValuesNode(intSchema("b"), intRows([]int64{1}, []int64{2}))
	pred := eval.FromFunc(func(row schema.Row) (types.Value, error) {
		return types.NewBool(row[0].Int() < row[1].Int()), nil
	})
	j := NewNestedLoopJoinNode(l, r, pred, "a<b")
	got := mustExec(t, j)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 1 || got.Rows[0][1].Int() != 2 {
		t.Fatalf("nl join = %v", got.Rows)
	}
	cross := NewNestedLoopJoinNode(l, r, nil, "cross")
	if got := mustExec(t, cross); len(got.Rows) != 4 {
		t.Fatalf("cross join rows = %d", len(got.Rows))
	}
}

func TestGroupNode(t *testing.T) {
	in := NewValuesNode(intSchema("k", "v"), intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 2}, []int64{1, 10},
	))
	out := intSchema("k", "cnt", "sum", "mx", "cntd")
	out.Columns[1].Kind = types.KindInt
	g := NewGroupNode(in, out, []*eval.Compiled{colFn(0)}, []AggSpec{
		{Func: "count", OutName: "cnt"},              // COUNT(*)
		{Func: "sum", Arg: colFn(1), OutName: "sum"}, // SUM(v)
		{Func: "max", Arg: colFn(1), OutName: "mx"},
		{Func: "count", Arg: colFn(1), Distinct: true, OutName: "cntd"},
	})
	got := mustExec(t, g)
	if len(got.Rows) != 2 {
		t.Fatalf("groups = %d", len(got.Rows))
	}
	byKey := map[int64]schema.Row{}
	for _, r := range got.Rows {
		byKey[r[0].Int()] = r
	}
	g1 := byKey[1]
	if g1[1].Int() != 3 || g1[2].Int() != 50 || g1[3].Int() != 30 || g1[4].Int() != 2 {
		t.Fatalf("group 1 = %v", g1)
	}
	// Groups come out in first-appearance order.
	if got.Rows[0][0].Int() != 1 || got.Rows[1][0].Int() != 2 {
		t.Fatalf("group order = %v", got.Rows)
	}
}

func TestGroupNodeGlobalEmptyInput(t *testing.T) {
	in := NewValuesNode(intSchema("v"), nil)
	out := intSchema("cnt", "mx")
	g := NewGroupNode(in, out, nil, []AggSpec{
		{Func: "count", OutName: "cnt"},
		{Func: "max", Arg: colFn(0), OutName: "mx"},
	})
	got := mustExec(t, g)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 0 || !got.Rows[0][1].IsNull() {
		t.Fatalf("global agg over empty = %v", got.Rows)
	}
}

func TestAggNullHandling(t *testing.T) {
	in := NewValuesNode(intSchema("v"), []schema.Row{
		{types.NewInt(1)}, {types.Null}, {types.NewInt(3)},
	})
	out := intSchema("cnt_star", "cnt_v", "avg")
	g := NewGroupNode(in, out, nil, []AggSpec{
		{Func: "count", OutName: "cnt_star"},
		{Func: "count", Arg: colFn(0), OutName: "cnt_v"},
		{Func: "avg", Arg: colFn(0), OutName: "avg"},
	})
	got := mustExec(t, g)
	r := got.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Float() != 2.0 {
		t.Fatalf("null agg = %v", r)
	}
}

func TestAvgOverIntervals(t *testing.T) {
	in := NewValuesNode(
		schema.New(schema.Col("t", "iv", types.KindInterval)),
		[]schema.Row{{types.NewInterval(10)}, {types.NewInterval(30)}},
	)
	out := schema.New(schema.Col("", "a", types.KindInterval))
	g := NewGroupNode(in, out, nil, []AggSpec{{Func: "avg", Arg: colFn(0), OutName: "a"}})
	got := mustExec(t, g)
	if v := got.Rows[0][0]; v.Kind() != types.KindInterval || v.IntervalUsec() != 20 {
		t.Fatalf("avg interval = %v", v)
	}
}

func TestDistinctAndUnion(t *testing.T) {
	a := NewValuesNode(intSchema("v"), intRows([]int64{1}, []int64{2}, []int64{1}))
	b := NewValuesNode(intSchema("v"), intRows([]int64{2}, []int64{3}))
	d := NewDistinct(a)
	if got := mustExec(t, d); len(got.Rows) != 2 {
		t.Fatalf("distinct rows = %d", len(got.Rows))
	}
	uAll, err := NewUnionNode(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustExec(t, uAll); len(got.Rows) != 5 {
		t.Fatalf("union all rows = %d", len(got.Rows))
	}
	if got := mustExec(t, NewDistinct(uAll)); len(got.Rows) != 3 {
		t.Fatalf("union rows = %d", len(got.Rows))
	}
	if _, err := NewUnionNode(a, NewValuesNode(intSchema("x", "y"), nil)); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestCtxCachesSharedSubtrees(t *testing.T) {
	in := NewValuesNode(intSchema("v"), intRows([]int64{1}))
	counter := 0
	pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
		counter++
		return types.NewBool(true), nil
	})
	shared := NewFilterNode(in, pred, "count calls")
	u, _ := NewUnionNode(shared, shared)
	got := mustExec(t, u)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %d", len(got.Rows))
	}
	if counter != 1 {
		t.Fatalf("shared subtree executed %d times, want 1", counter)
	}
}

func TestExplainOutput(t *testing.T) {
	in := NewValuesNode(intSchema("v"), intRows([]int64{1}))
	f := NewFilterNode(in, eval.FromFunc(func(schema.Row) (types.Value, error) { return types.NewBool(true), nil }), "p")
	SetEstimates(f, 42, 100)
	out := Explain(f)
	if want := "Filter(p)  [rows=42 cost=100]\n  Values(1)  [rows=0 cost=0]\n"; out != want {
		t.Fatalf("explain = %q", out)
	}
	if CountNodes(f, "Filter") != 1 || CountNodes(f, "Values") != 1 || CountNodes(f, "Sort") != 0 {
		t.Fatal("CountNodes mismatch")
	}
}

func TestSetOpNode(t *testing.T) {
	a := NewValuesNode(intSchema("v"), intRows([]int64{1}, []int64{2}, []int64{2}, []int64{3}))
	b := NewValuesNode(intSchema("v"), intRows([]int64{2}, []int64{4}))
	ex, err := NewSetOp(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	got := mustExec(t, ex)
	if len(got.Rows) != 2 || got.Rows[0][0].Int() != 1 || got.Rows[1][0].Int() != 3 {
		t.Fatalf("except = %v", got.Rows)
	}
	in, err := NewSetOp(a, b, true)
	if err != nil {
		t.Fatal(err)
	}
	got = mustExec(t, in)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 2 {
		t.Fatalf("intersect = %v", got.Rows)
	}
	if _, err := NewSetOp(a, NewValuesNode(intSchema("x", "y"), nil), false); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestLimitOffsetNode(t *testing.T) {
	in := NewValuesNode(intSchema("v"), intRows([]int64{1}, []int64{2}, []int64{3}))
	n := NewLimitNode(in, 1)
	n.Offset = 1
	got := mustExec(t, n)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 2 {
		t.Fatalf("limit/offset = %v", got.Rows)
	}
	// Offset past the end.
	n2 := NewLimitNode(in, -1)
	n2.Offset = 10
	if got := mustExec(t, n2); len(got.Rows) != 0 {
		t.Fatalf("past-end = %v", got.Rows)
	}
}

func TestExplainAnalyzeRecordsStats(t *testing.T) {
	in := NewValuesNode(intSchema("v"), intRows([]int64{1}, []int64{2}))
	f := NewFilterNode(in, eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(r[0].Int() > 1), nil
	}), "v>1")
	ctx := NewAnalyzeCtx()
	if _, err := Run(ctx, f); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats(f)
	if st == nil || st.Rows != 1 {
		t.Fatalf("stats = %+v", st)
	}
	out := ExplainAnalyze(f, ctx)
	if !strings.Contains(out, "actual rows=1") || !strings.Contains(out, "actual rows=2") {
		t.Fatalf("analyze output = %s", out)
	}
	// Cache hits show up.
	if _, err := Run(ctx, f); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats(f).Hits != 1 {
		t.Fatalf("hits = %d", ctx.Stats(f).Hits)
	}
	if !strings.Contains(ExplainAnalyze(f, ctx), "cached×1") {
		t.Fatal("cache hits not rendered")
	}
}

func TestExplainAnalyzeNeverExecuted(t *testing.T) {
	in := NewValuesNode(intSchema("v"), nil)
	out := ExplainAnalyze(in, NewAnalyzeCtx())
	if !strings.Contains(out, "never executed") {
		t.Fatalf("analyze output = %s", out)
	}
}

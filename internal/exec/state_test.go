package exec

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// vexpr compiles src over sch and requires a vector kernel for it.
func vexpr(t testing.TB, sch *schema.Schema, src string) *eval.Compiled {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eval.Compile(e, &eval.Env{Schema: sch})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Vectorized() {
		t.Fatalf("%q compiled without a batch kernel", src)
	}
	return c
}

// vexprs compiles each of srcs over sch.
func vexprs(t testing.TB, sch *schema.Schema, srcs ...string) []*eval.Compiled {
	out := make([]*eval.Compiled, len(srcs))
	for i, src := range srcs {
		out[i] = vexpr(t, sch, src)
	}
	return out
}

// names returns n column names prefix0, prefix1, ...
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// Every stage of a pipeline evaluates through its pump worker's one
// scratch, so stages of different widths hand each other its eval
// columns: here a 7-expression projection, a one-key probe (whose key
// encoder encodes every column it is handed) with a residual, a
// 12-expression projection and a vector filter, over several morsels.
// The vector run must equal the row run at parallelism 1 and 4.
func TestSharedScratchAcrossStageWidths(t *testing.T) {
	const n = 3*MorselSize + 100
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7919 % 97))}
	}
	dimRows := make([]schema.Row, 200)
	for d := range dimRows {
		dimRows[d] = schema.Row{types.NewInt(int64(d)), types.NewInt(int64(d % 7))}
	}
	plan := func(t *testing.T) (Node, []Node) {
		in := NewValuesNode(intSchema("id", "k"), rows)
		p7 := NewProjectNode(in, intSchema(names("p", 7)...), vexprs(t, in.Schema(),
			"id + 1", "k * 2", "id - k", "k + id", "id - 3", "k", "id"))
		dim := NewValuesNode(intSchema("dk", "dv"), dimRows)
		joinSch := schema.Concat(p7.Schema(), dim.Schema())
		join := NewHashJoinNode(p7, dim, []*eval.Compiled{colFn(1)}, []*eval.Compiled{colFn(0)},
			JoinKindInner, vexpr(t, joinSch, "p2 > dv * 10"), "p1=dk")
		p12 := NewProjectNode(join, intSchema(names("q", 12)...), vexprs(t, joinSch,
			"p0 + dv", "p1", "p2 * dv", "p3 - dk", "p4", "p5 + 1", "p6 * 5", "dk", "dv * 3", "p0 - p6", "p1 + p2", "dk + dv"))
		f := NewFilterNode(p12, vexpr(t, p12.Schema(), "q0 > 200"), "q0 > 200")
		return f, []Node{p7, join, p12, f}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			top, _ := plan(t)
			want, err := Run(NewCtx().SetParallelism(par).SetVectorize(false), top)
			if err != nil {
				t.Fatal(err)
			}
			top, stages := plan(t)
			ctx := NewAnalyzeCtx().SetParallelism(par)
			got, err := Run(ctx, top)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) < n/2 {
				t.Fatalf("row path emitted %d rows, want at least %d", len(want.Rows), n/2)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("vector path emitted %d rows, row path %d; they differ", len(got.Rows), len(want.Rows))
			}
			for _, s := range stages {
				st := ctx.Stats(s)
				if st == nil || st.EvalMode != "vector" || par > 1 && st.Workers != par {
					t.Fatalf("%s: stats %+v, want eval=vector over %d workers", s.Label(), st, par)
				}
			}
		})
	}
}

// execStatePlan is a lookup-sized plan: 50 rows sorted (the breaker)
// under 23 pipelined operators — two windows, filter and projection
// pairs, and a hash-join probe with filters and projections above it.
func execStatePlan(t testing.TB) Node {
	rows := make([]schema.Row, 50)
	for i := range rows {
		rows[i] = intRows([]int64{int64(i / 5), int64(i % 5), int64(i * 3 % 11)})[0]
	}
	var n Node = NewSortNode(NewValuesNode(intSchema("e", "t", "v"), rows), []*eval.Compiled{colFn(0), colFn(1)}, []bool{false, false})
	window := func(in Node, fn string, arg *eval.Compiled) Node {
		cols := append(names("c", in.Schema().Len()), "w")
		return NewWindowNode(in, intSchema(cols...), []*eval.Compiled{colFn(0)}, nil, nil,
			[]WindowAgg{{Func: fn, Arg: arg, OutName: "w", Frame: FrameSpec{Mode: FramePartition}}})
	}
	pair := func(in Node) Node {
		sch := in.Schema()
		last := sch.Len() - 1
		f := NewFilterNode(in, vexpr(t, sch, fmt.Sprintf("%s >= 0", sch.Columns[0].Name)), "c0 >= 0")
		srcs := make([]string, sch.Len())
		for j, c := range sch.Columns {
			srcs[j] = c.Name
		}
		srcs[last] += " + 1"
		return NewProjectNode(f, intSchema(names("c", sch.Len())...), vexprs(t, sch, srcs...))
	}
	n = window(n, "count", nil)
	n = pair(n)
	n = window(n, "max", colFn(2))
	for range 7 {
		n = pair(n)
	}
	dim := NewValuesNode(intSchema("dk", "dv"), intRows([]int64{0, 1}, []int64{3, 4}, []int64{5, 6}, []int64{9, 9}))
	n = NewHashJoinNode(n, dim, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "c0=dk")
	n = pair(pair(n))
	return n
}

// The per-execution bookkeeping of a lookup-sized plan — node table,
// statistics, per-worker scratch — is a fixed cost paid on every
// execution; this bounds its allocations.
func TestExecStateAllocsBounded(t *testing.T) {
	plan := execStatePlan(t)
	if got := len(mustExec(t, plan).Rows); got != 20 {
		t.Fatalf("plan emitted %d rows, want 20", got)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(NewAnalyzeCtx().SetParallelism(1), plan); err != nil {
			t.Fatal(err)
		}
	})
	// 151 at this writing (190 at most under -race), plus 5 %.
	bound := 158.0
	if raceEnabled {
		bound = 200
	}
	t.Logf("%.0f allocs per execution", allocs)
	if allocs > bound {
		t.Fatalf("%.0f allocs per execution, want at most %.0f", allocs, bound)
	}
}

package exec

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// pingPongRows is the input of pingPongPlan: n rows (g, v), g ascending
// in runs of seven rows.
func pingPongRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{types.NewInt(int64(i / 7)), types.NewInt(int64(i * 7919 % 1000))}
	}
	return rows
}

// pingPongPlan is one pipeline of four row-building stages with
// pass-through stages between them:
//
//	Values(g, v)
//	→ window count(*) by g        builds (g, v, cnt)       block A
//	→ filter v > 100              keeps its input's block
//	→ project g, v                re-slices in place
//	→ project g, v, 2v+g, v-g     builds, reading A        block B
//	→ filter c2 > 300             keeps its input's block
//	→ probe g = k against dim     builds, reading B        block A again
//	→ project g, v, c2, c3+d      the last stage           heap
//
// so the third builder overwrites the block the first filled while the
// rows the second built from it are still to be read.
func pingPongPlan(t testing.TB, n int) Node {
	in := NewValuesNode(intSchema("g", "v"), pingPongRows(n))
	w := NewWindowNode(in, intSchema("g", "v", "cnt"), []*eval.Compiled{colFn(0)}, nil, nil,
		[]WindowAgg{{Func: "count", OutName: "cnt", Frame: FrameSpec{Mode: FramePartition}}})
	f1 := NewFilterNode(w, vexpr(t, w.Schema(), "v > 100"), "v > 100")
	lead := NewProjectNode(f1, intSchema("g", "v"), []*eval.Compiled{colFn(0), colFn(1)})
	p := NewProjectNode(lead, intSchema("g", "v", "c2", "c3"), vexprs(t, lead.Schema(), "g", "v", "v * 2 + g", "v - g"))
	f2 := NewFilterNode(p, vexpr(t, p.Schema(), "c2 > 300"), "c2 > 300")
	dimRows := make([]schema.Row, 0, n/7)
	for k := 0; k < n/7; k += 2 {
		dimRows = append(dimRows, schema.Row{types.NewInt(int64(k)), types.NewInt(int64(k * 10))})
	}
	dim := NewValuesNode(intSchema("k", "d"), dimRows)
	j := NewHashJoinNode(f2, dim, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "g=k")
	return NewProjectNode(j, intSchema("g", "v", "c2", "e"), vexprs(t, j.Schema(), "g", "v", "c2", "c3 + d"))
}

// pingPongWant computes pingPongPlan's output directly.
func pingPongWant(n int) []schema.Row {
	var want []schema.Row
	for _, r := range pingPongRows(n) {
		g, v := r[0].Int(), r[1].Int()
		// The leading projection drops the window's count; dim holds the
		// even g below n/7, with d = 10g.
		if v <= 100 || 2*v+g <= 300 || g%2 != 0 || g >= int64(n/7) {
			continue
		}
		want = append(want, schema.Row{types.NewInt(g), types.NewInt(v), types.NewInt(2*v + g), types.NewInt(v - g + 10*g)})
	}
	return want
}

// The ping-pong liveness case: stages that build rows below a
// pipeline's last write the worker's two row blocks in turn, with a
// filter and a leading-column projection — which keep the block they
// are given — between them. Over several morsels, the row path and the
// vector path, drained and streamed, must return the rows computed
// directly, at parallelism 1 and 4.
func TestPingPongBlocksAcrossPassThroughStages(t *testing.T) {
	const n = 3*MorselSize + 100
	want := pingPongWant(n)
	if len(want) < n/8 {
		t.Fatalf("only %d rows expected; the plan filters too much to test anything", len(want))
	}
	for _, par := range []int{1, 4} {
		for _, vec := range []bool{true, false} {
			t.Run(fmt.Sprintf("par%d/%s", par, evalMode(vec)), func(t *testing.T) {
				plan := pingPongPlan(t, n)
				got, err := Run(NewCtx().SetParallelism(par).SetVectorize(vec), plan)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
					t.Fatalf("Run returned %d rows, want %d; they differ", len(got.Rows), len(want))
				}
				streamed, err := collectStream(Open(NewCtx().SetParallelism(par).SetVectorize(vec), plan))
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(streamed) != fmt.Sprint(want) {
					t.Fatalf("Open streamed %d rows, want %d; they differ", len(streamed), len(want))
				}
			})
		}
	}
}

// A hash join's build side here is a computed projection, whose rows
// leave their pipeline and so must live on the heap, not in a pooled row
// block: ten runs of one plan node, each after a run of pingPongPlan that
// recycles the pool's scratch, return the first run's rows.
func TestCacheBuildOverComputedProjectionSurvivesPooledRuns(t *testing.T) {
	dimRows := make([]schema.Row, 200)
	for k := range dimRows {
		dimRows[k] = schema.Row{types.NewInt(int64(k)), types.NewInt(int64(3 * k))}
	}
	dimIn := NewValuesNode(intSchema("k", "v"), dimRows)
	build := NewProjectNode(dimIn, intSchema("k", "kv"), vexprs(t, dimIn.Schema(), "k", "k * 10 + v"))
	probeRows := make([]schema.Row, 2*MorselSize)
	for i := range probeRows {
		probeRows[i] = schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 31 % 250))}
	}
	probeIn := NewValuesNode(intSchema("a", "key"), probeRows)
	left := NewProjectNode(probeIn, intSchema("a", "key", "a2"), vexprs(t, probeIn.Schema(), "a", "key", "a * 2"))
	join := NewHashJoinNode(left, build, []*eval.Compiled{colFn(1)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "key=k")
	top := NewProjectNode(join, intSchema("a", "x"), vexprs(t, join.Schema(), "a", "kv + a2"))

	first, err := Run(NewCtx(), top)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(first.Rows)
	churn := pingPongPlan(t, 3*MorselSize+100)
	for i := range 10 {
		if _, err := Run(NewCtx().SetParallelism(4), churn); err != nil {
			t.Fatal(err)
		}
		got, err := Run(NewCtx().SetParallelism(1+i%2*3), top)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != want {
			t.Fatalf("run %d returned %d rows that differ from the first run's %d", i+1, len(got.Rows), len(first.Rows))
		}
	}
	if len(first.Rows) < MorselSize {
		t.Fatalf("the join emitted %d rows, want at least %d", len(first.Rows), MorselSize)
	}
}

// The pump keeps the error of the lowest failing morsel, not the first
// to fail in time, and delivers the morsels before it: a filter over 8
// morsels that fails on one row of every morsel from the second returns
// the serial error at parallelism 4, run after run, drained and
// streamed, and the stream hands out the first morsel before it.
func TestPumpErrorIsTheSerialError(t *testing.T) {
	const morsels = 8
	in := NewValuesNode(intSchema("a"), seqRows(morsels*MorselSize, 0))
	pred := eval.FromFunc(func(row schema.Row) (types.Value, error) {
		if a := row[0].Int(); a >= MorselSize && a%MorselSize == 4 {
			return types.Null, fmt.Errorf("row %d fails", a)
		}
		return types.NewBool(true), nil
	})
	f := NewFilterNode(in, pred, "fails once per morsel")
	want := fmt.Sprintf("row %d fails", MorselSize+4)
	if _, err := Run(NewCtx().SetParallelism(1), f); err == nil || err.Error() != want {
		t.Fatalf("serial error %v, want %q", err, want)
	}
	for i := range 50 {
		if _, err := Run(NewCtx().SetParallelism(4), f); err == nil || err.Error() != want {
			t.Fatalf("run %d at parallelism 4: error %v, want %q", i+1, err, want)
		}
	}
	for i := range 10 {
		st := Open(NewCtx().SetParallelism(4), f)
		b, err := st.Next()
		if err != nil || len(b) != MorselSize {
			t.Fatalf("stream %d: first batch %d rows, error %v; want the first morsel's %d rows", i+1, len(b), err, MorselSize)
		}
		if _, err := st.Next(); err == nil || err.Error() != want {
			t.Fatalf("stream %d: error %v, want %q", i+1, err, want)
		}
		st.Close()
	}
}

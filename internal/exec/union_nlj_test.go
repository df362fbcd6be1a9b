package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// seqRows returns n one-column rows tag*1e6, tag*1e6+1, ...
func seqRows(n int, tag int64) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{types.NewInt(tag*1_000_000 + int64(i))}
	}
	return rows
}

// planLine returns the line of an EXPLAIN ANALYZE printout whose operator
// label starts with prefix.
func planLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), prefix) {
			return line
		}
	}
	t.Fatalf("no %s line in\n%s", prefix, out)
	return ""
}

// A nested-loop join is a stage over its left input: a left input of
// several morsels fans out over the pump's workers, and the output is
// left-major with the right rows in order, as the serial pair loop's.
func TestNestedLoopJoinRunsAsParallelStage(t *testing.T) {
	const n = 3*MorselSize + 100
	l := NewValuesNode(intSchema("a"), seqRows(n, 0))
	r := NewValuesNode(intSchema("b"), intRows([]int64{0}, []int64{1}, []int64{2}, []int64{3}, []int64{4}))
	pred := eval.FromFunc(func(row schema.Row) (types.Value, error) {
		return types.NewBool((row[0].Int()+row[1].Int())%3 != 0), nil
	})
	var want []schema.Row
	for _, lrow := range l.RowsData {
		for _, rrow := range r.RowsData {
			if (lrow[0].Int()+rrow[0].Int())%3 != 0 {
				want = append(want, schema.Row{lrow[0], rrow[0]})
			}
		}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			j := NewNestedLoopJoinNode(l, r, pred, "(a+b)%3<>0")
			ctx := NewAnalyzeCtx().SetParallelism(par)
			got, err := Run(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
				t.Fatalf("%d rows differ from the serial pair loop's %d", len(got.Rows), len(want))
			}
			line := planLine(t, ExplainAnalyze(j, ctx), "NLJoin")
			if hasWorkers := strings.Contains(line, fmt.Sprintf("workers=%d", par)); hasWorkers != (par > 1) {
				t.Fatalf("NLJoin line %q at parallelism %d", line, par)
			}
		})
	}
}

// A predicate that fails on one pair fails the join with that error at
// any parallelism, whichever worker meets it.
func TestNestedLoopJoinPairErrorMatchesSerial(t *testing.T) {
	const n = 3*MorselSize + 100
	bad := int64(2*MorselSize + 7)
	l := NewValuesNode(intSchema("a"), seqRows(n, 0))
	r := NewValuesNode(intSchema("b"), intRows([]int64{0}, []int64{1}, []int64{2}))
	pred := eval.FromFunc(func(row schema.Row) (types.Value, error) {
		if row[0].Int() == bad && row[1].Int() == 1 {
			return types.Null, fmt.Errorf("pair (%d, %d) fails", row[0].Int(), row[1].Int())
		}
		return types.NewBool(true), nil
	})
	j := NewNestedLoopJoinNode(l, r, pred, "fails once")
	_, serial := Run(NewCtx().SetParallelism(1), j)
	if serial == nil || !strings.Contains(serial.Error(), fmt.Sprintf("pair (%d, 1) fails", bad)) {
		t.Fatalf("serial error = %v", serial)
	}
	for _, par := range []int{2, 4} {
		if _, err := Run(NewCtx().SetParallelism(par), j); err == nil || err.Error() != serial.Error() {
			t.Fatalf("parallelism %d: error %v, want %v", par, err, serial)
		}
		if _, err := collectStream(Open(NewCtx().SetParallelism(par), j)); err == nil || err.Error() != serial.Error() {
			t.Fatalf("parallelism %d stream: error %v, want %v", par, err, serial)
		}
	}
}

// Each morsel reserves a row reference per pair it may emit, so a cross
// product larger than a budget that may not spill is refused.
func TestNestedLoopJoinCrossProductRefusedWithoutSpill(t *testing.T) {
	l := NewValuesNode(intSchema("a"), seqRows(1000, 0))
	r := NewValuesNode(intSchema("b"), seqRows(1000, 1))
	res := govern.NewResources(64<<10, false, t.TempDir(), govern.Inject{})
	defer res.Close()
	_, err := Run(NewCtx().SetResources(res), NewNestedLoopJoinNode(l, r, nil, "cross"))
	if !errors.Is(err, govern.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}

// UNION ALL is a pipeline source: a stage above it sees the left input's
// rows, then the right's, over morsels of both, at any parallelism — and
// fans out over them.
func TestUnionAllSourcesLeftThenRight(t *testing.T) {
	left, right := seqRows(2*MorselSize+50, 1), seqRows(3*MorselSize+9, 2)
	want := make([]schema.Row, 0, len(left)+len(right))
	for _, row := range append(append([]schema.Row{}, left...), right...) {
		if row[0].Int()%5 != 0 {
			want = append(want, schema.Row{types.NewInt(row[0].Int() * 10)})
		}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			u, err := NewUnionNode(NewValuesNode(intSchema("v"), left), NewValuesNode(intSchema("v"), right))
			if err != nil {
				t.Fatal(err)
			}
			f := NewFilterNode(u, eval.FromFunc(func(row schema.Row) (types.Value, error) {
				return types.NewBool(row[0].Int()%5 != 0), nil
			}), "v % 5 <> 0")
			top := NewProjectNode(f, intSchema("w"), []*eval.Compiled{eval.FromFunc(func(row schema.Row) (types.Value, error) {
				return types.NewInt(row[0].Int() * 10), nil
			})})
			ctx := NewAnalyzeCtx().SetParallelism(par)
			got, err := Run(ctx, top)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
				t.Fatalf("%d rows, want %d left rows then right rows", len(got.Rows), len(want))
			}
			streamed, err := collectStream(Open(NewCtx().SetParallelism(par), top))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(streamed) != fmt.Sprint(want) {
				t.Fatalf("stream: %d rows, want %d left rows then right rows", len(streamed), len(want))
			}
			if st := ctx.Stats(u); st == nil || st.Rows != len(left)+len(right) {
				t.Fatalf("union stats %+v, want %d rows", st, len(left)+len(right))
			}
			if st := ctx.Stats(f); st == nil || par > 1 && st.Workers != par {
				t.Fatalf("filter over the union: stats %+v, want %d workers", st, par)
			}
		})
	}
}

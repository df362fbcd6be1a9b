package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// windowInput builds rows (part, key, val) already sorted by (part, key),
// as the planner guarantees for WindowNode.
func windowInput(parts, keys, vals []int64) *ValuesNode {
	rows := make([]schema.Row, len(parts))
	for i := range parts {
		rows[i] = schema.Row{types.NewInt(parts[i]), types.NewInt(keys[i]), types.NewInt(vals[i])}
	}
	return NewValuesNode(intSchema("p", "k", "v"), rows)
}

func runWindow(t *testing.T, in Node, agg WindowAgg) []types.Value {
	t.Helper()
	out := in.Schema().Clone()
	out.Columns = append(out.Columns, schema.Col("", agg.OutName, agg.Kind))
	w := NewWindowNode(in, out, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(1)}, []bool{false}, []WindowAgg{agg})
	res := mustExec(t, w)
	vals := make([]types.Value, len(res.Rows))
	for i, r := range res.Rows {
		vals[i] = r[len(r)-1]
	}
	return vals
}

func TestWindowRowsOneBeforeOne(t *testing.T) {
	// The duplicate-detection pattern from §4.1 of the paper:
	// max(v) OVER (... ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING).
	in := windowInput(
		[]int64{1, 1, 1, 2, 2},
		[]int64{1, 2, 3, 1, 2},
		[]int64{10, 20, 30, 40, 50},
	)
	got := runWindow(t, in, WindowAgg{
		Func: "max", Arg: colFn(2), OutName: "prev",
		Frame: FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundPreceding, StartOff: 1, EndType: sqlast.BoundPreceding, EndOff: 1},
	})
	want := []any{nil, int64(10), int64(20), nil, int64(40)}
	for i, w := range want {
		if w == nil {
			if !got[i].IsNull() {
				t.Errorf("row %d = %v, want NULL (partition border)", i, got[i])
			}
		} else if got[i].IsNull() || got[i].Int() != w.(int64) {
			t.Errorf("row %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestWindowRangeFollowingExcludesCurrentRow(t *testing.T) {
	// The reader-rule window: RANGE BETWEEN 1 MICROSECOND FOLLOWING AND t2
	// FOLLOWING — strictly after the current row, bounded by key distance.
	in := windowInput(
		[]int64{1, 1, 1, 1},
		[]int64{0, 100, 150, 400},
		[]int64{1, 2, 3, 4},
	)
	got := runWindow(t, in, WindowAgg{
		Func: "max", Arg: colFn(2), OutName: "after",
		Frame: FrameSpec{Mode: FrameRangeMode, StartType: sqlast.BoundFollowing, StartOff: 1, EndType: sqlast.BoundFollowing, EndOff: 200},
	})
	// Row 0 (k=0): frame keys in [1,200] -> rows k=100,150 -> max 3.
	// Row 1 (k=100): [101,300] -> k=150 -> 3.
	// Row 2 (k=150): [151,350] -> none -> NULL.
	// Row 3 (k=400): none -> NULL.
	if got[0].Int() != 3 || got[1].Int() != 3 || !got[2].IsNull() || !got[3].IsNull() {
		t.Fatalf("range following = %v", got)
	}
}

func TestWindowCountEmptyFrameIsZero(t *testing.T) {
	in := windowInput([]int64{1, 1}, []int64{0, 1000}, []int64{1, 2})
	got := runWindow(t, in, WindowAgg{
		Func: "count", Arg: colFn(2), OutName: "c",
		Frame: FrameSpec{Mode: FrameRangeMode, StartType: sqlast.BoundFollowing, StartOff: 1, EndType: sqlast.BoundFollowing, EndOff: 10},
	})
	if got[0].Int() != 0 || got[1].Int() != 0 {
		t.Fatalf("count over empty frame = %v", got)
	}
}

func TestWindowPeersDefaultFrame(t *testing.T) {
	// Default frame with ORDER BY: running aggregate including peers.
	in := windowInput([]int64{1, 1, 1, 1}, []int64{1, 2, 2, 3}, []int64{10, 20, 30, 40})
	got := runWindow(t, in, WindowAgg{
		Func: "sum", Arg: colFn(2), OutName: "s",
		Frame: FrameSpec{Mode: FramePeers},
	})
	want := []int64{10, 60, 60, 100} // peers at k=2 share the result
	for i, w := range want {
		if got[i].Int() != w {
			t.Fatalf("peers frame = %v, want %v", got, want)
		}
	}
}

func TestWindowWholePartition(t *testing.T) {
	in := windowInput([]int64{1, 1, 2}, []int64{1, 2, 1}, []int64{10, 20, 40})
	got := runWindow(t, in, WindowAgg{
		Func: "min", Arg: colFn(2), OutName: "m",
		Frame: FrameSpec{Mode: FramePartition},
	})
	if got[0].Int() != 10 || got[1].Int() != 10 || got[2].Int() != 40 {
		t.Fatalf("partition frame = %v", got)
	}
}

func TestWindowRowNumber(t *testing.T) {
	in := windowInput([]int64{1, 1, 2, 2, 2}, []int64{1, 2, 1, 2, 3}, []int64{0, 0, 0, 0, 0})
	got := runWindow(t, in, WindowAgg{Func: "row_number", OutName: "rn"})
	want := []int64{1, 2, 1, 2, 3}
	for i, w := range want {
		if got[i].Int() != w {
			t.Fatalf("row_number = %v", got)
		}
	}
}

func TestWindowSuffixRunning(t *testing.T) {
	// ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING: the "exists a
	// later row with flag" pattern used by the missing rule's r2.
	in := windowInput([]int64{1, 1, 1}, []int64{1, 2, 3}, []int64{0, 1, 0})
	got := runWindow(t, in, WindowAgg{
		Func: "max", Arg: colFn(2), OutName: "later",
		Frame: FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundFollowing, StartOff: 1, EndType: sqlast.BoundUnboundedFollowing},
	})
	if got[0].Int() != 1 || got[1].Int() != 0 || !got[2].IsNull() {
		t.Fatalf("suffix running = %v", got)
	}
}

// windowCase is one random window input, sorted as the planner guarantees:
// partition values (nil: no PARTITION BY) — NULL first, then INT or FLOAT,
// where a partition is a run of adjacent equal values, so INT 1 beside
// FLOAT 1 splits as grouping always has — ascending order keys with
// peers, and argument values.
type windowCase struct {
	parts      []types.Value
	keys, vals []int64
}

// randomWindowCase draws a case of one of three shapes: up to 60 rows in
// small partitions; one to three morsels of small partitions, one
// straddling every nominal MorselSize cut and possibly one larger than a
// morsel; or no PARTITION BY over up to three morsels, enough for the
// window to fan its one morsel out.
func randomWindowCase(rng *rand.Rand) windowCase {
	var n, big int
	partitioned := true
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4, 5, 6:
		n, big = 1+rng.Intn(60), -1
	case 7, 8:
		n, big = MorselSize+1+rng.Intn(2*MorselSize), -1
		if rng.Intn(2) == 0 {
			big = rng.Intn(n - MorselSize)
		}
	default:
		n, big, partitioned = 1+rng.Intn(3*MorselSize), -1, false
	}
	wc := windowCase{keys: make([]int64, n), vals: make([]int64, n)}
	if partitioned {
		wc.parts = make([]types.Value, n)
	}
	part := types.Null
	if rng.Intn(3) > 0 {
		part = types.NewInt(0)
	}
	p, k := int64(0), int64(0)
	for i := 0; i < n; i++ {
		inBig := big >= 0 && i > big && i <= big+MorselSize
		if partitioned && i > 0 && i%MorselSize != 0 && !inBig && rng.Intn(5) == 0 {
			switch {
			case !part.IsNull() && rng.Intn(4) == 0:
				// Same number, other kind: one partition, as ORDER BY
				// ties them.
				if part.Kind() == types.KindInt {
					part = types.NewFloat(float64(p))
				} else {
					part = types.NewInt(p)
				}
			case rng.Intn(2) == 0:
				p++
				part, k = types.NewInt(p), 0
			default:
				p++
				part, k = types.NewFloat(float64(p)), 0
			}
		}
		k += int64(rng.Intn(4)) // duplicate keys are peers
		if partitioned {
			wc.parts[i] = part
		}
		wc.keys[i], wc.vals[i] = k, int64(rng.Intn(100))
	}
	return wc
}

func (wc windowCase) node(fn string, spec FrameSpec) *WindowNode {
	rows := make([]schema.Row, len(wc.keys))
	for i := range rows {
		p := types.Null
		if wc.parts != nil {
			p = wc.parts[i]
		}
		rows[i] = schema.Row{p, types.NewInt(wc.keys[i]), types.NewInt(wc.vals[i])}
	}
	in := NewValuesNode(intSchema("p", "k", "v"), rows)
	out := in.Schema().Clone()
	out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
	var part []*eval.Compiled
	if wc.parts != nil {
		part = []*eval.Compiled{colFn(0)}
	}
	return NewWindowNode(in, out, part, []*eval.Compiled{colFn(1)}, []bool{false},
		[]WindowAgg{{Func: fn, Arg: colFn(2), OutName: "w", Frame: spec}})
}

// samePartition is partition-key equality: NULL with NULL, and numbers
// that compare equal, whatever their kinds.
func samePartition(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, err := types.Compare(a, b)
	return err == nil && c == 0
}

// bruteWindow recomputes one aggregate by scanning every row of the
// partition for each row's frame; the property test below checks the
// operator against it at the rows it returns. Those are every row of a
// partition of up to 256 rows, and in a larger one its first and last 64
// rows and every 61st between, which keeps the scan off the quadratic
// cost of a partition wider than a morsel.
func bruteWindow(wc windowCase, fn string, spec FrameSpec) ([]types.Value, []int) {
	n := len(wc.keys)
	keys := wc.keys
	out := make([]types.Value, n)
	var checked []int
	for s := 0; s < n; {
		e := s + 1
		for e < n && (wc.parts == nil || samePartition(wc.parts[e], wc.parts[s])) {
			e++
		}
		for i := s; i < e; i++ {
			if e-s > 256 && i-s >= 64 && e-i > 64 && (i-s)%61 != 0 {
				continue
			}
			checked = append(checked, i)
			var cnt, sum, mx, mn int64
			for j := s; j < e; j++ {
				in := false
				switch spec.Mode {
				case FramePartition:
					in = true
				case FramePeers:
					in = keys[j] <= keys[i]
				case FrameRowsMode:
					d := i - j // positive: j precedes i
					lowOK, highOK := false, false
					switch spec.StartType {
					case sqlast.BoundUnboundedPreceding:
						lowOK = true
					case sqlast.BoundPreceding:
						lowOK = d <= int(spec.StartOff)
					case sqlast.BoundCurrentRow:
						lowOK = d <= 0
					case sqlast.BoundFollowing:
						lowOK = -d >= int(spec.StartOff)
					}
					switch spec.EndType {
					case sqlast.BoundUnboundedFollowing:
						highOK = true
					case sqlast.BoundFollowing:
						highOK = -d <= int(spec.EndOff)
					case sqlast.BoundCurrentRow:
						highOK = d >= 0
					case sqlast.BoundPreceding:
						highOK = d >= int(spec.EndOff)
					}
					in = lowOK && highOK
				case FrameRangeMode:
					lo, hi := int64(-1<<62), int64(1<<62)
					switch spec.StartType {
					case sqlast.BoundPreceding:
						lo = keys[i] - spec.StartOff
					case sqlast.BoundCurrentRow:
						lo = keys[i]
					case sqlast.BoundFollowing:
						lo = keys[i] + spec.StartOff
					}
					switch spec.EndType {
					case sqlast.BoundFollowing:
						hi = keys[i] + spec.EndOff
					case sqlast.BoundCurrentRow:
						hi = keys[i]
					case sqlast.BoundPreceding:
						hi = keys[i] - spec.EndOff
					}
					in = keys[j] >= lo && keys[j] <= hi
				}
				if !in {
					continue
				}
				v := wc.vals[j]
				if cnt == 0 || v > mx {
					mx = v
				}
				if cnt == 0 || v < mn {
					mn = v
				}
				cnt, sum = cnt+1, sum+v
			}
			switch {
			case fn == "count":
				out[i] = types.NewInt(cnt)
			case cnt == 0:
				out[i] = types.Null
			case fn == "sum":
				out[i] = types.NewInt(sum)
			case fn == "max":
				out[i] = types.NewInt(mx)
			default:
				out[i] = types.NewInt(mn)
			}
		}
		s = e
	}
	return out, checked
}

// Property: the window operator agrees with brute force over random sorted
// inputs of up to three morsels, random frames, and every aggregate
// function, at parallelism 1 and 4, drained by Run and streamed by Open.
func TestWindowMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wc := randomWindowCase(rng)
		fns := []string{"count", "sum", "max", "min"}
		fn := fns[rng.Intn(len(fns))]
		var spec FrameSpec
		switch rng.Intn(4) {
		case 0:
			spec = FrameSpec{Mode: FramePartition}
		case 1:
			spec = FrameSpec{Mode: FramePeers}
		case 2, 3:
			mode := FrameRowsMode
			if rng.Intn(2) == 0 {
				mode = FrameRangeMode
			}
			boundTypes := []sqlast.BoundType{
				sqlast.BoundUnboundedPreceding, sqlast.BoundPreceding,
				sqlast.BoundCurrentRow, sqlast.BoundFollowing, sqlast.BoundUnboundedFollowing,
			}
			var st, et sqlast.BoundType
			for {
				st = boundTypes[rng.Intn(4)]   // not unbounded following
				et = boundTypes[1+rng.Intn(4)] // not unbounded preceding
				if st <= et {
					break
				}
			}
			spec = FrameSpec{
				Mode: mode, StartType: st, EndType: et,
				StartOff: int64(rng.Intn(5)), EndOff: int64(rng.Intn(5)),
			}
		}
		want, checked := bruteWindow(wc, fn, spec)
		for _, par := range []int{1, 4} {
			for _, mode := range []string{"Run", "Open"} {
				var rows []schema.Row
				var err error
				if mode == "Run" {
					var res *Result
					if res, err = Run(NewCtx().SetParallelism(par), wc.node(fn, spec)); err == nil {
						rows = res.Rows
					}
				} else {
					rows, err = collectStream(Open(NewCtx().SetParallelism(par), wc.node(fn, spec)))
				}
				if err != nil || len(rows) != len(want) {
					t.Logf("seed %d par %d %s: %d rows, err %v", seed, par, mode, len(rows), err)
					return false
				}
				for _, i := range checked {
					if got := rows[i][3]; !got.Equal(want[i]) {
						t.Logf("seed %d par %d %s fn %s spec %+v row %d of %d: got %v want %v", seed, par, mode, fn, spec, i, len(want), got, want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Windows stacked in one pipeline, through a filter and a projection,
// agree with the same windows run one storey at a time over materialized
// rows — both when the upper window shares the source's morsels (its
// partition columns include the lower one's) and when its input becomes
// the leaf (they do not).
func TestStackedWindowsMatchMaterialized(t *testing.T) {
	const n = 3 * MorselSize
	rows := make([]schema.Row, n)
	for i := range rows {
		// p partitions finely and q coarsely; sorted on p is sorted on q.
		rows[i] = schema.Row{types.NewInt(int64(i / 7)), types.NewInt(int64(i / 5000)), types.NewInt(int64(i % 7)), types.NewInt(int64(i * 7919 % 101))}
	}
	sch := intSchema("p", "q", "k", "v")
	widen := func(in *schema.Schema) *schema.Schema {
		out := in.Clone()
		out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
		return out
	}
	frame := FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundPreceding, StartOff: 2, EndType: sqlast.BoundFollowing, EndOff: 1}
	lower := func(in Node) Node {
		return NewWindowNode(in, widen(in.Schema()), []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(2)}, []bool{false},
			[]WindowAgg{{Func: "sum", Arg: colFn(3), OutName: "w", Frame: frame}})
	}
	middle := func(in Node) Node {
		odd := eval.FromFunc(func(r schema.Row) (types.Value, error) { return types.NewBool(r[4].Int()%2 == 1), nil })
		f := NewFilterNode(in, odd, "w%2=1")
		// p, q, k, w: the window's sum becomes the next argument.
		return NewProjectNode(f, sch, []*eval.Compiled{colFn(0), colFn(1), colFn(2), colFn(4)})
	}
	for name, part := range map[string][]*eval.Compiled{
		"shared":   {colFn(1), colFn(0)},
		"own-leaf": {colFn(1)},
	} {
		upper := func(in Node) Node {
			return NewWindowNode(in, widen(in.Schema()), part, []*eval.Compiled{colFn(2)}, []bool{false},
				[]WindowAgg{{Func: "sum", Arg: colFn(3), OutName: "w", Frame: frame}})
		}
		for _, par := range []int{1, 4} {
			var in Node = NewValuesNode(sch, rows)
			for _, storey := range []func(Node) Node{lower, middle, upper} {
				top := storey(in)
				res, err := Run(NewCtx().SetParallelism(par), top)
				if err != nil {
					t.Fatal(err)
				}
				in = NewValuesNode(top.Schema(), res.Rows)
			}
			want := in.(*ValuesNode).RowsData
			stack := upper(middle(lower(NewValuesNode(sch, rows)))).(*WindowNode)
			ctx := NewCtx().SetParallelism(par)
			res, err := Run(ctx, stack)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s par=%d: stacked windows differ from storey-at-a-time", name, par)
			}
			if leaf := Materialized(ctx, stack.Input); leaf != (name == "own-leaf") {
				t.Errorf("%s par=%d: upper window's input materialized = %v", name, par, leaf)
			}
		}
	}
}

// A wide RANGE frame over one 2M-row partition folds millions of values
// per row: cancellation is polled within a fold, not only between rows.
func TestWindowCancelsMidFold(t *testing.T) {
	const n = 2_000_000
	row := schema.Row{types.NewInt(1), types.NewInt(7), types.NewInt(1)} // all peers
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = row
	}
	in := NewValuesNode(intSchema("p", "k", "v"), rows)
	out := in.Schema().Clone()
	out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
	w := NewWindowNode(in, out, nil, []*eval.Compiled{colFn(1)}, []bool{false}, []WindowAgg{{Func: "count", OutName: "w",
		Frame: FrameSpec{Mode: FrameRangeMode, StartType: sqlast.BoundPreceding, StartOff: 1000, EndType: sqlast.BoundFollowing, EndOff: 1000}}})
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceled := make(chan time.Time, 1)
	time.AfterFunc(300*time.Millisecond, func() {
		canceled <- time.Now()
		cancel()
	})
	_, err := Run(NewCtxWith(cctx), w)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := returned.Sub(<-canceled); d > 250*time.Millisecond {
		t.Errorf("returned %v after the cancel, want within 250ms", d)
	}
}

func TestWindowRangeRequiresSingleAscKey(t *testing.T) {
	in := windowInput([]int64{1}, []int64{1}, []int64{1})
	out := in.Schema().Clone()
	out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
	w := NewWindowNode(in, out, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(1)}, []bool{true},
		[]WindowAgg{{Func: "max", Arg: colFn(2), OutName: "w",
			Frame: FrameSpec{Mode: FrameRangeMode, StartType: sqlast.BoundPreceding, EndType: sqlast.BoundCurrentRow}}})
	if _, err := Run(NewCtx(), w); err == nil {
		t.Fatal("descending RANGE order must error")
	}
}

func TestWindowMultipleAggsOnePass(t *testing.T) {
	in := windowInput([]int64{1, 1, 1}, []int64{1, 2, 3}, []int64{5, 7, 3})
	out := in.Schema().Clone()
	out.Columns = append(out.Columns,
		schema.Col("", "prev", types.KindInt),
		schema.Col("", "total", types.KindInt),
	)
	w := NewWindowNode(in, out, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(1)}, []bool{false}, []WindowAgg{
		{Func: "max", Arg: colFn(2), OutName: "prev",
			Frame: FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundPreceding, StartOff: 1, EndType: sqlast.BoundPreceding, EndOff: 1}},
		{Func: "sum", Arg: colFn(2), OutName: "total", Frame: FrameSpec{Mode: FramePartition}},
	})
	res := mustExec(t, w)
	if !res.Rows[0][3].IsNull() || res.Rows[1][3].Int() != 5 || res.Rows[2][3].Int() != 7 {
		t.Fatalf("prev col = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[4].Int() != 15 {
			t.Fatalf("total col = %v", res.Rows)
		}
	}
}

// Parallel partition evaluation must agree with serial evaluation on a
// large multi-partition input (and pass the race detector).
func TestWindowParallelMatchesSerial(t *testing.T) {
	const n = 10000
	parts := make([]int64, n)
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range parts {
		parts[i] = int64(i / 37)
		keys[i] = int64(i % 37)
		vals[i] = int64((i * 7919) % 101)
	}
	build := func() *WindowNode {
		in := windowInput(parts, keys, vals)
		out := in.Schema().Clone()
		out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
		return NewWindowNode(in, out, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(1)}, []bool{false},
			[]WindowAgg{{Func: "sum", Arg: colFn(2), OutName: "w",
				Frame: FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundPreceding, StartOff: 3, EndType: sqlast.BoundFollowing, EndOff: 2}}})
	}
	old := Parallelism
	defer func() { Parallelism = old }()

	Parallelism = 1
	serial := mustExec(t, build())
	Parallelism = 8
	parallel := mustExec(t, build())
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatal("row count mismatch")
	}
	for i := range serial.Rows {
		a, b := serial.Rows[i][3], parallel.Rows[i][3]
		if !a.Equal(b) {
			t.Fatalf("row %d: serial %v vs parallel %v", i, a, b)
		}
	}
}

// unpartitionedWindow is a ROWS-frame sum with no PARTITION BY over in,
// whose first column it sums.
func unpartitionedWindow(in Node) *WindowNode {
	out := in.Schema().Clone()
	out.Columns = append(out.Columns, schema.Col("", "w", types.KindInt))
	return NewWindowNode(in, out, nil, []*eval.Compiled{colFn(1)}, []bool{false},
		[]WindowAgg{{Func: "sum", Arg: colFn(0), OutName: "w",
			Frame: FrameSpec{Mode: FrameRowsMode, StartType: sqlast.BoundPreceding, StartOff: 2, EndType: sqlast.BoundCurrentRow}}})
}

// A window without PARTITION BY is one morsel, yet the filter below it,
// its own argument and row passes, and the filter above it all run on
// every worker, with the serial result.
func TestUnpartitionedWindowStaysParallel(t *testing.T) {
	rows := make([]schema.Row, 8*MorselSize)
	for i := range rows {
		rows[i] = schema.Row{types.NewInt(int64(i * 7919 % 101)), types.NewInt(int64(i))}
	}
	below := NewFilterNode(NewValuesNode(intSchema("v", "k"), rows), evenPred(), "v%2=0")
	w := unpartitionedWindow(below)
	above := NewFilterNode(w, eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(r[2].Int()%3 != 0), nil
	}), "w%3<>0")
	want, err := Run(NewCtx().SetParallelism(1), above)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"Run", "Open"} {
		ctx := NewCtx().SetParallelism(4).EnableStats()
		var got []schema.Row
		var err error
		if mode == "Run" {
			var res *Result
			if res, err = Run(ctx, above); err == nil {
				got = res.Rows
			}
		} else {
			got, err = collectStream(Open(ctx, above))
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Rows) {
			t.Errorf("%s: par 4 differs from par 1", mode)
		}
		for _, n := range []Node{below, w, above} {
			if st := ctx.Stats(n); st == nil || st.Workers != 4 {
				t.Errorf("%s: %s stats %+v, want workers=4", mode, n.Label(), st)
			}
		}
	}
}

// With spilling off the window's whole working set is budgeted — its
// argument and output columns as well as the widened rows — so a budget
// that holds the rows but not the columns refuses it.
func TestUnpartitionedWindowBudgetsItsScratch(t *testing.T) {
	const n = 10000
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{types.NewInt(int64(i % 101)), types.NewInt(int64(i))}
	}
	w := unpartitionedWindow(NewValuesNode(intSchema("v", "k"), rows))
	widened := int64(n) * (rowHdrBytes + 3*valueBytes)
	res := govern.NewResources(widened+n*valueBytes, false, t.TempDir(), govern.Inject{})
	defer res.Close()
	if _, err := Run(NewCtx().SetResources(res), w); !errors.Is(err, govern.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}

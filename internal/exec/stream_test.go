package exec

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// collectStream drains a stream, copying every batch (batches may alias
// engine buffers that the next call invalidates).
func collectStream(st Stream) ([]schema.Row, error) {
	defer st.Close()
	var out []schema.Row
	for {
		b, err := st.Next()
		if err != nil {
			return out, err
		}
		if b == nil {
			return out, nil
		}
		for _, r := range b {
			out = append(out, append(schema.Row{}, r...))
		}
	}
}

// streamTable builds a two-column table big enough that parallel scans
// split it across many morsels.
func streamTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tab := storage.NewTable("t", intSchema("a", "b"))
	for i := 0; i < n; i++ {
		tab.Append(schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 17))})
	}
	return tab
}

// evenPred keeps rows with an even first column.
func evenPred() *eval.Compiled {
	return eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(r[0].Int()%2 == 0), nil
	})
}

// fusedScan is a sequential scan with the predicate fused in — the
// streaming fast path.
func fusedEvenScan(tab *storage.Table) *ScanNode {
	return fuse(NewScanNode(tab), evenPred(), "a%2=0", nil)
}

// streamPlans enumerates one plan per streaming source plus the breaker
// and shared-subtree fallbacks. Each call builds fresh nodes so plans
// never share executor-visible state across runs.
func streamPlans(tab *storage.Table) map[string]func() Node {
	double := func() *eval.Compiled {
		return eval.FromFunc(func(r schema.Row) (types.Value, error) {
			return types.NewInt(r[0].Int() * 2), nil
		})
	}
	return map[string]func() Node{
		"fused-scan": func() Node { return fusedEvenScan(tab) },
		// Matches rows in the last morsels only: every earlier morsel
		// yields no row, which must not read as end of stream.
		"sparse-fused-scan": func() Node {
			return fuse(NewScanNode(tab), eval.FromFunc(func(r schema.Row) (types.Value, error) {
				return types.NewBool(r[0].Int() >= 19990 || r[0].Int() == 9000), nil
			}), "a>=19990 or a=9000", nil)
		},
		"plain-scan": func() Node { return NewScanNode(tab) },
		"filter": func() Node {
			return NewFilterNode(NewScanNode(tab), evenPred(), "a%2=0")
		},
		"project-over-filter": func() Node {
			f := NewFilterNode(NewScanNode(tab), evenPred(), "a%2=0")
			return NewProjectNode(f, intSchema("d", "b"), []*eval.Compiled{double(), colFn(1)})
		},
		"limit-offset": func() Node {
			l := NewLimitNode(fusedEvenScan(tab), 100)
			l.Offset = 7
			return l
		},
		"hash-join": func() Node {
			dim := NewValuesNode(intSchema("k", "v"), intRows(
				[]int64{0, 100}, []int64{3, 103}, []int64{7, 107}, []int64{11, 111},
			))
			probe := NewProjectNode(NewScanNode(tab), intSchema("m", "a"),
				[]*eval.Compiled{eval.FromFunc(func(r schema.Row) (types.Value, error) {
					return types.NewInt(r[0].Int() % 13), nil
				}), colFn(0)})
			return NewHashJoinNode(probe, dim, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "m=k")
		},
		"sort-breaker": func() Node {
			return NewSortNode(fusedEvenScan(tab), []*eval.Compiled{colFn(1), colFn(0)}, []bool{false, true})
		},
		"group-breaker": func() Node {
			return NewGroupNode(NewScanNode(tab), intSchema("b", "cnt"),
				[]*eval.Compiled{colFn(1)}, []AggSpec{{Func: "count", OutName: "cnt"}})
		},
		"distinct": func() Node {
			return NewDistinct(NewProjectNode(NewScanNode(tab), intSchema("b"), []*eval.Compiled{colFn(1)}))
		},
		"shared-subtree": func() Node {
			shared := NewFilterNode(NewScanNode(tab), evenPred(), "a%2=0")
			u, err := NewUnionNode(shared, shared)
			if err != nil {
				panic(err)
			}
			return u
		},
	}
}

func TestStreamMatchesRunAcrossPlans(t *testing.T) {
	tab := streamTable(t, 20000)
	for name, mk := range streamPlans(tab) {
		for _, par := range []int{1, 4} {
			n := mk()
			want, err := Run(NewCtx().SetParallelism(par), n)
			if err != nil {
				t.Fatalf("%s par=%d: Run: %v", name, par, err)
			}
			got, err := collectStream(Open(NewCtx().SetParallelism(par), mk()))
			if err != nil {
				t.Fatalf("%s par=%d: stream: %v", name, par, err)
			}
			if len(got) != len(want.Rows) {
				t.Fatalf("%s par=%d: stream rows = %d, Run rows = %d", name, par, len(got), len(want.Rows))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want.Rows[i]) {
					t.Fatalf("%s par=%d: row %d differs: stream %v, run %v", name, par, i, got[i], want.Rows[i])
				}
			}
		}
	}
}

// TestStreamRecordsNodeStats holds Run and Open-and-drain to one set of
// per-operator numbers: both consume the same pipeline, so every node of
// every plan records the same rows, fan-out, eval mode, batches and
// segments either way.
func TestStreamRecordsNodeStats(t *testing.T) {
	tab := streamTable(t, 20000)
	type facts struct {
		Rows, Workers, Batches, Segments, Pruned int
		EvalMode                                 string
	}
	collect := func(ctx *Ctx, root Node) map[string]facts {
		out := map[string]facts{}
		var walk func(n Node, path string)
		walk = func(n Node, path string) {
			path += "/" + n.Label()
			if st := ctx.Stats(n); st != nil {
				out[path] = facts{st.Rows, st.Workers, st.Batches, st.Segments, st.Pruned, st.EvalMode}
			}
			for _, c := range n.Children() {
				walk(c, path)
			}
		}
		walk(root, "")
		return out
	}
	for name, mk := range streamPlans(tab) {
		for _, par := range []int{1, 4} {
			n := mk()
			runCtx := NewCtx().SetParallelism(par).EnableStats()
			res, err := Run(runCtx, n)
			if err != nil {
				t.Fatalf("%s par=%d: Run: %v", name, par, err)
			}
			streamCtx := NewCtx().SetParallelism(par).EnableStats()
			rows, err := collectStream(Open(streamCtx, n))
			if err != nil {
				t.Fatalf("%s par=%d: stream: %v", name, par, err)
			}
			if st := streamCtx.Stats(n); st == nil || st.Rows != len(rows) || len(rows) != len(res.Rows) {
				t.Fatalf("%s par=%d: root stats = %+v, streamed %d rows, Run %d", name, par, st, len(rows), len(res.Rows))
			}
			want, got := collect(runCtx, n), collect(streamCtx, n)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s par=%d: stats differ\nRun:  %+v\nOpen: %+v", name, par, want, got)
			}
			// Every input here spans five morsels, so at par=4 each
			// operator that evaluates expressions fans out — streamed or
			// drained.
			for path, f := range got {
				if par > 1 && f.EvalMode != "" && f.Workers <= 1 {
					t.Errorf("%s par=%d: %s ran serially: %+v", name, par, path, f)
				}
			}
		}
	}
}

func TestStreamEarlyCloseReleasesMemory(t *testing.T) {
	tab := streamTable(t, 20000)
	plans := map[string]func() Node{
		"fused-scan": func() Node { return fusedEvenScan(tab) },
		// Matches rows in the last morsels only: every earlier morsel
		// yields no row, which must not read as end of stream.
		"sparse-fused-scan": func() Node {
			return fuse(NewScanNode(tab), eval.FromFunc(func(r schema.Row) (types.Value, error) {
				return types.NewBool(r[0].Int() >= 19990 || r[0].Int() == 9000), nil
			}), "a>=19990 or a=9000", nil)
		},
		"project-chain": func() Node {
			f := NewFilterNode(NewScanNode(tab), evenPred(), "a%2=0")
			return NewProjectNode(f, intSchema("a", "b"), []*eval.Compiled{colFn(0), colFn(1)})
		},
		"hash-join": func() Node {
			dim := NewValuesNode(intSchema("k"), intRows([]int64{0}, []int64{2}, []int64{4}))
			return NewHashJoinNode(NewScanNode(tab), dim,
				[]*eval.Compiled{eval.FromFunc(func(r schema.Row) (types.Value, error) {
					return types.NewInt(r[0].Int() % 6), nil
				})},
				[]*eval.Compiled{colFn(0)}, JoinKindInner, nil, "a%6=k")
		},
	}
	for name, mk := range plans {
		for _, par := range []int{1, 4} {
			res := govern.NewResources(0, false, "", govern.Inject{})
			st := Open(NewCtx().SetParallelism(par).SetResources(res), mk())
			b, err := st.Next()
			if err != nil {
				t.Fatalf("%s par=%d: first Next: %v", name, par, err)
			}
			if len(b) == 0 {
				t.Fatalf("%s par=%d: first Next returned no rows", name, par)
			}
			if res.Used() == 0 {
				t.Fatalf("%s par=%d: no memory charged while streaming", name, par)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("%s par=%d: Close: %v", name, par, err)
			}
			if used := res.Used(); used != 0 {
				t.Fatalf("%s par=%d: %d bytes still charged after early Close", name, par, used)
			}
			res.Close()
		}
	}
}

func TestStreamEarlyCloseLeavesNoSpillFiles(t *testing.T) {
	// A sort tight enough to spill runs under the stream, then the stream
	// is abandoned after one batch. The sort's run files must already be
	// merged away, and the join of stream workers must not resurrect any.
	in := NewValuesNode(mixedSchema(), mixedRows(20000))
	sortn := NewSortNode(in, []*eval.Compiled{colFn(0), colFn(2)}, []bool{false, true})

	ctx, res := spillCtx(t, 64<<10)
	st := Open(ctx, sortn)
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if !res.Stats().Spilled() {
		t.Fatal("sort did not spill under a 64KiB budget")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, res)
}

func TestStreamCancelMidStream(t *testing.T) {
	tab := streamTable(t, 20000)
	for _, par := range []int{1, 4} {
		cctx, cancel := context.WithCancel(context.Background())
		st := Open(NewCtxWith(cctx).SetParallelism(par), fusedEvenScan(tab))
		if _, err := st.Next(); err != nil {
			t.Fatalf("par=%d: first Next: %v", par, err)
		}
		cancel()
		var err error
		for i := 0; i < 100; i++ {
			var b []schema.Row
			if b, err = st.Next(); err != nil || b == nil {
				break
			}
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		// The error is sticky.
		if _, err2 := st.Next(); !errors.Is(err2, context.Canceled) {
			t.Fatalf("par=%d: second err = %v, want the same cancellation", par, err2)
		}
		st.Close()
	}
}

func TestStreamSlowOpHonorsCancellation(t *testing.T) {
	tab := streamTable(t, 20000)
	res := govern.NewResources(0, false, "", govern.Inject{SlowOp: 30 * time.Second})
	defer res.Close()
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	st := Open(NewCtxWith(cctx).SetResources(res), fusedEvenScan(tab))
	start := time.Now()
	_, err := st.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("SlowOp injection ignored the cancellation")
	}
	st.Close()
}

func TestStreamWorkerPanicBecomesErrInternal(t *testing.T) {
	tab := streamTable(t, 20000)
	for _, par := range []int{1, 4} {
		res := govern.NewResources(0, false, "", govern.Inject{WorkerPanic: true})
		st := Open(NewCtx().SetParallelism(par).SetResources(res), fusedEvenScan(tab))
		var err error
		for i := 0; i < 100; i++ {
			var b []schema.Row
			if b, err = st.Next(); err != nil || b == nil {
				break
			}
		}
		if !errors.Is(err, govern.ErrInternal) {
			t.Fatalf("par=%d: err = %v, want ErrInternal", par, err)
		}
		st.Close()
		res.Close()

		// The injection is one-shot per query: a fresh stream over the same
		// plan succeeds.
		rows, err := collectStream(Open(NewCtx().SetParallelism(par), fusedEvenScan(tab)))
		if err != nil {
			t.Fatalf("par=%d: stream after panic: %v", par, err)
		}
		if len(rows) == 0 {
			t.Fatalf("par=%d: no rows after recovery", par)
		}
	}
}

func TestStreamWorkersExitOnEarlyClose(t *testing.T) {
	tab := streamTable(t, 50000)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		st := Open(NewCtx().SetParallelism(8), fusedEvenScan(tab))
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d — stream workers leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStreamEmptyResult(t *testing.T) {
	tab := streamTable(t, 100)
	never := eval.FromFunc(func(schema.Row) (types.Value, error) {
		return types.NewBool(false), nil
	})
	st := Open(NewCtx(), NewFilterNode(NewScanNode(tab), never, "false"))
	b, err := st.Next()
	if err != nil || b != nil {
		t.Fatalf("Next = (%v, %v), want (nil, nil)", b, err)
	}
	// EOS is terminal and Close stays a no-op.
	if b, err := st.Next(); err != nil || b != nil {
		t.Fatalf("post-EOS Next = (%v, %v), want (nil, nil)", b, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnsRows: a projection's rows are the execution's own whether it
// copies cells (over a scan, whose rows are the table's) or keeps a prefix
// of rows its input already owns (over a window, through a filter).
func TestOwnsRows(t *testing.T) {
	tab := streamTable(t, 100)
	prefix := func(in Node) Node { return NewProjectNode(in, intSchema("a"), []*eval.Compiled{colFn(0)}) }
	out := intSchema("a", "b", "w")
	window := NewWindowNode(NewScanNode(tab), out, []*eval.Compiled{colFn(1)}, nil, nil,
		[]WindowAgg{{Func: "count", OutName: "w", Frame: FrameSpec{Mode: FramePartition}}})
	for _, tc := range []struct {
		name string
		n    Node
		owns bool
	}{
		{"scan", NewScanNode(tab), false},
		{"filter over scan", NewFilterNode(NewScanNode(tab), evenPred(), "a%2=0"), false},
		{"project over scan", prefix(NewScanNode(tab)), true},
		{"window", window, true},
		{"project over filter over window", prefix(NewFilterNode(window, evenPred(), "a%2=0")), true},
	} {
		if got := OwnsRows(tc.n); got != tc.owns {
			t.Errorf("OwnsRows(%s) = %v, want %v", tc.name, got, tc.owns)
		}
	}
}

// assertNoSpillFiles checks the spill directory holds no leftover files
// before Resources.Close removes it.
func assertNoSpillFiles(t *testing.T, res *govern.Resources) {
	t.Helper()
	dir, err := res.SpillDir()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("stream left %d spill files behind", len(ents))
	}
}

package exec_test

// The cleansing tower: the Window → Project → Filter → Project storeys
// the rule templates compile into, every window partitioned by epc and
// ordered by rtime, run as one pipeline over the sort below them.

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/exec"
)

// cleansingTower plans the paper's q1, its rtime predicate selecting sel
// of caseR, under the expanded rewrite of the first three rules over the
// scale-20 workload. It returns the plan's topmost window, the operators
// from it down to the sort under the lowest window, and that sort.
func cleansingTower(t *testing.T, sel float64) (*exec.WindowNode, []exec.Node, *exec.SortNode) {
	t.Helper()
	e := towerEnv(t)
	res, err := e.DB.Rewriter.RewriteSQL(e.Q1(sel), e.RulePrefix(3), repro.Expanded)
	if err != nil {
		t.Fatal(err)
	}
	var top *exec.WindowNode
	var find func(exec.Node)
	find = func(n exec.Node) {
		if w, ok := n.(*exec.WindowNode); ok && top == nil {
			top = w
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(res.Plan)
	if top == nil {
		t.Fatalf("no window in the plan:\n%s", exec.Explain(res.Plan))
	}
	var storeys []exec.Node
	for n := exec.Node(top); len(n.Children()) > 0; n = n.Children()[0] {
		if s, ok := n.(*exec.SortNode); ok {
			return top, storeys, s
		}
		storeys = append(storeys, n)
	}
	t.Fatalf("no sort under the windows:\n%s", exec.Explain(res.Plan))
	return nil, nil, nil
}

func towerEnv(tb testing.TB) *bench.Env {
	tb.Helper()
	e, err := bench.Load(20, 10)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestCleansingTowerIsOnePipeline(t *testing.T) {
	top, storeys, sort := cleansingTower(t, 0.9)
	ctx := exec.NewCtx().SetParallelism(4).EnableStats()
	if _, err := exec.Run(ctx, top); err != nil {
		t.Fatal(err)
	}
	if !exec.Materialized(ctx, sort) {
		t.Error("the sort under the tower was not materialized")
	}
	windows := 0
	for _, n := range storeys {
		if exec.Materialized(ctx, n) && n != exec.Node(top) {
			t.Errorf("%s inside the tower was materialized", n.Label())
		}
		if _, ok := n.(*exec.WindowNode); ok {
			windows++
			if st := ctx.Stats(n); st == nil || st.Workers != 4 {
				t.Errorf("%s: stats %+v, want workers=4", n.Label(), st)
			}
		}
	}
	if windows != 4 {
		t.Errorf("%d windows in the tower, want 4 (three rules and q1's own)", windows)
	}
	if t.Failed() {
		t.Log("\n" + exec.ExplainAnalyze(top, ctx))
	}
}

// TestCleansingTowerAllocatesPerInputRow bounds what the tower allocates
// per row the sort feeds it: the widened window rows and per-worker
// scratch, not a copy per storey.
func TestCleansingTowerAllocatesPerInputRow(t *testing.T) {
	top, _, sort := cleansingTower(t, 0.1)
	ctx := exec.NewCtx().SetParallelism(1).EnableStats()
	if _, err := exec.Run(ctx, top); err != nil {
		t.Fatal(err)
	}
	rows := uint64(ctx.Stats(sort).Rows)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := exec.Run(exec.NewCtx().SetParallelism(1), top); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 3072
	if per := (after.TotalAlloc - before.TotalAlloc) / runs / rows; per > limit {
		t.Errorf("the tower allocated %d bytes per input row (%d rows), want at most %d", per, rows, limit)
	}
}

// BenchmarkCleansingTower runs the queries whose cost is the tower: q1
// and q2 at 10% selectivity under the expanded and join-back rewrites of
// the first three rules, at scale 20.
func BenchmarkCleansingTower(b *testing.B) {
	e := towerEnv(b)
	for _, q := range []struct{ name, sql string }{{"q1", e.Q1(0.1)}, {"q2", e.Q2(0.1)}} {
		for _, s := range []struct {
			name  string
			strat repro.Strategy
		}{{"expanded", repro.Expanded}, {"join-back", repro.JoinBack}} {
			b.Run(q.name+"/"+s.name, func(b *testing.B) {
				res, err := e.DB.Rewriter.RewriteSQL(q.sql, e.RulePrefix(3), s.strat)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(exec.NewCtx(), res.Plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/storage"
)

// TestExplainGolden pins the plans of the paper's queries: EXPLAIN of the
// EPC lookup, q1, q2 and q2' under every strategy and rule prefix, and
// EXPLAIN ANALYZE of a subset of them serially, at parallelism 4 and on
// the row path, and of q1, q2 and q2' under a 256 KiB budget serially
// and at parallelism 4, at scale 20. A change that moves a plan, an
// estimate or an operator's actual rows, fan-out, eval mode, segment or
// spill counts shows up as a diff against testdata/explain;
// REPRO_UPDATE_GOLDEN=1 rewrites the files.
//
// The layout is pinned, so the files hold under any environment:
//   - the database is loaded fresh under the default segment size (16384
//     rows), not under the REPRO_SEGMENT_ROWS the process started with,
//     so segments= and pruned= match in the tiny-segment CI steps;
//   - exec.Parallelism is 4 while the test runs, so EXPLAIN's [parallel]
//     marks do not depend on the machine's core count;
//   - durations print as T, and at parallelism 4 so does the peak memory,
//     which depends on how the workers interleave.
//
// Spill partitions are chosen by a hash with a fixed seed, and under a
// budget a reservation is refused or granted only between pipelines, so
// the budget cells' spilled= counts are a function of the data, the plan
// and the budget.
func TestExplainGolden(t *testing.T) {
	oldSeg, oldPar := storage.DefaultSegmentRows, exec.Parallelism
	storage.DefaultSegmentRows, exec.Parallelism = 16384, 4
	t.Cleanup(func() { storage.DefaultSegmentRows, exec.Parallelism = oldSeg, oldPar })
	e, err := bench.LoadFresh(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.DB.Query("SELECT epc FROM caser ORDER BY epc LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	lookup := "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = '" + rows.Data[0][0].Str() + "' ORDER BY rtime"
	strategies := []struct {
		name  string
		strat repro.Strategy
	}{{"dirty", repro.Dirty}, {"naive", repro.Naive}, {"expanded", repro.Expanded}, {"join-back", repro.JoinBack}, {"auto", repro.Auto}}

	explain := func(file, query string) {
		var b strings.Builder
		for _, n := range []int{1, 3, 5} {
			for _, s := range strategies {
				fmt.Fprintf(&b, "=== %s, %d rules\n", s.name, n)
				out, err := e.DB.Explain(query, repro.WithStrategy(s.strat), repro.WithRules(e.RulePrefix(n)...))
				if err != nil {
					out = "error: " + err.Error() + "\n"
				}
				b.WriteString(out)
			}
		}
		checkExplainGolden(t, file, b.String())
	}
	explain("lookup.txt", lookup)
	for _, sel := range []int{10, 30} {
		f := float64(sel) / 100
		explain(fmt.Sprintf("q1_%d.txt", sel), e.Q1(f))
		explain(fmt.Sprintf("q2_%d.txt", sel), e.Q2(f))
		explain(fmt.Sprintf("q2p_%d.txt", sel), e.Q2Prime(f))
	}

	type cell struct {
		name, query string
		strat       repro.Strategy
		rules       int
	}
	cells := []cell{
		{"lookup, join-back, 5 rules", lookup, repro.JoinBack, 5},
		{"lookup, naive, 5 rules", lookup, repro.Naive, 5},
		{"q1 10%, expanded, 3 rules", e.Q1(0.1), repro.Expanded, 3},
		{"q1 10%, join-back, 5 rules", e.Q1(0.1), repro.JoinBack, 5},
		{"q2 10%, auto, 3 rules", e.Q2(0.1), repro.Auto, 3},
		{"q2p 10%, naive, 1 rule", e.Q2Prime(0.1), repro.Naive, 1},
	}
	var budgetCells []cell
	for _, q := range []struct{ name, sql string }{{"q1", e.Q1(0.1)}, {"q2", e.Q2(0.1)}, {"q2p", e.Q2Prime(0.1)}} {
		for _, s := range []struct {
			name  string
			strat repro.Strategy
		}{{"join-back", repro.JoinBack}, {"expanded", repro.Expanded}} {
			budgetCells = append(budgetCells, cell{q.name + " 10%, " + s.name + ", 3 rules", q.sql, s.strat, 3})
		}
	}
	analyze := func(file string, cells []cell, opts ...repro.QueryOption) {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "=== %s\n", c.name)
			out, err := e.DB.ExplainAnalyze(c.query, append([]repro.QueryOption{
				repro.WithStrategy(c.strat), repro.WithRules(e.RulePrefix(c.rules)...)}, opts...)...)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			b.WriteString(maskAnalyze(out, strings.HasSuffix(file, "_p4.txt")))
		}
		checkExplainGolden(t, file, b.String())
	}
	analyze("analyze_p1.txt", cells, repro.WithParallelism(1))
	analyze("analyze_p4.txt", cells, repro.WithParallelism(4))
	analyze("analyze_rowpath.txt", cells, repro.WithParallelism(1), repro.WithRowEval())
	analyze("analyze_budget_p1.txt", budgetCells, repro.WithParallelism(1), repro.WithMemoryLimit(256<<10))
	analyze("analyze_budget_p4.txt", budgetCells, repro.WithParallelism(4), repro.WithMemoryLimit(256<<10))
}

var (
	durationRe = regexp.MustCompile(`time=[0-9.]+[a-zµ]+`)
	peakRe     = regexp.MustCompile(`peak=\S+`)
)

// maskAnalyze replaces what varies from run to run of one plan: every
// duration and, when the workers interleave, the peak memory.
func maskAnalyze(s string, parallel bool) string {
	s = durationRe.ReplaceAllString(s, "time=T")
	if parallel {
		s = peakRe.ReplaceAllString(s, "peak=M")
	}
	return s
}

// EXPLAIN's [parallel] marks follow the query's parallelism: a scan of
// every read is marked under a process-wide exec.Parallelism of 4 but not
// under WithParallelism(1), and WithParallelism(4) marks it when the
// process-wide default is serial.
func TestExplainParallelMarkFollowsQuery(t *testing.T) {
	old := exec.Parallelism
	t.Cleanup(func() { exec.Parallelism = old })
	e, err := bench.Load(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT epc, rtime FROM caser"
	for _, c := range []struct {
		global int
		opts   []repro.QueryOption
		want   bool
	}{
		{4, nil, true},
		{4, []repro.QueryOption{repro.WithParallelism(1)}, false},
		{1, nil, false},
		{1, []repro.QueryOption{repro.WithParallelism(4)}, true},
	} {
		exec.Parallelism = c.global
		out, err := e.DB.Explain(q, append(c.opts, repro.WithStrategy(repro.Dirty))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out, "[parallel]"); got != c.want {
			t.Errorf("exec.Parallelism %d, %d options: [parallel] printed %v, want %v\n%s", c.global, len(c.opts), got, c.want, out)
		}
	}
}

func checkExplainGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "explain", name)
	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with REPRO_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// Tests for the observability layer as the public API exposes it: the
// Prometheus/JSON metrics endpoint, trace-span parity with EXPLAIN's plan
// shape (serially and under parallelism, with and without spilling), the
// slow-query log, pinned per-operator row counts on the fixed corpus, and
// race-freedom of the stats surfaces under concurrent query load.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
)

// traceOperatorShape flattens a trace's operator spans (the subtree under
// "execute") into "depth:name" lines, the same shape Explain prints.
func traceOperatorShape(t *testing.T, tr *repro.Trace) []string {
	t.Helper()
	ex := tr.Find("execute")
	if ex == nil {
		t.Fatalf("trace has no execute span:\n%s", tr.String())
	}
	if len(ex.Children) != 1 {
		t.Fatalf("execute span has %d children, want 1 (the plan root)", len(ex.Children))
	}
	var out []string
	ex.Children[0].Walk(func(depth int, sp *repro.Span) {
		out = append(out, fmt.Sprintf("%d:%s", depth, sp.Name))
	})
	return out
}

// explainShape parses Explain/ExplainAnalyze output into "depth:label"
// lines (two spaces of indentation per level, label up to the double
// space before the bracketed annotations).
func explainShape(t *testing.T, plan string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(plan, "\n") {
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		label, _, ok := strings.Cut(strings.TrimLeft(line, " "), "  [")
		if !ok {
			continue
		}
		out = append(out, fmt.Sprintf("%d:%s", indent/2, label))
	}
	return out
}

func TestTraceSpansMatchExplainPlanShape(t *testing.T) {
	db := newGovernDB(t)
	queries := []string{
		spillGroupQuery,
		`SELECT epc, biz_loc FROM caser WHERE rtime >= TIMESTAMP '2021-01-01' ORDER BY rtime, epc, biz_loc LIMIT 10`,
	}
	for _, par := range []int{1, 4} {
		for _, q := range queries {
			opts := []repro.QueryOption{repro.WithParallelism(par), repro.WithTrace(nil)}
			plan, err := db.Explain(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := db.Query(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			tr := rows.Trace()
			if tr == nil {
				t.Fatal("WithTrace query returned no trace")
			}
			got := traceOperatorShape(t, tr)
			want := explainShape(t, plan)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("par=%d: trace shape differs from EXPLAIN\ntrace:\n%s\nexplain:\n%s", par, got, want)
			}
			// The compile/admission stages precede execution in the tree.
			for _, span := range []string{"admission-wait", "execute"} {
				if tr.Find(span) == nil {
					t.Errorf("trace missing %q span:\n%s", span, tr.String())
				}
			}
			if tr.Find("rewrite") == nil && tr.Find("plan-cache") == nil {
				t.Errorf("trace has neither rewrite phases nor a plan-cache span:\n%s", tr.String())
			}
		}
	}
}

// annotationPairs extracts "label key=value" facts from ExplainAnalyze
// output for one key (workers, spilled).
func analyzeAnnotations(plan, key string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(plan, "\n") {
		label, rest, ok := strings.Cut(strings.TrimLeft(line, " "), "  [")
		if !ok {
			continue
		}
		if i := strings.Index(rest, key+"="); i >= 0 {
			val := rest[i+len(key)+1:]
			if j := strings.IndexAny(val, " ]"); j >= 0 {
				val = val[:j]
			}
			out[label] = val
		}
	}
	return out
}

// traceAttrPairs extracts the same facts from a trace's operator spans.
func traceAttrPairs(t *testing.T, tr *repro.Trace, key string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ex := tr.Find("execute")
	if ex == nil {
		t.Fatalf("no execute span")
	}
	ex.Walk(func(depth int, sp *repro.Span) {
		if depth == 0 {
			return
		}
		if v, ok := sp.Attr(key); ok {
			out[sp.Name] = v
		}
	})
	return out
}

func TestTraceWorkerAndSpillAttrsMatchExplainAnalyze(t *testing.T) {
	// Worker fan-out only kicks in once an operator's input reaches the
	// parallel threshold (2 morsels = 8192 rows), so the workers subtest
	// needs the scale-8 corpus; the spill subtest keeps the small one.
	big, err := bench.Load(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		key  string
		db   *repro.DB
		q    string
		opts []repro.QueryOption
	}{
		{"workers at par=4", "workers", big.DB, spillSortQuery, []repro.QueryOption{repro.WithParallelism(4)}},
		{"spill runs under 32KiB", "spilled", newGovernDB(t), spillSortQuery, []repro.QueryOption{repro.WithMemoryLimit(32 << 10)}},
		{"index probes of the join-back lookup", "probe", big.DB, corpusQueries(t, big)["lookup"],
			[]repro.QueryOption{repro.WithStrategy(repro.JoinBack), repro.WithRules(big.RulePrefix(5)...)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db
			plan, err := db.ExplainAnalyze(tc.q, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := analyzeAnnotations(plan, tc.key)
			if len(want) == 0 {
				t.Fatalf("ExplainAnalyze shows no %s= annotations; test is vacuous:\n%s", tc.key, plan)
			}
			rows, err := db.Query(tc.q, append([]repro.QueryOption{repro.WithTrace(nil)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			got := traceAttrPairs(t, rows.Trace(), tc.key)
			for label, v := range want {
				if got[label] != v {
					t.Errorf("%s: span %q has %s=%q, ExplainAnalyze says %q", tc.name, label, tc.key, got[label], v)
				}
			}
		})
	}
}

// TestOperatorRowCountsPinned pins the per-operator row counts of one
// fixed corpus query (scale 1, 10%% anomalies, seed 7 — the same corpus
// every governance test uses). The counts are exact properties of the
// generator and the planner; a change here means either the corpus or an
// operator's output cardinality changed.
func TestOperatorRowCountsPinned(t *testing.T) {
	db := newGovernDB(t)
	rows, err := db.Query(spillGroupQuery, repro.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := traceAttrPairs(t, rows.Trace(), "rows")
	want := map[string]string{
		"Sort(2 keys)":              "25",
		"Project(3 cols)":           "25",
		"HashGroup(1 keys, 2 aggs)": "25",
		"Scan(caser)":               "2451",
	}
	for label, rows := range want {
		if got[label] != rows {
			t.Errorf("operator %q rows = %q, want %q (full: %v)", label, got[label], rows, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("plan has %d operators, pinned %d: %v", len(got), len(want), got)
	}
}

func TestMetricsEndpointSmoke(t *testing.T) {
	db := newGovernDB(t, repro.WithMetricsAddr("127.0.0.1:0"), repro.WithMaxConcurrent(4))
	defer db.Close()
	addr, err := db.MetricsAddr()
	if err != nil || addr == "" {
		t.Fatalf("MetricsAddr = %q, %v", addr, err)
	}

	// Exercise the outcome space: ok (twice, for a cache hit), a spilling
	// query, and a budget failure.
	for i := 0; i < 2; i++ {
		if _, err := db.Query(spillGroupQuery); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(spillSortQuery, repro.WithMemoryLimit(32<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(spillSortQuery, repro.WithMemoryLimit(16<<10), repro.WithoutSpill()); !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("expected ErrResourceExhausted, got %v", err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_queries_total counter",
		`repro_queries_total{outcome="ok"} 3`,
		`repro_queries_total{outcome="exhausted"} 1`,
		"# TYPE repro_query_seconds histogram",
		`repro_query_seconds_bucket{outcome="ok",le="+Inf"} 3`,
		"repro_query_seconds_sum",
		"repro_rewrite_seconds_count",
		// Two hits: the repeated group query, and the exhausted sort (its
		// cache key ignores memory options, so it reuses the spill run's
		// entry before failing in execution).
		"repro_plan_cache_hits_total 2",
		"repro_plan_cache_misses_total",
		"repro_admission_admitted_total 4",
		"repro_spill_runs_total",
		"repro_spilled_queries_total 1",
		`repro_operator_rows_total{op="Scan"}`,
		`repro_operator_rows_total{op="Sort"}`,
		"repro_query_peak_bytes_bucket",
		"repro_query_max_peak_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// JSON exposition parses and carries the same families.
	resp, err = http.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var doc struct {
		Families []struct {
			Name string `json:"name"`
		} `json:"families"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON exposition: %v", err)
	}
	names := map[string]bool{}
	for _, f := range doc.Families {
		names[f.Name] = true
	}
	for _, want := range []string{"repro_queries_total", "repro_query_seconds", "repro_operator_rows_total"} {
		if !names[want] {
			t.Errorf("JSON families missing %q (have %v)", want, names)
		}
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics listener still serving after Close")
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	db := repro.Open(repro.WithSlowQueryLog(0, logger)) // threshold 0: log everything
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(spillSortQuery, repro.WithMemoryLimit(32<<10)); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("slow-query log is not JSON: %v\n%s", err, line)
	}
	if entry["msg"] != "slow query" {
		t.Errorf("msg = %v", entry["msg"])
	}
	if id, _ := entry["query_id"].(string); !strings.HasPrefix(id, "q-") {
		t.Errorf("query_id = %v", entry["query_id"])
	}
	if sql, _ := entry["sql"].(string); !strings.Contains(sql, "FROM caser") {
		t.Errorf("sql = %v", entry["sql"])
	}
	if entry["outcome"] != "ok" {
		t.Errorf("outcome = %v", entry["outcome"])
	}
	if hit, ok := entry["plan_cache_hit"].(bool); !ok || hit {
		t.Errorf("plan_cache_hit = %v, want false on first run", entry["plan_cache_hit"])
	}
	if peak, _ := entry["peak_bytes"].(float64); peak <= 0 {
		t.Errorf("peak_bytes = %v", entry["peak_bytes"])
	}
	if runs, _ := entry["spill_runs"].(float64); runs <= 0 {
		t.Errorf("spill_runs = %v (query ran under a 32KiB budget)", entry["spill_runs"])
	}
	if span, _ := entry["span_1"].(string); !strings.Contains(span, "=") {
		t.Errorf("span_1 = %v, want a name=duration pair", entry["span_1"])
	}
}

func TestTraceHookFiresOnFailure(t *testing.T) {
	db := newGovernDB(t)
	var hooked *repro.Trace
	_, err := db.Query(spillSortQuery,
		repro.WithMemoryLimit(16<<10), repro.WithoutSpill(),
		repro.WithTrace(func(tr *repro.Trace) { hooked = tr }))
	if !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("expected ErrResourceExhausted, got %v", err)
	}
	if hooked == nil {
		t.Fatal("trace hook not called on failed query")
	}
	if oc, _ := hooked.Root.Attr("outcome"); oc != "exhausted" {
		t.Errorf("trace outcome = %q, want exhausted", oc)
	}
	if v, ok := db.Metrics().CounterValue("repro_queries_total", "exhausted"); !ok || v < 1 {
		t.Errorf("repro_queries_total{exhausted} = %v,%v", v, ok)
	}
}

func TestWithoutTelemetry(t *testing.T) {
	db := repro.Open(repro.WithoutTelemetry())
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(spillGroupQuery, repro.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Trace() != nil {
		t.Error("trace collected with telemetry disabled")
	}
	if db.Metrics() != nil {
		t.Error("Metrics() non-nil with telemetry disabled")
	}
	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("MetricsHandler status = %d, want 404", rec.Code)
	}
	if addr, err := db.MetricsAddr(); addr != "" || err != nil {
		t.Errorf("MetricsAddr = %q, %v", addr, err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestStatsSurfacesRaceFree hammers every stats reader — ResourceStats,
// PlanCacheStats, the metrics scrape, Rows.Trace — against a concurrent
// query load. Run under -race this is the consistency audit for the
// serving layer's counters.
func TestStatsSurfacesRaceFree(t *testing.T) {
	db := newGovernDB(t, repro.WithMaxConcurrent(4))
	handler := db.MetricsHandler()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				opts := []repro.QueryOption{repro.WithTrace(nil)}
				if i%2 == 0 {
					opts = append(opts, repro.WithMemoryLimit(32<<10))
				}
				rows, err := db.QueryContext(ctx, spillGroupQuery, opts...)
				if err != nil && !errors.Is(err, repro.ErrCanceled) && !errors.Is(err, repro.ErrOverloaded) {
					t.Errorf("query: %v", err)
					return
				}
				if rows != nil {
					if tr := rows.Trace(); tr != nil {
						_ = tr.String()
					}
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				rs := db.ResourceStats()
				if rs.SpillRuns > 0 && rs.SpillBytes == 0 {
					t.Error("inconsistent snapshot: spill runs without bytes")
					return
				}
				_ = db.PlanCacheStats()
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			}
		}()
	}
	wg.Wait()

	rs := db.ResourceStats()
	if rs.Queries == 0 {
		t.Fatal("no queries ran")
	}
	if v, ok := db.Metrics().CounterValue("repro_queries_total", "ok"); !ok || v == 0 {
		t.Errorf("ok-query counter = %v,%v after load", v, ok)
	}
}

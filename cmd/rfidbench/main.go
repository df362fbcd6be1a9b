// Command rfidbench regenerates every table and figure of the paper's
// evaluation section (§6) against the embedded engine and prints
// paper-style series as markdown. EXPERIMENTS.md is produced from this
// tool's output.
//
//	rfidbench -scale 12 -exp all
//	rfidbench -scale 40 -exp fig7a -reps 5
//
// It also carries the load generator behind scripts/serve_smoke.sh:
// -exp loadgen drives a running rfidserve with open-loop arrivals at a
// target QPS and reports served-QPS and p50/p95/p99 latency, writing
// machine-readable JSON with -out. The repository's benchmark — the one
// a performance claim is measured with — is benchmark/run.sh.
//
//	rfidbench -exp loadgen -url http://127.0.0.1:8080 -qps 200 -dur 5s -out loadgen.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/bench"
)

var (
	scale = flag.Int("scale", 12, "RFIDGen scale factor s (caseR ≈ s*1500 rows)")
	exp   = flag.String("exp", "all", "experiment: all,table1,fig7a,fig7d,fig8,fig9a,fig9b,fig9c,fig9d,plans,telemetry,loadgen")
	reps  = flag.Int("reps", 5, "repetitions per cell (median reported)")

	// loadgen flags (only read with -exp loadgen).
	url       = flag.String("url", "http://127.0.0.1:8080", "loadgen: base URL of a running rfidserve")
	qps       = flag.Float64("qps", 100, "loadgen: open-loop target arrival rate")
	dur       = flag.Duration("dur", 5*time.Second, "loadgen: load duration")
	strat     = flag.String("strategy", "", "loadgen: rewrite strategy for every request (default auto)")
	out       = flag.String("out", "", "loadgen: write the JSON result to this file (stdout gets markdown either way)")
	failOn5xx = flag.Bool("fail-on-5xx", false, "loadgen: exit nonzero when any 5xx, transport, or stream error occurred or the metrics scrape failed")
)

func main() {
	flag.Parse()
	if *exp == "loadgen" {
		// The load generator talks to a remote server; it neither builds a
		// local database nor belongs in the "all" sweep.
		if err := loadgen(); err != nil {
			fmt.Fprintf(os.Stderr, "rfidbench: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n## %s\n\n", title(name))
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "rfidbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	fmt.Printf("# Deferred-cleansing evaluation (scale=%d, caseR ≈ %d reads/db)\n", *scale, *scale*1500)
	run("table1", table1)
	run("fig7a", func() error { return selectivityFig("q1", q1) })
	run("fig7d", func() error { return selectivityFig("q2", q2) })
	run("fig8", func() error { return selectivityFig("q2'", q2p) })
	run("fig9a", func() error { return rulesFig("q1", q1) })
	run("fig9b", func() error { return rulesFig("q2", q2) })
	run("fig9c", func() error { return dirtyFig("q1", q1) })
	run("fig9d", func() error { return dirtyFig("q2", q2) })
	run("plans", plans)
	run("telemetry", telemetry)
}

func title(name string) string {
	switch name {
	case "table1":
		return "Table 1 — expanded conditions for q1 and q2"
	case "fig7a":
		return "Figure 7(a) — q1 elapsed vs selectivity (reader rule, db-10)"
	case "fig7d":
		return "Figure 7(d) — q2 elapsed vs selectivity (reader rule, db-10)"
	case "fig8":
		return "Figure 8 — q2' (uncorrelated predicate) vs selectivity"
	case "fig9a":
		return "Figure 9(a) — q1 elapsed vs number of rules (sel 10%, db-10)"
	case "fig9b":
		return "Figure 9(b) — q2 elapsed vs number of rules (sel 10%, db-10)"
	case "fig9c":
		return "Figure 9(c) — q1 elapsed vs anomaly percentage (3 rules, sel 10%)"
	case "fig9d":
		return "Figure 9(d) — q2 elapsed vs anomaly percentage (3 rules, sel 10%)"
	case "plans":
		return "Figure 7(b,c,e,f,g) — access plans for q1/q1_e/q2/q2_e/q2_j"
	case "telemetry":
		return "Telemetry — q1 trace (cold and plan-cache hit) and engine metrics"
	}
	return name
}

func q1(e *bench.Env, sel float64) string  { return e.Q1(sel) }
func q2(e *bench.Env, sel float64) string  { return e.Q2(sel) }
func q2p(e *bench.Env, sel float64) string { return e.Q2Prime(sel) }

// cell measures the median elapsed time for one variant, after one
// untimed warmup run.
func cell(e *bench.Env, query string, v bench.Variant, rules []string) (string, error) {
	if m, err := e.Run(query, v.Strat, rules); err != nil {
		return "", err
	} else if !m.Feasible {
		return "n/a", nil
	}
	var times []time.Duration
	for r := 0; r < *reps; r++ {
		m, err := e.Run(query, v.Strat, rules)
		if err != nil {
			return "", err
		}
		if !m.Feasible {
			return "n/a", nil
		}
		times = append(times, m.Elapsed)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return fmt.Sprintf("%.1f", float64(times[len(times)/2].Microseconds())/1000), nil
}

func header() string {
	names := []string{}
	for _, v := range bench.Variants() {
		names = append(names, v.Name)
	}
	return "| point | " + strings.Join(names, " (ms) | ") + " (ms) |\n|---|---|---|---|---|"
}

func row(e *bench.Env, label, query string, rules []string) (string, error) {
	cells := []string{label}
	for _, v := range bench.Variants() {
		c, err := cell(e, query, v, rules)
		if err != nil {
			return "", err
		}
		cells = append(cells, c)
	}
	return "| " + strings.Join(cells, " | ") + " |", nil
}

func selectivityFig(name string, mk func(*bench.Env, float64) string) error {
	e, err := bench.Load(*scale, 10)
	if err != nil {
		return err
	}
	rules := e.RulePrefix(1)
	fmt.Println(header())
	for _, sel := range bench.SelectivityPoints {
		r, err := row(e, fmt.Sprintf("%s sel=%d%%", name, int(sel*100)), mk(e, sel), rules)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	return nil
}

func rulesFig(name string, mk func(*bench.Env, float64) string) error {
	e, err := bench.Load(*scale, 10)
	if err != nil {
		return err
	}
	fmt.Println(header())
	for n := 1; n <= 5; n++ {
		r, err := row(e, fmt.Sprintf("%s rules=%d", name, n), mk(e, 0.10), e.RulePrefix(n))
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	return nil
}

func dirtyFig(name string, mk func(*bench.Env, float64) string) error {
	fmt.Println(header())
	for _, pct := range bench.DirtyPoints {
		e, err := bench.Load(*scale, pct)
		if err != nil {
			return err
		}
		r, err := row(e, fmt.Sprintf("%s db-%d", name, pct), mk(e, 0.10), e.RulePrefix(3))
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	return nil
}

func table1() error {
	e, err := bench.Load(*scale, 10)
	if err != nil {
		return err
	}
	fmt.Println("| rule | q1 (rtime <= T1) | q2 (rtime >= T2) |")
	fmt.Println("|---|---|---|")
	ccQ1, err := e.DB.ExpandedConditions(e.Q1(0.10))
	if err != nil {
		return err
	}
	ccQ2, err := e.DB.ExpandedConditions(e.Q2(0.10))
	if err != nil {
		return err
	}
	for _, rule := range []string{"reader", "duplicate", "replacing", "cycle", "missing_r1", "missing_r2"} {
		fmt.Printf("| %s | %s | %s |\n", rule, shorten(ccQ1[rule]), shorten(ccQ2[rule]))
	}
	_ = repro.Auto
	return nil
}

// plans prints the access plans behind Figure 7's discussion: q1 and q1_e
// (shared sort), q2 and q2_e (one extra sort), q2_j (double caseR access).
func plans() error {
	e, err := bench.Load(*scale, 10)
	if err != nil {
		return err
	}
	reader := e.RulePrefix(1)
	show := func(label, query string, strat repro.Strategy, rules []string) error {
		opts := []repro.QueryOption{repro.WithStrategy(strat)}
		if strat != repro.Dirty {
			opts = append(opts, repro.WithRules(rules...))
		}
		plan, err := e.DB.Explain(query, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("### %s\n\n```\n%s```\n\n", label, plan)
		return nil
	}
	if err := show("q1 (Fig 7b)", e.Q1(0.10), repro.Dirty, nil); err != nil {
		return err
	}
	if err := show("q1_e (Fig 7c)", e.Q1(0.10), repro.Expanded, reader); err != nil {
		return err
	}
	if err := show("q2 (Fig 7e)", e.Q2(0.10), repro.Dirty, nil); err != nil {
		return err
	}
	if err := show("q2_e (Fig 7f)", e.Q2(0.10), repro.Expanded, reader); err != nil {
		return err
	}
	return show("q2_j (Fig 7g)", e.Q2(0.10), repro.JoinBack, reader)
}

// telemetry shows what the observability layer records for one
// representative expanded-rewrite query: the span tree of a cold run
// (parse/rewrite/plan phases plus every operator) and of a plan-cache
// hit, then the engine's nonzero metric samples.
func telemetry() error {
	e, err := bench.Load(*scale, 10)
	if err != nil {
		return err
	}
	query := e.Q1(0.10)
	opts := []repro.QueryOption{
		repro.WithStrategy(repro.Expanded),
		repro.WithRules(e.RulePrefix(1)...),
		repro.WithTrace(nil),
	}
	show := func(label string) error {
		rows, err := e.DB.Query(query, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("### %s\n\n```\n%s```\n\n", label, rows.Trace().String())
		return nil
	}
	if err := show("q1_e cold"); err != nil {
		return err
	}
	if err := show("q1_e plan-cache hit"); err != nil {
		return err
	}
	fmt.Printf("### metrics\n\n```\n")
	for _, fam := range e.DB.Metrics().Snapshot() {
		for _, m := range fam.Metrics {
			labels := ""
			for k, v := range m.Labels {
				labels = fmt.Sprintf("{%s=%q}", k, v)
			}
			switch {
			case m.Count != nil && *m.Count > 0:
				fmt.Printf("%s%s count=%d sum=%g\n", fam.Name, labels, *m.Count, *m.Sum)
			case m.Value != nil && *m.Value != 0:
				fmt.Printf("%s%s %g\n", fam.Name, labels, *m.Value)
			}
		}
	}
	fmt.Printf("```\n")
	return nil
}

// loadgenQueries is the default query mix: an aggregate, a group-by with
// ordering, and a dirty-read baseline — small enough to sustain high QPS
// at modest scale, varied enough to exercise rewrite, the plan cache,
// and parallel execution on every arrival.
var loadgenQueries = []string{
	`SELECT COUNT(*) FROM caser`,
	`SELECT biz_loc, COUNT(*) c FROM caser GROUP BY biz_loc ORDER BY c DESC LIMIT 10`,
	`SELECT COUNT(DISTINCT epc) FROM caser`,
}

// loadgen runs the open-loop load generator against a running rfidserve
// and reports service-level numbers (served QPS, latency percentiles),
// optionally as JSON (-out).
func loadgen() error {
	st, err := bench.RunLoad(context.Background(), bench.LoadConfig{
		BaseURL:  strings.TrimRight(*url, "/"),
		Queries:  loadgenQueries,
		Strategy: *strat,
		QPS:      *qps,
		Duration: *dur,
	})
	if err != nil {
		return err
	}
	fmt.Printf("## Load generator — %s (target %.0f QPS for %s)\n\n", *url, *qps, *dur)
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| sent / done / dropped | %d / %d / %d |\n", st.Sent, st.Done, st.Dropped)
	for _, code := range sortedKeys(st.Status) {
		fmt.Printf("| status %s | %d |\n", code, st.Status[code])
	}
	fmt.Printf("| transport / stream errors | %d / %d |\n", st.TransportErrors, st.StreamErrors)
	fmt.Printf("| served QPS | %.1f |\n", st.ServedQPS)
	fmt.Printf("| latency p50 / p95 / p99 / max (ms) | %.2f / %.2f / %.2f / %.2f |\n",
		st.P50ms, st.P95ms, st.P99ms, st.MaxMs)
	fmt.Printf("| rows returned | %d |\n", st.RowsReturned)
	fmt.Printf("| metrics scrape | ok=%v |\n", st.MetricsScrapeOK)
	if *out != "" {
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if *failOn5xx {
		switch {
		case st.Status5xx > 0:
			return fmt.Errorf("%d responses were 5xx", st.Status5xx)
		case st.TransportErrors > 0:
			return fmt.Errorf("%d requests failed below HTTP", st.TransportErrors)
		case st.StreamErrors > 0:
			return fmt.Errorf("%d streams were cut before their terminal object", st.StreamErrors)
		case !st.MetricsScrapeOK:
			return fmt.Errorf("the /metrics scrape failed")
		case st.Done == 0:
			return fmt.Errorf("no requests completed")
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func shorten(s string) string {
	s = strings.ReplaceAll(s, "TIMESTAMP ", "")
	if len(s) > 90 {
		return s[:87] + "..."
	}
	return s
}

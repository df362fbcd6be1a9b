// Command rfidbench regenerates every table and figure of the paper's
// evaluation section (§6) against the embedded engine and prints
// paper-style series as markdown, for reading the paper's trends off a
// local run. EXPERIMENTS.md records no timings: it states the paper's
// qualitative claims and names the test or harness that checks each. The
// repository's benchmark — the one a performance claim is measured with,
// served QPS and latency included — is benchmark/run.sh.
//
//	rfidbench -scale 12 -exp all
//	rfidbench -scale 40 -exp fig7a -reps 5
package main

import (
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
	exp   = flag.String("exp", "all", "experiment: all,table1,fig7a,fig7d,fig8,fig9a,fig9b,fig9c,fig9d,plans,telemetry")
	reps  = flag.Int("reps", 5, "repetitions per cell (median reported)")
)

func main() {
	flag.Parse()
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

func shorten(s string) string {
	s = strings.ReplaceAll(s, "TIMESTAMP ", "")
	if len(s) > 90 {
		return s[:87] + "..."
	}
	return s
}

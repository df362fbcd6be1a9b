// Command rfidclean is an end-to-end driver for the deferred-cleansing
// system: it loads a synthetic RFID workload, registers the paper's
// cleansing rules, rewrites a query under a chosen strategy, and prints
// the rewritten SQL, the physical plan, and/or the results.
//
//	rfidclean -scale 5 -rules 3 -strategy auto -q1 -sel 0.1 -show-sql -explain
//	rfidclean -scale 5 -rules 5 -sql "SELECT count(*) FROM caseR" -run
//	rfidclean -scale 5 -conditions -q1 -sel 0.1       # Table-1 style output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro"
	"repro/internal/bench"
)

var (
	scale    = flag.Int("scale", 5, "scale factor s")
	pct      = flag.Int("pct", 10, "anomaly percentage")
	nRules   = flag.Int("rules", 3, "how many of the paper's rules to enable (1-5)")
	strategy = flag.String("strategy", "auto", "auto|naive|expanded|join-back|dirty")
	useQ1    = flag.Bool("q1", false, "use the paper's q1 (dwell analysis)")
	useQ2    = flag.Bool("q2", false, "use the paper's q2 (site analysis)")
	sel      = flag.Float64("sel", 0.10, "rtime selectivity for -q1/-q2")
	sqlText  = flag.String("sql", "", "run this SQL instead of -q1/-q2")
	showSQL  = flag.Bool("show-sql", false, "print the rewritten SQL")
	explain  = flag.Bool("explain", false, "print the physical plan")
	analyze  = flag.Bool("analyze", false, "execute and print the plan with actual rows/times")
	runIt    = flag.Bool("run", true, "execute and print up to -limit rows")
	limit    = flag.Int("limit", 10, "max rows printed")
	conds    = flag.Bool("conditions", false, "print derived expanded conditions per rule")
)

func main() {
	flag.Parse()
	// Ctrl-C cancels the in-flight query cooperatively instead of killing
	// the process mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := realMain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rfidclean: %v\n", err)
		os.Exit(1)
	}
}

func strat() (repro.Strategy, error) {
	switch *strategy {
	case "auto":
		return repro.Auto, nil
	case "naive":
		return repro.Naive, nil
	case "expanded":
		return repro.Expanded, nil
	case "join-back", "joinback":
		return repro.JoinBack, nil
	case "dirty":
		return repro.Dirty, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", *strategy)
}

func realMain(ctx context.Context) error {
	st, err := strat()
	if err != nil {
		return err
	}
	fmt.Printf("loading workload (scale=%d, %d%% anomalies)...\n", *scale, *pct)
	env, err := bench.Load(*scale, *pct)
	if err != nil {
		return err
	}
	db := env.DB
	rules := env.RulePrefix(*nRules)
	fmt.Printf("rules enabled (creation order): %s\n", strings.Join(rules, ", "))

	query := *sqlText
	switch {
	case query != "":
	case *useQ2:
		query = env.Q2(*sel)
	default:
		query = env.Q1(*sel)
	}

	if *conds {
		cc, err := db.ExpandedConditions(query, repro.WithRules(rules...))
		if err != nil {
			return err
		}
		names := make([]string, 0, len(cc))
		for n := range cc {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("\nderived expanded conditions:")
		for _, n := range names {
			fmt.Printf("  %-12s %s\n", n, cc[n])
		}
	}

	opts := []repro.QueryOption{repro.WithStrategy(st), repro.WithRules(rules...)}
	if st == repro.Dirty {
		opts = []repro.QueryOption{repro.WithStrategy(st)}
	}
	ri, err := db.Rewrite(query, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("\nchosen strategy: %s (est cost %.0f)\n", ri.Strategy, ri.EstCost)
	for _, c := range ri.Candidates {
		marker := " "
		if c.Chosen {
			marker = "*"
		}
		fmt.Printf("  %s candidate %-9s pushes=%d cost=%.0f\n", marker, c.Strategy, c.Pushes, c.EstCost)
	}
	if *showSQL {
		fmt.Println("\nrewritten SQL:")
		fmt.Println(ri.SQL())
	}
	if *explain {
		plan, err := db.Explain(query, opts...)
		if err != nil {
			return err
		}
		fmt.Println("\nplan:")
		fmt.Println(plan)
	}
	if *analyze {
		out, err := db.ExplainAnalyzeContext(ctx, query, opts...)
		if err != nil {
			return err
		}
		fmt.Println("\nplan with runtime statistics:")
		fmt.Println(out)
	}
	if !*runIt {
		return nil
	}
	rows, err := db.QueryContext(ctx, query, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d rows (%s):\n", len(rows.Data), strings.Join(rows.Columns, " | "))
	for i, r := range rows.Data {
		if i >= *limit {
			fmt.Printf("  ... %d more\n", len(rows.Data)-*limit)
			break
		}
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		fmt.Println("  " + strings.Join(parts, " | "))
	}
	return nil
}

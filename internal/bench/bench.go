// Package bench drives the paper's evaluation (§6): it builds the db-10 …
// db-40 databases with RFIDGen, formulates the benchmark queries q1
// ("dwell" analysis), q2 (site analysis), and q2′ (the uncorrelated-
// predicate variant of Figure 8), scales their rtime predicates to a
// requested selectivity, and runs each query under the dirty / naive /
// expanded / join-back strategies, which is exactly the comparison grid
// behind Figures 7–9.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/exec"
	"repro/internal/types"
)

// Env is one loaded benchmark database with its rules defined.
type Env struct {
	DB    *repro.DB
	Scale int
	Pct   int

	// rtime domain of caseR, for selectivity→timestamp conversion.
	minT, maxT int64
	// RuleNames in Table 1 order: reader, duplicate, replacing, cycle,
	// missing_r1, missing_r2.
	RuleNames []string
	// DC is a distribution-center site that actually appears in the data
	// (q2's constant).
	DC string
}

var (
	envMu    sync.Mutex
	envCache = map[string]*Env{}
)

// Load builds (or returns a cached) database at the given scale factor
// and anomaly percentage, with the five paper rules registered.
func Load(scale, pct int) (*Env, error) {
	key := fmt.Sprintf("%d/%d", scale, pct)
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e, nil
	}
	e, err := LoadFresh(scale, pct)
	if err != nil {
		return nil, err
	}
	envCache[key] = e
	return e, nil
}

// LoadFresh builds a new, uncached environment, passing opts through to
// repro.Open. The telemetry-overhead benchmark uses it to build otherwise
// identical DBs with observability on and off; everything else should use
// Load and share the cached default environment.
func LoadFresh(scale, pct int, opts ...repro.Option) (*Env, error) {
	db := repro.Open(opts...)
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: scale, AnomalyPct: pct, Seed: 20060912}); err != nil {
		return nil, err
	}
	names, err := db.DefinePaperRules()
	if err != nil {
		return nil, err
	}
	e := &Env{DB: db, Scale: scale, Pct: pct, RuleNames: names}
	caser, _ := db.Catalog.Table("caser")
	st := caser.Stats(caser.Schema.IndexOf("rtime"))
	if st == nil || st.Min.IsNull() {
		return nil, fmt.Errorf("bench: caser rtime stats missing")
	}
	e.minT, e.maxT = st.Min.TimeUsec(), st.Max.TimeUsec()
	rows, err := db.Query(
		`SELECT l.site, COUNT(*) c FROM caser r, locs l
		 WHERE r.biz_loc = l.gln AND l.site IN ('distribution center 0','distribution center 1','distribution center 2','distribution center 3','distribution center 4')
		 GROUP BY l.site ORDER BY c DESC LIMIT 1`,
		repro.WithStrategy(repro.Dirty))
	if err != nil || len(rows.Data) == 0 {
		return nil, fmt.Errorf("bench: cannot determine a visited DC: %v", err)
	}
	e.DC = rows.Data[0][0].Str()
	return e, nil
}

// tsAtFraction renders the timestamp at a fraction of the rtime domain.
func (e *Env) tsAtFraction(f float64) string {
	usec := e.minT + int64(f*float64(e.maxT-e.minT))
	return types.NewTime(usec).SQL()
}

// Q1 is the paper's "dwell" analysis (Figure 6): average time between two
// consecutive locations, for reads with rtime <= T1, where T1 is placed so
// the predicate selects about sel of caseR.
func (e *Env) Q1(sel float64) string {
	t1 := e.Q1Bound(sel)
	return fmt.Sprintf(`
		WITH v1 AS (
		  SELECT biz_loc AS current_loc, rtime,
		         MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_time,
		         MAX(biz_loc) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_loc
		  FROM caser WHERE rtime <= %s)
		SELECT l1.loc_desc, l2.loc_desc, AVG(rtime - prev_time)
		FROM v1, locs l1, locs l2
		WHERE v1.prev_loc = l1.gln AND v1.current_loc = l2.gln
		GROUP BY l1.loc_desc, l2.loc_desc`, t1)
}

// Q1Bound is Q1's T1 literal at selectivity sel.
func (e *Env) Q1Bound(sel float64) string { return e.tsAtFraction(sel) }

// Q2Bound is Q2's T2 literal at selectivity sel.
func (e *Env) Q2Bound(sel float64) string { return e.tsAtFraction(1 - sel) }

// Q2 is the paper's site analysis (Figure 6): reader utilization and
// business steps per manufacturer at one distribution center, for reads
// with rtime >= T2 selecting about sel of caseR.
func (e *Env) Q2(sel float64) string {
	t2 := e.Q2Bound(sel)
	return fmt.Sprintf(`
		SELECT p.manufacturer, COUNT(DISTINCT s.type), COUNT(DISTINCT c.reader)
		FROM caser c, steps s, locs l, epc_info i, product p
		WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln
		  AND c.epc = i.epc AND i.product = p.product
		  AND c.rtime >= %s
		  AND l.site = '%s'
		GROUP BY p.manufacturer`, t2, e.DC)
}

// Q2Prime is Figure 8's variant: the site predicate is swapped for a
// business-step *type* predicate, which is deliberately uncorrelated with
// EPC sequences — many sequences contribute a single read each, so the
// join-back's sequence restriction loses its advantage.
func (e *Env) Q2Prime(sel float64) string {
	t2 := e.tsAtFraction(1 - sel)
	return fmt.Sprintf(`
		SELECT l.site, COUNT(DISTINCT p.manufacturer), COUNT(DISTINCT c.reader)
		FROM caser c, steps s, locs l, epc_info i, product p
		WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln
		  AND c.epc = i.epc AND i.product = p.product
		  AND c.rtime >= %s
		  AND s.type = 'type-3'
		GROUP BY l.site`, t2)
}

// Variant names one strategy column of the paper's plots.
type Variant struct {
	Name  string
	Strat repro.Strategy
}

// Variants is the paper's comparison set: the (incorrect) dirty baseline
// q, the expanded rewrite q_e, the join-back rewrite q_j, and the naive
// rewrite q_n.
func Variants() []Variant {
	return []Variant{
		{"q", repro.Dirty},
		{"q_e", repro.Expanded},
		{"q_j", repro.JoinBack},
		{"q_n", repro.Naive},
	}
}

// Measurement is one timed execution.
type Measurement struct {
	Variant  string
	Elapsed  time.Duration
	Rows     int
	Feasible bool
	SQL      string
}

// Run rewrites and executes one query under one strategy with the given
// rules, returning wall-clock time of the execution (rewrite+plan time is
// excluded, matching the paper's elapsed-time-of-plan measurements; it is
// negligible either way).
func (e *Env) Run(query string, strat repro.Strategy, rules []string) (Measurement, error) {
	m := Measurement{Feasible: true}
	res, err := e.DB.Rewriter.RewriteSQL(query, rules, strat)
	if err != nil {
		// Expanded rewrites are legitimately infeasible for some rule
		// sets (Table 1's {} entries).
		m.Feasible = false
		return m, nil
	}
	m.SQL = res.SQL
	start := time.Now()
	out, err := exec.Run(exec.NewCtx(), res.Plan)
	if err != nil {
		return m, fmt.Errorf("bench: exec: %w", err)
	}
	m.Elapsed = time.Since(start)
	m.Rows = len(out.Rows)
	return m, nil
}

// RunAll measures every variant for one query.
func (e *Env) RunAll(query string, rules []string) (map[string]Measurement, error) {
	out := map[string]Measurement{}
	for _, v := range Variants() {
		m, err := e.Run(query, v.Strat, rules)
		if err != nil {
			return nil, err
		}
		m.Variant = v.Name
		out[v.Name] = m
	}
	return out, nil
}

// RulePrefix returns the first n rules in Table 1 order, where n=5 means
// all five (the missing rule contributes its two sub-rules).
func (e *Env) RulePrefix(n int) []string {
	if n >= 5 {
		return e.RuleNames
	}
	return e.RuleNames[:n]
}

// SelectivityPoints is the sweep used by Figure 7: 1%–40%.
var SelectivityPoints = []float64{0.01, 0.05, 0.10, 0.20, 0.40}

// DirtyPoints is the anomaly-percentage sweep of Figure 9(c,d).
var DirtyPoints = []int{10, 20, 30, 40}

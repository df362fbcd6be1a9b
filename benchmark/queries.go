package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/types"
)

// gridRules is the rule set of the paper's Figure 7/9 grid; every rule
// in it admits both the expanded and the join-back rewrite.
var gridRules = []string{"reader", "duplicate", "replacing"}

// facts are the properties of the loaded dataset the request generators
// need. They are read back from the server under test, so the generators
// never depend on how the server produced its data.
type facts struct {
	minT, maxT int64    // rtime domain of caser, microseconds
	dc         string   // the busiest distribution center, q2's constant
	epcs       []string // every case EPC, sorted
	caseRows   int
}

func fetchFacts(c *client) (*facts, error) {
	dirty := func(sql string) ([][]any, error) {
		return c.table(queryBody{SQL: sql, Strategy: "dirty"})
	}
	f := &facts{}
	rows, err := dirty("SELECT min(rtime), max(rtime), count(*) FROM caser")
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		return nil, fmt.Errorf("facts: unexpected shape %v", rows)
	}
	for i, dst := range []*int64{&f.minT, &f.maxT} {
		s, _ := rows[0][i].(string)
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return nil, fmt.Errorf("facts: rtime bound %v: %w", rows[0][i], err)
		}
		*dst = t.UnixMicro()
	}
	n, _ := rows[0][2].(float64)
	f.caseRows = int(n)

	rows, err = dirty(`SELECT l.site, COUNT(*) c FROM caser r, locs l
		WHERE r.biz_loc = l.gln AND l.site IN ('distribution center 0','distribution center 1','distribution center 2','distribution center 3','distribution center 4')
		GROUP BY l.site ORDER BY c DESC LIMIT 1`)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("facts: no distribution center is visited")
	}
	f.dc, _ = rows[0][0].(string)

	rows, err = dirty("SELECT DISTINCT epc FROM caser ORDER BY epc")
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s, _ := r[0].(string)
		f.epcs = append(f.epcs, s)
	}
	if len(f.epcs) == 0 || f.caseRows == 0 || f.maxT <= f.minT {
		return nil, fmt.Errorf("facts: empty dataset")
	}
	return f, nil
}

// tsAt renders the timestamp at a fraction of the rtime domain as a SQL
// literal.
func (f *facts) tsAt(frac float64) string {
	return types.NewTime(f.minT + int64(frac*float64(f.maxT-f.minT))).SQL()
}

// lookupSQL is the cleansed history of one EPC.
func lookupSQL(epc string) string {
	return "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = '" + epc + "' ORDER BY rtime"
}

// q1SQL is the paper's dwell analysis (Figure 6) over the reads with
// rtime at or below the sel fraction of the domain; the text matches
// internal/bench.Env.Q1, which needs an in-process DB to place its literal.
func (f *facts) q1SQL(sel float64) string {
	return fmt.Sprintf(`
		WITH v1 AS (
		  SELECT biz_loc AS current_loc, rtime,
		         MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_time,
		         MAX(biz_loc) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_loc
		  FROM caser WHERE rtime <= %s)
		SELECT l1.loc_desc, l2.loc_desc, AVG(rtime - prev_time)
		FROM v1, locs l1, locs l2
		WHERE v1.prev_loc = l1.gln AND v1.current_loc = l2.gln
		GROUP BY l1.loc_desc, l2.loc_desc`, f.tsAt(sel))
}

// q2SQL is the paper's site analysis (Figure 6) over the last sel
// fraction of the domain, as internal/bench.Env.Q2.
func (f *facts) q2SQL(sel float64) string {
	return fmt.Sprintf(`
		SELECT p.manufacturer, COUNT(DISTINCT s.type), COUNT(DISTINCT c.reader)
		FROM caser c, steps s, locs l, epc_info i, product p
		WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln
		  AND c.epc = i.epc AND i.product = p.product
		  AND c.rtime >= %s
		  AND l.site = '%s'
		GROUP BY p.manufacturer`, f.tsAt(1-sel), f.dc)
}

// exportSQL is the raw extract of the first frac of the rtime domain.
func (f *facts) exportSQL(frac float64) string {
	return "SELECT epc, rtime, reader, biz_loc FROM caser WHERE rtime <= " + f.tsAt(frac)
}

// request is one generated query with the class its latency is filed
// under.
type request struct {
	class int
	body  queryBody
}

// mix generates one workload's requests. Every draw comes from the rng it
// is handed, so a seed fixes the whole request sequence of each client.
type mix struct {
	classes []string
	// prime lists requests issued once before the warm-up, so caches the
	// workload relies on are full when timing starts.
	prime func() []request
	next  func(rng *rand.Rand, i int) request
	// sample is how many requests a traced run replays; each is executed
	// about eight times, so costlier requests get a smaller sample.
	sample int
}

const hotSetSize = 64

// lookupMix draws half its lookups from a hot set of EPCs small enough
// to stay in the 256-entry plan cache and half uniformly from all EPCs,
// which at any real scale always miss it.
func lookupMix(f *facts, seed int64) mix {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]string, 0, hotSetSize)
	for _, i := range rng.Perm(len(f.epcs)) {
		if len(hot) == hotSetSize {
			break
		}
		hot = append(hot, f.epcs[i])
	}
	lookup := func(class int, epc string) request {
		return request{class: class, body: queryBody{SQL: lookupSQL(epc)}}
	}
	return mix{
		sample:  48,
		classes: []string{"hot", "cold"},
		prime: func() []request {
			reqs := make([]request, len(hot))
			for i, e := range hot {
				reqs[i] = lookup(0, e)
			}
			return reqs
		},
		next: func(rng *rand.Rand, _ int) request {
			if rng.Intn(2) == 0 {
				return lookup(0, hot[rng.Intn(len(hot))])
			}
			return lookup(1, f.epcs[rng.Intn(len(f.epcs))])
		},
	}
}

var gridStrategies = []string{"dirty", "expanded", "join-back", "auto"}

// gridCell names class c of the analytic grid: q1 under the four
// strategies, then q2.
func gridCell(c int) (query int, strategy string) {
	return c / len(gridStrategies), gridStrategies[c%len(gridStrategies)]
}

// gridMix cycles round-robin through the eight cells, drawing each
// request's selectivity from [9%, 11%] so no two requests share a plan.
func gridMix(f *facts) mix {
	classes := make([]string, 2*len(gridStrategies))
	for c := range classes {
		q, s := gridCell(c)
		classes[c] = fmt.Sprintf("q%d/%s", q+1, s)
	}
	return mix{
		sample:  24,
		classes: classes,
		next: func(rng *rand.Rand, i int) request {
			c := i % len(classes)
			return gridRequest(f, c, 0.09+0.02*rng.Float64())
		},
	}
}

func gridRequest(f *facts, c int, sel float64) request {
	q, strat := gridCell(c)
	sql := f.q1SQL(sel)
	if q == 1 {
		sql = f.q2SQL(sel)
	}
	return request{class: c, body: queryBody{SQL: sql, Strategy: strat, Rules: gridRules}}
}

// exportMix is one query type, so its latency distribution has one mode.
func exportMix(f *facts) mix {
	return mix{
		sample:  10,
		classes: []string{"export"},
		next: func(rng *rand.Rand, _ int) request {
			return request{body: queryBody{SQL: f.exportSQL(0.19 + 0.02*rng.Float64()), Strategy: "dirty"}}
		},
	}
}

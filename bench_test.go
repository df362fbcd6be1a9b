// Benchmarks regenerating every figure of the paper's evaluation (§6).
//
// Figure 7(a): q1 elapsed vs rtime selectivity (reader rule, db-10).
// Figure 7(d): q2 elapsed vs rtime selectivity (reader rule, db-10).
// Figure 8:    q2′ (predicate uncorrelated with EPCs) vs selectivity.
// Figure 9(a,b): q1/q2 vs number of rules (selectivity 10%, db-10).
// Figure 9(c,d): q1/q2 vs anomaly percentage (3 rules, selectivity 10%).
//
// Each figure's series are the paper's four variants: q (dirty baseline),
// q_e (expanded), q_j (join-back), q_n (naive). Expanded sub-benchmarks
// are skipped where the rewrite is infeasible (Table 1's {} entries).
//
// The scale factor defaults to laptop size; set REPRO_BENCH_SCALE to
// enlarge (the paper's 10M-read database corresponds to roughly 6700).
// Absolute times differ from the paper's DB2/AIX numbers; the shape —
// who wins, by what factor, where the crossovers are — is the result.
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/exec"
)

func benchScale() int {
	if v := os.Getenv("REPRO_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

func loadEnv(b *testing.B, pct int) *bench.Env {
	b.Helper()
	e, err := bench.Load(benchScale(), pct)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// runVariant measures one (query, strategy, rules) cell; rewrite+planning
// happen once, execution repeats b.N times.
func runVariant(b *testing.B, e *bench.Env, query string, v bench.Variant, rules []string) {
	b.Helper()
	// One untimed warmup keeps cold-start effects out of b.N=1 runs.
	if m, err := e.Run(query, v.Strat, rules); err != nil {
		b.Fatal(err)
	} else if !m.Feasible {
		b.Skip("rewrite infeasible for this rule set (expected for expanded + cycle/missing)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := e.Run(query, v.Strat, rules)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Feasible {
			b.Skip("rewrite infeasible for this rule set (expected for expanded + cycle/missing)")
		}
	}
}

func selectivityFigure(b *testing.B, mkQuery func(e *bench.Env, sel float64) string) {
	e := loadEnv(b, 10)
	rules := e.RulePrefix(1) // reader rule only, as in §6.2
	for _, sel := range bench.SelectivityPoints {
		for _, v := range bench.Variants() {
			b.Run(fmt.Sprintf("sel=%d%%/%s", int(sel*100), v.Name), func(b *testing.B) {
				runVariant(b, e, mkQuery(e, sel), v, rules)
			})
		}
	}
}

// BenchmarkFig7aQ1Selectivity regenerates Figure 7(a).
func BenchmarkFig7aQ1Selectivity(b *testing.B) {
	selectivityFigure(b, func(e *bench.Env, sel float64) string { return e.Q1(sel) })
}

// BenchmarkFig7dQ2Selectivity regenerates Figure 7(d).
func BenchmarkFig7dQ2Selectivity(b *testing.B) {
	selectivityFigure(b, func(e *bench.Env, sel float64) string { return e.Q2(sel) })
}

// BenchmarkFig8Q2Prime regenerates Figure 8: the predicate on steps.type
// is uncorrelated with EPCs, so q2′_j loses its edge over q2′_e.
func BenchmarkFig8Q2Prime(b *testing.B) {
	selectivityFigure(b, func(e *bench.Env, sel float64) string { return e.Q2Prime(sel) })
}

func rulesFigure(b *testing.B, mkQuery func(e *bench.Env, sel float64) string) {
	e := loadEnv(b, 10)
	for n := 1; n <= 5; n++ {
		rules := e.RulePrefix(n)
		for _, v := range bench.Variants() {
			b.Run(fmt.Sprintf("rules=%d/%s", n, v.Name), func(b *testing.B) {
				runVariant(b, e, mkQuery(e, 0.10), v, rules)
			})
		}
	}
}

// BenchmarkFig9aQ1Rules regenerates Figure 9(a): q1 vs number of rules.
func BenchmarkFig9aQ1Rules(b *testing.B) {
	rulesFigure(b, func(e *bench.Env, sel float64) string { return e.Q1(sel) })
}

// BenchmarkFig9bQ2Rules regenerates Figure 9(b): q2 vs number of rules.
func BenchmarkFig9bQ2Rules(b *testing.B) {
	rulesFigure(b, func(e *bench.Env, sel float64) string { return e.Q2(sel) })
}

func dirtyFigure(b *testing.B, mkQuery func(e *bench.Env, sel float64) string) {
	for _, pct := range bench.DirtyPoints {
		e := loadEnv(b, pct)
		rules := e.RulePrefix(3) // first three rules, as in §6.3
		for _, v := range bench.Variants() {
			b.Run(fmt.Sprintf("dirty=%d%%/%s", pct, v.Name), func(b *testing.B) {
				runVariant(b, e, mkQuery(e, 0.10), v, rules)
			})
		}
	}
}

// BenchmarkFig9cQ1Dirty regenerates Figure 9(c): q1 vs anomaly percentage.
func BenchmarkFig9cQ1Dirty(b *testing.B) {
	dirtyFigure(b, func(e *bench.Env, sel float64) string { return e.Q1(sel) })
}

// BenchmarkFig9dQ2Dirty regenerates Figure 9(d): q2 vs anomaly percentage.
func BenchmarkFig9dQ2Dirty(b *testing.B) {
	dirtyFigure(b, func(e *bench.Env, sel float64) string { return e.Q2(sel) })
}

// BenchmarkCleansingPrimitives isolates the cost of the cleansing operator
// itself (one rule over the full reads table) — an ablation the paper's
// naive numbers imply but never report directly.
func BenchmarkCleansingPrimitives(b *testing.B) {
	e := loadEnv(b, 10)
	for n := 1; n <= 5; n++ {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			q := "SELECT count(*) FROM caser"
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(q, repro.Naive, e.RulePrefix(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRewriteOverhead measures rewrite+planning alone: the paper's
// claim that the rewrite unit adds negligible latency next to execution.
func BenchmarkRewriteOverhead(b *testing.B) {
	e := loadEnv(b, 10)
	q := e.Q2(0.10)
	rules := e.RulePrefix(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DB.Rewriter.RewriteSQL(q, rules, repro.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCache contrasts a cold rewrite+plan (cache reset every
// iteration) against a warm hit — the amortization the serving layer's
// rewrite/plan cache buys for repeated query templates.
func BenchmarkPlanCache(b *testing.B) {
	e := loadEnv(b, 10)
	q := e.Q2(0.10)
	opts := []repro.QueryOption{repro.WithRules(e.RulePrefix(3)...)}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.DB.ResetPlanCache()
			if _, err := e.DB.Rewrite(q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := e.DB.Rewrite(q, opts...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ri, err := e.DB.Rewrite(q, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if !ri.CacheHit {
				b.Fatal("expected a warm cache hit")
			}
		}
	})
	// shape: the EPC lookup with a fresh literal every iteration — one
	// statement shape, so every lookup after the first binds its value
	// into the cached plan instead of recompiling.
	b.Run("shape", func(b *testing.B) {
		rows, err := e.DB.Query("SELECT DISTINCT epc FROM caser", repro.WithStrategy(repro.Dirty))
		if err != nil {
			b.Fatal(err)
		}
		lookup := func(i int) string {
			return "SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = '" + rows.Data[i%len(rows.Data)][0].Str() + "' ORDER BY rtime"
		}
		if _, err := e.DB.Rewrite(lookup(0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ri, err := e.DB.Rewrite(lookup(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			if !ri.CacheHit {
				b.Fatalf("lookup %d missed the shape's plan (%+v)", i+1, e.DB.PlanCacheStats())
			}
		}
	})
	e.DB.ResetPlanCache()
}

// BenchmarkLookup is one EPC's cleansed history under the default query
// options, cycling 64 EPCs so that every run after the first binds a new
// literal into the shape's cached plan. Its B/op and allocs/op are the
// fixed cost of a lookup; run it with -benchmem.
func BenchmarkLookup(b *testing.B) {
	e := loadEnv(b, 10)
	epcs := lookupEPCs(b, e.DB, 64)
	for _, epc := range epcs {
		if _, err := e.DB.Query(lookupSQL(epc)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DB.Query(lookupSQL(epcs[i%len(epcs)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentClients drives the serving path from every core at
// once: Query calls share the read side of the serving lock and the plan
// cache, so throughput should scale with clients rather than serialize.
func BenchmarkConcurrentClients(b *testing.B) {
	e := loadEnv(b, 10)
	q := e.Q2(0.10)
	opts := []repro.QueryOption{repro.WithRules(e.RulePrefix(1)...)}
	if _, err := e.DB.Query(q, opts...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.DB.Query(q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelPipeline drives a full scan→filter→window→join→
// aggregate pipeline (the paper's q1 shape under the dirty baseline, so
// no rewrite machinery intrudes) over a ≥100k-row rfidgen workload, at
// Parallelism=1 vs Parallelism=NumCPU. Before timing, it asserts the
// two settings return bit-identical results — the determinism guarantee
// that makes the knob safe to flip in production.
func BenchmarkParallelPipeline(b *testing.B) {
	scale := benchScale()
	if scale < 70 {
		scale = 70 // ≈105k caser rows — comfortably above the morsel threshold
	}
	e, err := bench.Load(scale, 10)
	if err != nil {
		b.Fatal(err)
	}
	q := e.Q1(0.95)
	opts := func(par int) []repro.QueryOption {
		return []repro.QueryOption{repro.WithStrategy(repro.Dirty), repro.WithParallelism(par)}
	}
	serial, err := e.DB.Query(q, opts(1)...)
	if err != nil {
		b.Fatal(err)
	}
	parallel, err := e.DB.Query(q, opts(runtime.NumCPU())...)
	if err != nil {
		b.Fatal(err)
	}
	if len(serial.Data) != len(parallel.Data) {
		b.Fatalf("row count: serial %d vs parallel %d", len(serial.Data), len(parallel.Data))
	}
	for i := range serial.Data {
		for j := range serial.Data[i] {
			if !serial.Data[i][j].Equal(parallel.Data[i][j]) {
				b.Fatalf("row %d col %d differs between parallelism settings", i, j)
			}
		}
	}
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.DB.Query(q, opts(par)...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWindowParallelism isolates the engine's intra-query
// parallelism — the in-process analogue of the DBMS parallelism the
// paper's evaluation platform provides. Series: the naive rewrite
// (window over the whole reads table) with 1 worker vs all cores.
func BenchmarkAblationWindowParallelism(b *testing.B) {
	e := loadEnv(b, 10)
	q := "SELECT count(*) FROM caser"
	rules := e.RulePrefix(3)
	for _, workers := range []int{1, 0} {
		name := "serial"
		w := 1
		if workers == 0 {
			name = "parallel"
			w = runtime.NumCPU()
		}
		b.Run(name, func(b *testing.B) {
			old := exec.Parallelism
			exec.Parallelism = w
			defer func() { exec.Parallelism = old }()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(q, repro.Naive, rules); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpillOverhead prices the graceful-degradation paths: the same
// sort / aggregation / join / DISTINCT queries run fully in memory and again under a
// budget low enough that every materializing operator writes its sort
// runs or hash partitions to spill files. The inmem/spill ratio is
// the cost of completing a query that would otherwise fail with
// ErrResourceExhausted; results are asserted bit-identical first.
func BenchmarkSpillOverhead(b *testing.B) {
	db := repro.Open(repro.WithSpillDir(b.TempDir()))
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		b.Fatal(err)
	}
	const n = 100000
	rows := make([][]repro.Value, n)
	for i := range rows {
		rows[i] = []repro.Value{
			repro.NewString(fmt.Sprintf("e%05d", i%2003)),
			timeValue(int64(i)),
			repro.NewString(fmt.Sprintf("loc%03d", i%97)),
		}
	}
	if err := db.Insert("reads", rows...); err != nil {
		b.Fatal(err)
	}
	queries := []struct{ name, sql string }{
		{"sort", `SELECT epc, rtime, biz_loc FROM reads ORDER BY rtime, epc, biz_loc`},
		{"group", `SELECT epc, COUNT(*) AS c, MIN(rtime) AS first_seen FROM reads GROUP BY epc ORDER BY c DESC, epc`},
		{"join", `SELECT a.epc, a.rtime, b.biz_loc FROM reads a JOIN reads b ON a.epc = b.epc AND a.rtime = b.rtime`},
		{"distinct", `SELECT DISTINCT epc, biz_loc FROM reads`},
	}
	modes := []struct {
		name string
		opts []repro.QueryOption
	}{
		{"inmem", nil},
		{"spill", []repro.QueryOption{repro.WithMemoryLimit(256 << 10)}},
	}
	for _, q := range queries {
		want, err := db.Query(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		got, err := db.Query(q.sql, repro.WithMemoryLimit(256<<10))
		if err != nil {
			b.Fatal(err)
		}
		if !got.Mem.Spilled() {
			b.Fatalf("%s: budget did not force a spill", q.name)
		}
		if len(got.Data) != len(want.Data) {
			b.Fatalf("%s: spilled result differs", q.name)
		}
		for _, m := range modes {
			b.Run(q.name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q.sql, m.opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTelemetryOverhead prices the observability layer: the
// parallel-pipeline query (q1's dirty baseline at Parallelism=NumCPU)
// runs against two otherwise identical databases, one with telemetry on
// (the default — every query feeds the metrics registry and the
// operator-stats collector) and one opened WithoutTelemetry. The
// acceptance bar for the layer is <5% between the two sub-benchmarks;
// traces are not requested, matching the steady-state production path.
func BenchmarkTelemetryOverhead(b *testing.B) {
	scale := benchScale()
	if scale < 70 {
		scale = 70 // match BenchmarkParallelPipeline's workload
	}
	variants := []struct {
		name string
		opts []repro.Option
	}{
		{"on", nil},
		{"off", []repro.Option{repro.WithoutTelemetry()}},
	}
	for _, v := range variants {
		e, err := bench.LoadFresh(scale, 10, v.opts...)
		if err != nil {
			b.Fatal(err)
		}
		q := e.Q1(0.95)
		opts := []repro.QueryOption{repro.WithStrategy(repro.Dirty), repro.WithParallelism(runtime.NumCPU())}
		if _, err := e.DB.Query(q, opts...); err != nil { // warm the plan cache
			b.Fatal(err)
		}
		b.Run("telemetry="+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.DB.Query(q, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

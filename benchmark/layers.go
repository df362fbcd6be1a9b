package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/exec"
	"repro/internal/rfidgen"
	"repro/internal/serve"
	"repro/internal/sqlparser"
)

// A traced run replays a fixed, seeded sample of a workload's requests
// inside this process, one at a time and at query parallelism 1, and
// times each call it makes into a layer's public functions. One request
// is executed several times — through the HTTP handler, through the
// facade's streaming and materializing entry points, and through the
// parser, rewriter and executor directly — so a wrapper layer's own share
// is the wall time of its call minus the wall time of the calls below it,
// measured on the same request, back to back, in the same plan-cache
// state.

// parts are the separately timed pieces of one request, in milliseconds.
type parts struct {
	class int
	miss  bool // the plan cache missed, so the request paid parse, rewrite and plan

	wire   float64 // serve.Handler().ServeHTTP
	bare   float64 // the same call with no span recorded around it
	stream float64 // DB.QueryStream + drain
	query  float64 // DB.QueryContext
	parse  float64 // sqlparser.Parse
	exec   float64 // exec.Run under an analyze context

	rewrite, plan float64            // self time of core.RewriteSQL, and its Phases.Plan
	ops           map[string]float64 // operator self time by kind; "other" includes exec.Run's own

	firstBatch, drain float64 // exec.Open → first Next; → exhausted
	allocBytes        uint64  // heap allocated by the streamed execution
	rowsOut           int
	scanRows          int
	segments, pruned  int
	spillRuns         int
	candidates        int

	status       int
	cells, bytes int
}

// compile is what a request in this cache state paid before execution.
func (p *parts) compile() float64 {
	if !p.miss {
		return 0
	}
	return p.parse + p.rewrite + p.plan
}

var opGroups = map[string]string{
	"Scan": "scan", "IndexScan": "scan",
	"Filter":   "filter",
	"Window":   "window",
	"Sort":     "sort",
	"HashJoin": "join", "NLJoin": "join",
	"Group": "agg", "Distinct": "agg",
}

func opGroup(n exec.Node) string {
	if g, ok := opGroups[exec.Kind(n)]; ok {
		return g
	}
	return "other"
}

// serveOnce sends one request straight into the handler and returns the
// handler's wall time; checking the captured stream happens off the clock.
// A non-nil tracer records the call as a span under parent.
func serveOnce(tr *tracer, parent, id int, h http.Handler, body []byte) (time.Duration, reply) {
	r, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, reply{err: err}
	}
	w := httptest.NewRecorder()
	start := time.Now()
	var wall time.Duration
	if tr != nil {
		wall = tr.time("serve.ServeHTTP", parent, id, func() { h.ServeHTTP(w, r) })
	} else {
		h.ServeHTTP(w, r)
		wall = time.Since(start)
	}
	rep := readReply(w.Body, start, nil)
	rep.status = w.Code
	if rep.err == nil && w.Code != http.StatusOK {
		rep.err = fmt.Errorf("http status %d", w.Code)
	}
	return wall, rep
}

// replay times one request at every layer, back to back, each call in
// the plan-cache state p.miss names, and records the spans under one
// "request" root. h is the server's handler, nil for a workload that
// does not go over HTTP.
func replay(tr *tracer, db *repro.DB, h http.Handler, id int, req request, p *parts) error {
	opts := append(facadeOptions(req.body), repro.WithParallelism(1))
	sql := req.body.SQL
	// A hit must find the plan cached and a miss must not: reset before
	// each timed call of a miss, and prepare a hit first — Prepare fills
	// the plan cache without touching the data the timed call will read.
	stage := func() error {
		if p.miss {
			db.ResetPlanCache()
			return nil
		}
		_, err := db.Prepare(sql, opts...)
		return err
	}
	root := tr.begin("request", 0, id)
	defer tr.end(root)

	if h != nil {
		body := req.body.encode()
		if err := stage(); err != nil {
			return err
		}
		bare, _ := serveOnce(nil, 0, 0, h, body)
		if err := stage(); err != nil {
			return err
		}
		wall, rep := serveOnce(tr, root, id, h, body)
		if rep.err != nil {
			return rep.err
		}
		p.bare, p.wire = ms(bare), ms(wall)
	}
	if err := stage(); err != nil {
		return err
	}
	var err error
	p.stream = ms(tr.time("facade.QueryStream", root, id, func() {
		_, _, p.rowsOut, err = facadeQuery(db, req.body, repro.WithParallelism(1))
	}))
	if err != nil {
		return err
	}
	if err := stage(); err != nil {
		return err
	}
	p.query = ms(tr.time("facade.QueryContext", root, id, func() { _, err = db.Query(sql, opts...) }))
	if err != nil {
		return err
	}
	p.parse = ms(tr.time("sqlparser.Parse", root, id, func() { _, err = sqlparser.Parse(sql) }))
	if err != nil {
		return err
	}

	rw := tr.begin("core.RewriteSQL", root, id)
	rwStart := time.Now()
	res, err := db.Rewriter.RewriteSQL(sql, req.body.Rules, strategyOf(req.body.Strategy))
	tr.end(rw)
	if err != nil {
		return err
	}
	// RewriteSQL parses, rewrites and plans; its Phases say how long the
	// parse and the interleaved planner calls took, which leaves the
	// rewriter's own time as the span's self time.
	tr.report("sqlparser.Parse", rw, id, rwStart, res.Phases.Parse)
	tr.report("plan.Plan", rw, id, rwStart.Add(res.Phases.Parse), res.Phases.Plan)
	p.plan = ms(res.Phases.Plan)
	p.candidates = len(res.Candidates)

	ectx := exec.NewAnalyzeCtx().SetParallelism(1)
	run := tr.begin("exec.Run", root, id)
	_, err = exec.Run(ectx, res.Plan)
	p.exec = ms(tr.end(run))
	if err != nil {
		return err
	}
	stats := ectx.StatsSnapshot()
	seen := map[exec.Node]bool{}
	var walk func(n exec.Node, parent int)
	walk = func(n exec.Node, parent int) {
		if seen[n] {
			return
		}
		seen[n] = true
		if st := stats[n]; st != nil {
			parent = tr.report("exec."+opGroup(n), parent, id, st.Start, st.Elapsed)
			if opGroup(n) == "scan" {
				p.scanRows += st.Rows
			}
			p.segments += st.Segments
			p.pruned += st.Pruned
			p.spillRuns += st.SpillRuns
		}
		for _, c := range n.Children() {
			walk(c, parent)
		}
	}
	walk(res.Plan, run)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := tr.begin("exec.Stream", root, id)
	stream := exec.Open(exec.NewCtx().SetParallelism(1), res.Plan)
	first := tr.begin("exec.first_batch", st, id)
	batch, err := stream.Next()
	p.firstBatch = ms(tr.end(first))
	for err == nil && batch != nil {
		batch, err = stream.Next()
	}
	cerr := stream.Close()
	p.drain = ms(tr.end(st))
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err == nil {
		err = cerr
	}
	return err
}

// attribute fills in the self times that only the finished span tree
// gives: per-operator self time, the executor's own, and the rewriter's.
func attribute(tr *tracer, ps []*parts) {
	self := tr.selfTimes()
	for i, sp := range tr.spans {
		if sp.Request < 1 || sp.Request > len(ps) {
			continue
		}
		p := ps[sp.Request-1]
		switch {
		case sp.Name == "core.RewriteSQL":
			p.rewrite = ms(self[i])
		case sp.Name == "exec.Run":
			p.ops["other"] += ms(self[i])
		case sp.Reported && strings.HasPrefix(sp.Name, "exec."):
			p.ops[strings.TrimPrefix(sp.Name, "exec.")] += ms(self[i])
		}
	}
}

// queryMetrics turns the parts of a replayed sample into the per-layer
// metrics of the query path. http reports whether the sample went through
// the handler; without it the facade's streaming call is the outermost
// wall.
//
// The pieces of one request come from separate executions, each with its
// own garbage-collection luck, so times are aggregated robustly: the
// per-request figure of a quantity is its median within each request
// class, averaged over the classes by their share of the sample. The
// wall is then compared with the sum of the pieces — serve's own time
// (handler minus QueryStream), the facade's own (QueryContext minus
// compile and exec.Run), compile on a cache miss, and exec.Run, whose
// operators give the breakdown below it. What does not add up is
// trace.unattributed_share: chiefly the difference between the streaming
// path the handler takes and the materializing path that can be analyzed.
func queryMetrics(ps []*parts, http bool, logf func(string, ...any)) map[string]float64 {
	n := float64(len(ps))
	col := func(f func(*parts) float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = f(p)
		}
		return out
	}
	count := func(f func(*parts) float64) float64 { return sum(col(f)) }
	per := func(f func(*parts) float64) float64 { return perRequest(ps, f) }

	wall := per(func(p *parts) float64 { return p.stream })
	serveSelf := 0.0
	if http {
		wall = per(func(p *parts) float64 { return p.wire })
		serveSelf = max(0, per(func(p *parts) float64 { return p.wire - p.stream }))
	}
	facadeSelf := max(0, per(func(p *parts) float64 { return p.query - p.compile() - p.exec }))
	compile := per((*parts).compile)
	execRun := per(func(p *parts) float64 { return p.exec })
	unattributed := wall - (serveSelf + facadeSelf + compile + execRun)
	rowsOut := count(func(p *parts) float64 { return float64(p.rowsOut) })
	misses := count(func(p *parts) float64 {
		if p.miss {
			return 1
		}
		return 0
	})

	vals := map[string]float64{
		"sqlparser.parse_us":            1e3 * per(func(p *parts) float64 { return p.parse }),
		"core.rewrite_us":               1e3 * per(func(p *parts) float64 { return p.rewrite }),
		"core.candidates":               count(func(p *parts) float64 { return float64(p.candidates) }) / n,
		"plan.plan_us":                  1e3 * per(func(p *parts) float64 { return p.plan }),
		"cache.plan_hit_rate":           1 - misses/n,
		"exec.rows_scanned_per_row_out": ratio(count(func(p *parts) float64 { return float64(p.scanRows) }), rowsOut),
		"exec.segments_pruned_share":    ratio(count(func(p *parts) float64 { return float64(p.pruned) }), count(func(p *parts) float64 { return float64(p.segments) })),
		"exec.spill_runs":               count(func(p *parts) float64 { return float64(p.spillRuns) }),
		"exec.first_batch_ms":           per(func(p *parts) float64 { return p.firstBatch }),
		"exec.drain_rows_per_s":         ratio(1e3*rowsOut/n, per(func(p *parts) float64 { return p.drain })),
		"exec.alloc_bytes_per_row_out":  ratio(count(func(p *parts) float64 { return float64(p.allocBytes) }), rowsOut),
		"facade.query_self_us":          1e3 * facadeSelf,
		"trace.unattributed_share":      ratio(math.Abs(unattributed), wall),
		"trace.share_serve":             ratio(serveSelf, wall),
		"trace.share_exec":              ratio(execRun, wall),
		"serve.wire_ms":                 serveSelf,
		"serve.encode_ns_per_cell":      0,
		"serve.bytes_out_per_row":       0,
	}
	for _, g := range []string{"scan", "filter", "window", "sort", "join", "agg", "other"} {
		vals["exec."+g+"_ms"] = per(func(p *parts) float64 { return p.ops[g] })
	}
	if http {
		vals["serve.encode_ns_per_cell"] = ratio(1e6*serveSelf*n, count(func(p *parts) float64 { return float64(p.cells) }))
		vals["serve.bytes_out_per_row"] = ratio(count(func(p *parts) float64 { return float64(p.bytes) }), rowsOut)
		for _, p := range ps {
			if p.status == 429 {
				vals["serve.http_429"]++
			}
			if p.status >= 500 {
				vals["serve.http_5xx"]++
			}
		}
	}
	logf("  %d requests replayed, %.0f plan-cache misses; per request: wall %.3f ms = serve %.3f + facade %.3f + compile %.3f + exec %.3f (+ %.3f unattributed)",
		len(ps), misses, wall, serveSelf, facadeSelf, compile, execRun, unattributed)
	logf("  per request: ServeHTTP %.3f  QueryStream %.3f  QueryContext %.3f  exec.Run %.3f  exec.Stream %.3f ms",
		per(func(p *parts) float64 { return p.wire }), per(func(p *parts) float64 { return p.stream }),
		per(func(p *parts) float64 { return p.query }), execRun, per(func(p *parts) float64 { return p.drain }))
	return vals
}

// perRequest is the robust per-request figure of a quantity: its median
// within each request class, averaged over the classes by their share of
// the sample.
func perRequest(ps []*parts, f func(*parts) float64) float64 {
	byClass := map[int][]float64{}
	for _, p := range ps {
		byClass[p.class] = append(byClass[p.class], f(p))
	}
	var t float64
	for _, xs := range byClass {
		t += float64(len(xs)) * median(xs)
	}
	return t / float64(len(ps))
}

// runtimeMetrics reads what the engine exports as repro_runtime_* for the
// process that ran the traced replay.
func runtimeMetrics(vals map[string]float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	vals["runtime.gc_pause_total_ms"] = float64(m.PauseTotalNs) / 1e6
	vals["runtime.heap_inuse_mb"] = float64(m.HeapInuse) / (1 << 20)
}

// storageMetrics reports the footprint of the reads table.
func storageMetrics(db *repro.DB, vals map[string]float64) {
	if t, ok := db.Catalog.Table("caser"); ok {
		vals["storage.bytes_per_row"] = ratio(float64(t.MemBytes()), float64(t.RowCount()))
		vals["storage.segments"] = float64(t.SegmentCount())
	}
}

// generateTraced is the first half of LoadRFIDWorkload, taken apart so
// that generating and loading are timed separately.
func generateTraced(tr *tracer, scale int, vals map[string]float64) *rfidgen.Dataset {
	var d *rfidgen.Dataset
	vals["rfidgen.generate_s"] = tr.time("rfidgen.Generate", 0, 0, func() {
		d = rfidgen.Generate(rfidgen.Config{Scale: scale, AnomalyPct: anomalyPct})
	}).Seconds()
	return d
}

// sampleRequests draws the traced sample: the same generator and seed as
// the untraced run's first client.
func sampleRequests(m mix, seed int64) []request {
	rng := rand.New(rand.NewSource(seed * 1024))
	reqs := make([]request, m.sample)
	for i := range reqs {
		reqs[i] = m.next(rng, i)
	}
	return reqs
}

// traceHTTP is the traced run of an HTTP workload.
func traceHTTP(name string, s *settings, seed int64) (*result, map[string]float64, error) {
	w := httpWorkloads[name]
	tr := newTracer()
	vals := map[string]float64{}

	db := repro.Open()
	defer db.Close()
	d := generateTraced(tr, s.scale, vals)
	var err error
	vals["rfidgen.load_s"] = tr.time("rfidgen.Load", 0, 0, func() { err = d.Load(db.Catalog) }).Seconds()
	if err != nil {
		return nil, nil, err
	}
	db.Workload = d
	db.Catalog.BumpEpoch()
	if _, err := db.DefinePaperRules(); err != nil {
		return nil, nil, err
	}
	h := serve.New(serve.Config{DB: db, QueryOptions: []repro.QueryOption{repro.WithParallelism(1)}}).Handler()
	c := newHandlerClient(h)
	f, err := fetchFacts(c)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: true}
	if err := w.precheck(c, f, seed); err != nil {
		res.Correct = false
		s.logf("  CORRECTNESS: %v", err)
	}

	m := w.mix(f, seed)
	reqs := sampleRequests(m, seed)
	// A first pass through the handler, in the cache state the untraced
	// run measures in — empty but for the primed requests — finds out
	// which requests hit the plan cache and checks every reply.
	db.ResetPlanCache()
	if m.prime != nil {
		for _, req := range m.prime() {
			if _, rep := serveOnce(nil, 0, 0, h, req.body.encode()); rep.err != nil {
				return nil, nil, fmt.Errorf("prime: %w", rep.err)
			}
		}
	}
	ps := make([]*parts, len(reqs))
	for i, req := range reqs {
		_, rep := serveOnce(nil, 0, 0, h, req.body.encode())
		ps[i] = &parts{class: req.class, ops: map[string]float64{}, miss: !rep.cacheHit, status: rep.status, cells: rep.cells, bytes: rep.bytes}
		res.Attempted++
		if rep.err != nil {
			res.Failed++
			s.logf("  FAILED REQUEST: %v", rep.err)
		}
	}
	// Then every layer, request by request.
	for i, req := range reqs {
		if err := replay(tr, db, h, i+1, req, ps[i]); err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", req.body.SQL, err)
		}
	}
	attribute(tr, ps)
	for k, v := range queryMetrics(ps, true, s.logf) {
		vals[k] = v
	}
	bare := perRequest(ps, func(p *parts) float64 { return p.bare })
	vals["trace.overhead_share"] = max(0, ratio(perRequest(ps, func(p *parts) float64 { return p.wire })-bare, bare))
	if name == "analytic_grid" {
		if err := gridRatios(db, f, ps, vals); err != nil {
			return nil, nil, err
		}
	}
	storageMetrics(db, vals)
	runtimeMetrics(vals)
	tr.printLayers(s.logf)
	if err := tr.write(s.out, name, seed, s); err != nil {
		return nil, nil, err
	}
	return res, vals, nil
}

// gridRatios derives the paper's figures of merit from the replayed grid:
// what each rewrite costs over the dirty query, how far auto's choice is
// from the better forced strategy, and — from one run of each query —
// what naive cleansing would have cost.
func gridRatios(db *repro.DB, f *facts, ps []*parts, vals map[string]float64) error {
	byClass := make([][]float64, 2*len(gridStrategies))
	for _, p := range ps {
		byClass[p.class] = append(byClass[p.class], p.query)
	}
	var qe, qj, regret, naive []float64
	for q := 0; q < 2; q++ {
		med := func(strategy int) float64 { return median(byClass[q*len(gridStrategies)+strategy]) }
		dirty, expanded, joinBack, auto := med(0), med(1), med(2), med(3)
		qe = append(qe, ratio(expanded, dirty))
		qj = append(qj, ratio(joinBack, dirty))
		regret = append(regret, ratio(auto, min(expanded, joinBack)))

		body := gridRequest(f, q*len(gridStrategies), 0.10).body
		body.Strategy = "naive"
		start := time.Now()
		if _, err := db.Query(body.SQL, append(facadeOptions(body), repro.WithParallelism(1))...); err != nil {
			return fmt.Errorf("naive run: %w", err)
		}
		naive = append(naive, ratio(ms(time.Since(start)), dirty))
	}
	vals["core.overhead_qe"] = geomean(qe)
	vals["core.overhead_qj"] = geomean(qj)
	vals["core.auto_regret"] = geomean(regret)
	vals["core.naive_over_dirty"] = geomean(naive)
	return nil
}

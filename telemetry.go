package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/obs"
)

// Telemetry types, re-exported from internal/obs so callers can consume
// traces and the metrics registry without importing internals.
type (
	// Trace is one query's telemetry: its QueryID, the query text, and a
	// span tree covering parse → rewrite → plan → admission wait →
	// per-operator execution. Obtain one with WithTrace or Rows.Trace.
	Trace = obs.Trace
	// Span is one timed stage of a query inside a Trace.
	Span = obs.Span
	// SpanAttr is one key/value annotation on a Span.
	SpanAttr = obs.Attr
	// QueryID identifies one query execution, unique within the process.
	QueryID = obs.QueryID
	// MetricsRegistry is the DB's metric registry; see DB.Metrics.
	MetricsRegistry = obs.Registry
	// ActiveQuery is one running query or ingest as reported by
	// DB.ActiveQueries: ID, SQL, phase, elapsed time, live per-operator
	// row counts, and current memory reservation.
	ActiveQuery = obs.ActiveInfo
	// ActiveOperator is one operator's live counters inside an ActiveQuery.
	ActiveOperator = obs.ActiveOp
)

// ErrNoQuery is returned by DB.Kill when no running query has the given
// ID — it already finished, or never existed.
var ErrNoQuery = errors.New("repro: no such query")

// dbMetrics is the DB's metric families, registered once at Open. Hot-path
// families are pre-resolved into fields (publishing is atomic ops only);
// components that already keep their own counters — the plan cache, the
// admission controller, the governance totals — are exposed through
// func-backed collectors that read those counters at scrape time, so every
// number has exactly one home and nothing is double counted.
type dbMetrics struct {
	reg *obs.Registry

	queries    *obs.CounterVec   // repro_queries_total{outcome}
	queryDur   *obs.HistogramVec // repro_query_seconds{outcome}
	parseDur   *obs.Histogram    // repro_parse_seconds
	rewriteDur *obs.Histogram    // repro_rewrite_seconds
	planDur    *obs.Histogram    // repro_plan_seconds
	admitWait  *obs.Histogram    // repro_admission_wait_seconds
	peakBytes  *obs.Histogram    // repro_query_peak_bytes
	firstRow   *obs.Histogram    // repro_first_row_seconds

	opRows    *obs.CounterVec // repro_operator_rows_total{op}
	opBatches *obs.CounterVec // repro_operator_batches_total{op}
	evalOps   *obs.CounterVec // repro_eval_operators_total{mode}

	spillRuns  *obs.Counter // repro_spill_runs_total
	spillBytes *obs.Counter // repro_spill_bytes_total
	spilledQ   *obs.Counter // repro_spilled_queries_total
	slowQ      *obs.Counter // repro_slow_queries_total

	ingestDur       *obs.Histogram // repro_ingest_seconds
	traceExports    *obs.Counter   // repro_trace_exports_total
	traceExportErrs *obs.Counter   // repro_trace_export_errors_total
}

// newDBMetrics builds the registry for one DB and wires the func-backed
// collectors to the DB's existing counters. latency overrides the bucket
// bounds of every latency histogram; nil means obs.DefLatencyBuckets.
func newDBMetrics(db *DB, latency []float64) *dbMetrics {
	if latency == nil {
		latency = obs.DefLatencyBuckets
	}
	r := obs.NewRegistry()
	m := &dbMetrics{
		reg:     r,
		queries: r.CounterVec("repro_queries_total", "Governed query executions by outcome (ok, canceled, killed, exhausted, overloaded, error).", "outcome"),
		queryDur: r.HistogramVec("repro_query_seconds", "End-to-end query latency by outcome, admission wait included.",
			"outcome", latency),
		parseDur:   r.Histogram("repro_parse_seconds", "SQL parse time per plan-cache miss.", latency),
		rewriteDur: r.Histogram("repro_rewrite_seconds", "Cleansing-rewrite time (candidate generation and costing) per plan-cache miss.", latency),
		planDur:    r.Histogram("repro_plan_seconds", "Physical planning time per plan-cache miss.", latency),
		admitWait:  r.Histogram("repro_admission_wait_seconds", "Time spent queued in admission control before execution.", latency),
		peakBytes:  r.Histogram("repro_query_peak_bytes", "Per-query peak charged memory in bytes.", obs.DefBytesBuckets),
		firstRow:   r.Histogram("repro_first_row_seconds", "Streamed-query time to first row: query start to the first batch leaving the engine.", latency),
		opRows:     r.CounterVec("repro_operator_rows_total", "Rows produced per operator kind.", "op"),
		opBatches:  r.CounterVec("repro_operator_batches_total", "Vector-kernel batches processed per operator kind.", "op"),
		evalOps:    r.CounterVec("repro_eval_operators_total", "Expression-evaluating operator executions by eval mode (vector, row).", "mode"),
		spillRuns:  r.Counter("repro_spill_runs_total", "Sort runs / hash partitions written to spill files."),
		spillBytes: r.Counter("repro_spill_bytes_total", "Bytes written through spill files."),
		spilledQ:   r.Counter("repro_spilled_queries_total", "Queries in which at least one operator spilled to disk."),
		slowQ:      r.Counter("repro_slow_queries_total", "Queries at or over the slow-query threshold."),
		ingestDur:  r.Histogram("repro_ingest_seconds", "End-to-end DB.Ingest batch latency: validation, WAL append, apply, and the durability fsync.", latency),

		traceExports:    r.Counter("repro_trace_exports_total", "Traces serialized to the OTLP exporter."),
		traceExportErrs: r.Counter("repro_trace_export_errors_total", "Trace exports that failed at the sink."),
	}
	// Pre-create the outcome children so scrapes show the full label set
	// from the first query, and the hot path never takes the family mutex.
	for _, oc := range []string{"ok", "canceled", "killed", "exhausted", "overloaded", "error"} {
		m.queries.With(oc)
		m.queryDur.With(oc)
	}
	r.CounterFunc("repro_plan_cache_hits_total", "Rewrite+plan cache hits.", func() float64 {
		h, _ := db.cache.counters()
		return float64(h)
	})
	r.CounterFunc("repro_plan_cache_misses_total", "Rewrite+plan cache misses.", func() float64 {
		_, miss := db.cache.counters()
		return float64(miss)
	})
	r.CounterFunc("repro_plan_cache_replans_total", "Plan-cache lookups of a cached shape re-planned because the binding left every plan's estimate band.", func() float64 {
		return float64(db.cache.stats().Replans)
	})
	r.GaugeFunc("repro_plan_cache_entries", "Plans currently cached.", func() float64 {
		return float64(db.cache.stats().Entries)
	})
	r.GaugeFunc("repro_admission_running", "Queries currently admitted.", func() float64 {
		return float64(db.admit.Stats().Running)
	})
	r.GaugeFunc("repro_admission_waiting", "Queries queued in admission control right now.", func() float64 {
		return float64(db.admit.Stats().Waiting)
	})
	r.CounterFunc("repro_admission_admitted_total", "Admission decisions that admitted a query.", func() float64 {
		return float64(db.admit.Stats().Admitted)
	})
	r.CounterFunc("repro_admission_rejected_total", "Queries rejected with ErrOverloaded.", func() float64 {
		return float64(db.admit.Stats().Rejected)
	})
	r.GaugeFunc("repro_query_max_peak_bytes", "Largest single-query peak memory observed.", func() float64 {
		return float64(db.totals.snapshot().MaxPeak)
	})
	r.GaugeFunc("repro_storage_bytes", "Resident bytes across all tables: columnar segment vectors, zone maps, row tails, and indexes.", func() float64 {
		var b int64
		for _, name := range db.Catalog.TableNames() {
			if t, ok := db.Catalog.Table(name); ok {
				b += t.MemBytes()
			}
		}
		return float64(b)
	})
	r.GaugeFunc("repro_storage_segments", "Sealed columnar segments across all tables (mutable tails excluded).", func() float64 {
		var n int
		for _, name := range db.Catalog.TableNames() {
			if t, ok := db.Catalog.Table(name); ok {
				n += t.SegmentCount()
			}
		}
		return float64(n)
	})
	// Process-level runtime gauges for the metrics listener. ReadMemStats
	// stops the world, so one sampler feeds all memstats-backed collectors
	// and refreshes at most once a second — a scrape hitting four families
	// pays for one read, and scrape storms pay for none.
	sampler := &memStatsSampler{}
	r.GaugeFunc("repro_runtime_goroutines", "Live goroutines in the process.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("repro_runtime_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc), sampled at most once a second.", func() float64 {
		return float64(sampler.get().HeapAlloc)
	})
	r.CounterFunc("repro_runtime_gc_total", "Completed GC cycles since process start.", func() float64 {
		return float64(sampler.get().NumGC)
	})
	r.CounterFunc("repro_runtime_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", func() float64 {
		return float64(sampler.get().PauseTotalNs) / 1e9
	})
	return m
}

// memStatsSampler caches runtime.ReadMemStats for a second so multiple
// func-backed collectors in one scrape share a single stop-the-world read.
type memStatsSampler struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (s *memStatsSampler) get() runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.at) > time.Second {
		runtime.ReadMemStats(&s.ms)
		s.at = now
	}
	return s.ms
}

// outcomeOf classifies a finished query for the outcome-labeled metrics.
// Classification order matters: an exhausted query under a deadline should
// still count as exhausted, so governance sentinels are checked first.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrResourceExhausted):
		return "exhausted"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// qtel carries one query's telemetry through the serving path: the metric
// families to publish into, and the trace under construction when the
// caller asked for one (WithTrace) or the slow-query log needs spans.
//
// A nil *qtel disables telemetry for the query — every method is nil-safe
// — which is how WithoutTelemetry and internal executions (DryRunRule's
// sub-queries) opt out without branching at every call site.
type qtel struct {
	db    *dbTelemetry
	m     *dbMetrics
	id    obs.QueryID
	sql   string
	start time.Time
	trace *obs.Trace
	hook  func(*Trace)
	entry *obs.ActiveEntry

	cacheHit bool
	firstRow time.Duration
	mem      MemStats

	// held is set while a streaming consumer has a span open on the trace
	// (Rows.StartSpan): finish then parks the trace's delivery in deliver,
	// and Rows.Close runs it once the consumer's span is complete.
	held    bool
	deliver func()
}

// dbTelemetry is the DB's observability state: the registry-backed metric
// families, the optional slow-query log, and the optional metrics
// listener. It is nil on a DB opened with WithoutTelemetry.
type dbTelemetry struct {
	metrics *dbMetrics

	slowThreshold time.Duration
	slowLogger    *slog.Logger

	// traceEvery is the head-sampling period from WithTraceSampling: a
	// trace is built for one query in every traceEvery (1 = all, the
	// default; 0 = none). traceSeq is the sampled-query counter.
	traceEvery uint64
	traceSeq   atomic.Uint64

	// active is the live-operations registry: every running query and
	// ingest, for DB.ActiveQueries / GET /v1/queries / \queries, and the
	// kill paths.
	active *obs.ActiveSet

	// exporter, when non-nil (WithTraceExporter), receives every sampled
	// trace as one OTLP/JSON line at query finish.
	exporter *obs.OTLPExporter

	srv      *http.Server
	lis      net.Listener
	addrErr  error
	wantAddr string
}

// sampleTrace decides whether the next trace-requesting query gets one,
// per the WithTraceSampling period. The first such query is always
// sampled, so a single traced query under heavy sampling still works.
func (t *dbTelemetry) sampleTrace() bool {
	switch t.traceEvery {
	case 1:
		return true
	case 0:
		return false
	}
	return (t.traceSeq.Add(1)-1)%t.traceEvery == 0
}

// startQuery opens one query's telemetry. It returns nil when telemetry
// is off. Every observed query gets an ID (one atomic increment) so the
// active-query registry and slow-query log can always identify it; a
// trace (span tree) is built only when the query asked for one, the
// slow-query log will want spans, or a trace exporter is configured —
// metrics publish either way.
func (db *DB) startQuery(sql string, o *queryOpts) *qtel {
	t := db.tel
	if t == nil {
		return nil
	}
	q := &qtel{db: t, m: t.metrics, id: obs.NextQueryID(), sql: sql, start: time.Now(), hook: o.traceHook}
	if (o.traceSet || t.slowLogger != nil || t.exporter != nil) && t.sampleTrace() {
		q.trace = obs.NewTrace(q.id, sql)
		q.trace.Root.Start = q.start
	}
	return q
}

// activate registers the query in the live-operations registry, making
// it visible to ActiveQueries and killable through Kill. cancel is the
// query's private cancellation (nil renders it visible but not
// killable). Exactly one registry mutation; finish removes the entry.
func (q *qtel) activate(kind string, cancel func()) {
	if q == nil {
		return
	}
	q.entry = q.db.active.Register(q.id, kind, q.sql, q.start, cancel)
}

// queryID is the statement's ID; zero on an unobserved query.
func (q *qtel) queryID() obs.QueryID {
	if q == nil {
		return 0
	}
	return q.id
}

// setPhase publishes the query's current stage to the registry.
func (q *qtel) setPhase(phase string) {
	if q == nil || q.entry == nil {
		return
	}
	q.entry.SetPhase(phase)
}

// attachExec wires the registry entry to the running execution: live
// per-operator row/batch counts from the exec stats map (aggregated by
// operator kind, the same grouping the operator metrics use) and the
// query's current memory reservation. The closures run only when a
// snapshot is taken — the execution hot path is untouched.
func (q *qtel) attachExec(ectx *exec.Ctx, grs *govern.Resources) {
	if q == nil || q.entry == nil {
		return
	}
	stats := func() []obs.ActiveOp {
		agg := map[string]*obs.ActiveOp{}
		ectx.VisitStats(func(n exec.Node, st *exec.NodeStats) {
			kind := exec.Kind(n)
			a := agg[kind]
			if a == nil {
				a = &obs.ActiveOp{Op: kind}
				agg[kind] = a
			}
			a.Rows += st.Rows
			a.Batches += st.Batches
		})
		out := make([]obs.ActiveOp, 0, len(agg))
		for _, a := range agg {
			out = append(out, *a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
		return out
	}
	var mem func() int64
	if grs != nil {
		mem = grs.Used
	}
	q.entry.Attach(stats, mem)
}

// noteAdmit records the admission wait, as a histogram sample and (in a
// trace) an "admission-wait" span.
func (q *qtel) noteAdmit(start time.Time, d time.Duration) {
	if q == nil {
		return
	}
	q.m.admitWait.Observe(d.Seconds())
	if q.trace != nil {
		q.trace.Root.AddChild(&obs.Span{Name: "admission-wait", Start: start, Dur: d})
	}
}

// notePhases records compilation-stage timings. On a plan-cache miss the
// measured parse/rewrite/plan phases become histogram samples and trace
// spans; on a hit rewrite and planning were skipped, so the trace gets a
// single "plan-cache" span covering parse, parameterize, lookup and bind
// instead, and no phase histograms move. The root span counts the
// statement's bound placeholders.
func (q *qtel) notePhases(c *compiled) {
	if q == nil {
		return
	}
	q.cacheHit = c.info.CacheHit
	at, ph := c.start, c.res.Phases
	ph.Parse = c.parse
	if q.trace != nil {
		q.trace.Root.SetAttr("params", strconv.Itoa(len(c.params)))
	}
	if q.cacheHit {
		if q.trace != nil {
			sp := &obs.Span{Name: "plan-cache", Start: at, Dur: c.compile}
			sp.SetAttr("hit", "true")
			q.trace.Root.AddChild(sp)
		}
		return
	}
	q.m.parseDur.Observe(ph.Parse.Seconds())
	q.m.rewriteDur.Observe(ph.Rewrite.Seconds())
	q.m.planDur.Observe(ph.Plan.Seconds())
	if q.trace != nil {
		// The three phases ran back to back inside the rewriter; their
		// spans are laid out sequentially from the rewrite start.
		start := at
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"parse", ph.Parse}, {"rewrite", ph.Rewrite}, {"plan", ph.Plan}} {
			q.trace.Root.AddChild(&obs.Span{Name: p.name, Start: start, Dur: p.d})
			start = start.Add(p.d)
		}
	}
}

// noteExec records a finished execution: its final memory accounting
// (published by finish), per-operator metrics from the recorded NodeStats
// and, in a trace, the operator span subtree under an "execute" span
// mirroring the plan tree.
//
// Metrics visit the recorded stats — once per distinct plan node — so a
// shared subtree (a CTE referenced from several tree positions)
// counts its rows once. The span tree instead mirrors the plan shape, so
// a shared node appears at every position it is referenced from, with a
// cached=N attribute past the first execution.
func (q *qtel) noteExec(plan exec.Node, ectx *exec.Ctx, mem MemStats, start time.Time, d time.Duration) {
	if q == nil {
		return
	}
	q.mem = mem
	ectx.VisitStats(func(n exec.Node, st *exec.NodeStats) {
		kind := exec.Kind(n)
		q.m.opRows.With(kind).Add(int64(st.Rows))
		if st.Batches > 0 {
			q.m.opBatches.With(kind).Add(int64(st.Batches))
		}
		if st.EvalMode != "" {
			q.m.evalOps.With(st.EvalMode).Inc()
		}
	})
	if q.trace != nil {
		ex := &obs.Span{Name: "execute", Start: start, Dur: d}
		ex.AddChild(operatorSpan(plan, ectx))
		q.trace.Root.AddChild(ex)
	}
}

// operatorSpan converts one plan subtree plus the stats ectx recorded into a
// span subtree. Span names are the operators' EXPLAIN labels, so a trace
// lines up 1:1 with the EXPLAIN / EXPLAIN ANALYZE printout of the same
// plan.
func operatorSpan(n exec.Node, ectx *exec.Ctx) *obs.Span {
	sp := &obs.Span{Name: exec.LabelBound(n, ectx.Params())}
	if st := ectx.Stats(n); st != nil {
		sp.Start, sp.Dur = st.Start, st.Elapsed
		sp.SetAttr("op", exec.Kind(n))
		sp.SetAttr("rows", strconv.Itoa(st.Rows))
		if st.Workers > 1 {
			sp.SetAttr("workers", strconv.Itoa(st.Workers))
		}
		if st.EvalMode != "" {
			sp.SetAttr("eval", st.EvalMode)
			if st.EvalMode == "vector" {
				sp.SetAttr("batches", strconv.Itoa(st.Batches))
			}
		}
		if st.Probe > 0 {
			sp.SetAttr("probe", strconv.Itoa(st.Probe))
		}
		if st.SpillRuns > 0 {
			sp.SetAttr("spilled", strconv.Itoa(st.SpillRuns))
			sp.SetAttr("spill_bytes", strconv.FormatInt(st.SpillBytes, 10))
		}
		if st.Hits > 0 {
			sp.SetAttr("cached", strconv.Itoa(st.Hits))
		}
	}
	for _, c := range n.Children() {
		sp.AddChild(operatorSpan(c, ectx))
	}
	return sp
}

// noteFirstRow records a streamed query's time to first row, as a
// histogram sample and (in a trace) a first_row attribute on the root
// span. Only the streaming entry points call it; eager queries deliver
// all rows at once and would observe their full latency here.
func (q *qtel) noteFirstRow(d time.Duration) {
	if q == nil {
		return
	}
	q.m.firstRow.Observe(d.Seconds())
	q.firstRow = d
	if q.trace != nil {
		q.trace.Root.SetAttr("first_row", d.Round(time.Microsecond).String())
	}
}

// finish closes the query's telemetry: outcome and latency metrics, spill
// and memory accounting, the slow-query log, and trace delivery (to the
// WithTrace hook and, on success, the Rows). It is called exactly once
// per observed query, on every exit path.
func (q *qtel) finish(rows *Rows, err error) {
	if q == nil {
		return
	}
	dur := time.Since(q.start)
	oc := q.db.settle(q.id, q.entry, err)
	q.m.queries.With(oc).Inc()
	q.m.queryDur.With(oc).Observe(dur.Seconds())
	if q.mem.Peak > 0 || oc == "ok" {
		q.m.peakBytes.Observe(float64(q.mem.Peak))
	}
	if q.mem.Spilled() {
		q.m.spilledQ.Inc()
		q.m.spillRuns.Add(q.mem.SpillRuns)
		q.m.spillBytes.Add(q.mem.SpillBytes)
	}
	if q.trace != nil {
		q.trace.Root.Dur = dur
		q.trace.Root.SetAttr("outcome", oc)
		q.trace.Root.SetAttr("plan_cache_hit", strconv.FormatBool(q.cacheHit))
	}
	if rows != nil {
		rows.trace, rows.id = q.trace, q.id
	}
	if q.held {
		q.deliver = func() { q.deliverTrace(dur, oc) }
		return
	}
	q.deliverTrace(dur, oc)
}

// release delivers a held trace once its query has finished; a no-op
// otherwise and after the first delivery.
func (q *qtel) release() {
	if q == nil || q.deliver == nil {
		return
	}
	deliver := q.deliver
	q.deliver = nil
	deliver()
}

// deliverTrace hands the finished trace to its consumers: the slow-query
// log, the OTLP exporter, and the WithTrace hook.
func (q *qtel) deliverTrace(dur time.Duration, oc string) {
	summary := func() []slog.Attr {
		attrs := []slog.Attr{
			slog.String("query_id", q.id.String()),
			slog.String("sql", q.sql),
			slog.Duration("duration", dur),
			slog.String("outcome", oc),
			slog.Bool("plan_cache_hit", q.cacheHit),
			slog.Int64("peak_bytes", q.mem.Peak),
			slog.Int64("spill_runs", q.mem.SpillRuns),
		}
		// A streamed query's time to first row: how long the client waited
		// before any data arrived, often the number that matters when the
		// total duration is dominated by a slow consumer.
		if q.firstRow > 0 {
			attrs = append(attrs, slog.Duration("first_row", q.firstRow))
		}
		return attrs
	}
	if q.db.deliver("slow query", q.trace, dur, summary) {
		q.m.slowQ.Inc()
	}
	if q.hook != nil {
		q.hook(q.trace)
	}
}

// settle closes a finished statement's registry entry — query or ingest —
// and classifies its outcome. A killed statement unwinds through the
// cancellation machinery and arrives as "canceled"; the entry knows Kill
// was the cause. Only a statement that actually failed is reclassified —
// a kill racing a successful finish stays "ok".
func (t *dbTelemetry) settle(id obs.QueryID, e *obs.ActiveEntry, err error) string {
	oc := outcomeOf(err)
	if err != nil && e.Killed() {
		oc = "killed"
	}
	t.active.Remove(id)
	return oc
}

// deliver is the tail of every finished statement, query or ingest: a
// slow-log entry when it ran at or over the threshold — the caller's
// summary fields plus the three slowest spans by self time — then the
// OTLP export. It reports whether the statement was logged as slow.
func (t *dbTelemetry) deliver(msg string, tr *obs.Trace, dur time.Duration, summary func() []slog.Attr) bool {
	slow := t.slowLogger != nil && dur >= t.slowThreshold
	if slow {
		attrs := summary()
		// Under WithTraceSampling the trace may have been sampled away; the
		// entry then carries the summary fields but no spans.
		for i, sp := range tr.SlowestSpans(3) {
			attrs = append(attrs, slog.String(
				fmt.Sprintf("span_%d", i+1),
				fmt.Sprintf("%s=%s", sp.Name, sp.Exclusive().Round(time.Microsecond)),
			))
		}
		t.slowLogger.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
	}
	t.export(tr)
	return slow
}

// export serializes one finished trace to the OTLP exporter, counting
// successes and sink failures. Nil traces (sampled away) and a nil
// exporter are no-ops.
func (t *dbTelemetry) export(tr *obs.Trace) {
	if t == nil || t.exporter == nil || tr == nil {
		return
	}
	if err := t.exporter.Export(tr); err != nil {
		t.metrics.traceExportErrs.Inc()
	} else {
		t.metrics.traceExports.Inc()
	}
}

// exportSpan emits a standalone single-span trace for an engine-internal
// operation with no query attached: a checkpoint, or startup recovery.
func (t *dbTelemetry) exportSpan(name string, start time.Time, d time.Duration, attrs ...obs.Attr) {
	if t == nil || t.exporter == nil {
		return
	}
	tr := obs.NewTrace(obs.NextQueryID(), "")
	tr.Root.Name = name
	tr.Root.Start = start
	tr.Root.Dur = d
	tr.Root.Attrs = attrs
	t.export(tr)
}

// itel carries one ingest batch's telemetry: the end-to-end latency
// histogram, the registry entry (ingests are visible in ActiveQueries
// and killable like queries), and — when a trace is sampled — the
// durability-pipeline span tree (validate → wal_append → apply → fsync).
// A nil *itel disables ingest telemetry; every method is nil-safe.
type itel struct {
	db    *dbTelemetry
	m     *dbMetrics
	id    obs.QueryID
	start time.Time
	trace *obs.Trace
	entry *obs.ActiveEntry
}

// startIngest opens one ingest batch's telemetry and registers it in the
// live-operations registry. The registry SQL field carries a synthetic
// statement so \queries output reads uniformly.
func (db *DB) startIngest(table string, nrows int, cancel func()) *itel {
	t := db.tel
	if t == nil {
		return nil
	}
	sql := fmt.Sprintf("INGEST INTO %s (%d rows)", table, nrows)
	q := &itel{db: t, m: t.metrics, id: obs.NextQueryID(), start: time.Now()}
	if (t.slowLogger != nil || t.exporter != nil) && t.sampleTrace() {
		q.trace = obs.NewTrace(q.id, sql)
		q.trace.Root.Name = "ingest"
		q.trace.Root.Start = q.start
		q.trace.Root.SetAttr("table", table)
		q.trace.Root.SetAttr("rows", strconv.Itoa(nrows))
	}
	q.entry = t.active.Register(q.id, "ingest", sql, q.start, cancel)
	return q
}

// setPhase publishes the ingest's current pipeline stage.
func (q *itel) setPhase(phase string) {
	if q == nil {
		return
	}
	q.entry.SetPhase(phase)
}

// span records one completed pipeline stage as a child span, when a
// trace is being built. Stages are recorded after the fact (start +
// duration), so the durability path takes no extra branches when no
// trace is sampled.
func (q *itel) span(name string, start time.Time, d time.Duration, attrs ...obs.Attr) {
	if q == nil || q.trace == nil {
		return
	}
	sp := &obs.Span{Name: name, Start: start, Dur: d, Attrs: attrs}
	q.trace.Root.AddChild(sp)
}

// finish closes the ingest's telemetry: the latency histogram, registry
// removal, trace finalization and export, and the slow log (an ingest at
// or over the slow-query threshold logs like a slow query).
func (q *itel) finish(err error) {
	if q == nil {
		return
	}
	dur := time.Since(q.start)
	oc := q.db.settle(q.id, q.entry, err)
	q.m.ingestDur.Observe(dur.Seconds())
	if q.trace != nil {
		q.trace.Root.Dur = dur
		q.trace.Root.SetAttr("outcome", oc)
	}
	q.db.deliver("slow ingest", q.trace, dur, func() []slog.Attr {
		attrs := []slog.Attr{
			slog.String("query_id", q.id.String()),
			slog.Duration("duration", dur),
			slog.String("outcome", oc),
		}
		if q.trace != nil {
			attrs = append(attrs, slog.String("sql", q.trace.SQL))
		}
		return attrs
	})
}

// ActiveQueries reports every query and ingest running right now, sorted
// by query ID: SQL, phase, elapsed time, live per-operator row/batch
// counts (a snapshot of the execution's stats map), and current memory
// reservation. On a DB opened with WithoutTelemetry it returns nil.
func (db *DB) ActiveQueries() []ActiveQuery {
	if db.tel == nil {
		return nil
	}
	return db.tel.active.Snapshot()
}

// Kill cooperatively cancels the running query or ingest with the given
// ID. The statement unwinds through the engine's per-operator
// cancellation points — slots, memory, and spill files are released
// through the normal finish path — and reports outcome "killed" in
// metrics, the slow-query log, and its trace. Kill returns ErrNoQuery
// when no running statement has that ID (it may have just finished), and
// on a DB opened with WithoutTelemetry.
func (db *DB) Kill(id QueryID) error {
	if db.tel == nil || !db.tel.active.Kill(id) {
		return fmt.Errorf("%w: %s", ErrNoQuery, id)
	}
	return nil
}

// ParseQueryID parses a query ID as printed by the registry — "q-00000012"
// — or as a bare integer.
func ParseQueryID(s string) (QueryID, error) {
	n, err := strconv.ParseUint(strings.TrimPrefix(s, "q-"), 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("repro: invalid query ID %q", s)
	}
	return QueryID(n), nil
}

// WithTrace collects a structured trace for this query: a span tree
// covering parse, rewrite, plan (or the plan-cache hit), the admission
// wait, and every operator of the executed plan with its rows, workers,
// eval mode, and spill activity. If hook is non-nil it receives the trace
// when the query finishes — on failure too, which a Rows-based reader
// never sees. A nil hook just collects; read the trace from Rows.Trace.
// The option is ignored on a DB opened with WithoutTelemetry.
func WithTrace(hook func(*Trace)) QueryOption {
	return func(o *queryOpts) { o.traceHook, o.traceSet = hook, true }
}

// Trace returns the query's structured trace, or nil when none was
// collected (no WithTrace option and no slow-query log configured).
func (r *Rows) Trace() *Trace { return r.trace }

// WithoutTelemetry opens the DB with observability disabled: no metric
// families are registered, queries collect no per-operator statistics,
// and WithTrace is ignored. The telemetry-overhead benchmark uses it as
// its baseline; servers should leave telemetry on.
func WithoutTelemetry() Option {
	return func(c *dbConfig) { c.noTelemetry = true }
}

// WithMetricsAddr serves the DB's metrics on addr (e.g. ":9090" or
// "127.0.0.1:0") from a background listener, Prometheus text format at
// every path, JSON with ?format=json. The listener starts at Open and
// stops at Close; MetricsAddr reports the bound address. A listen failure
// does not fail Open — it is reported by MetricsAddr instead, so a DB is
// usable even when its metrics port is taken.
func WithMetricsAddr(addr string) Option {
	return func(c *dbConfig) { c.metricsAddr = addr }
}

// WithHistogramBuckets replaces the bucket bounds of every latency
// histogram (repro_query_seconds, the parse/rewrite/plan phase
// histograms, and repro_admission_wait_seconds) with the given strictly
// ascending upper bounds, in seconds. The default, obs.DefLatencyBuckets,
// spans 100µs–10s; a server whose SLO lives in a narrower band sets
// bounds that resolve it (e.g. 1–250ms in fine steps). Open panics on
// non-ascending or empty bounds — bucket layouts are program constants,
// so a bad one is a bug, not an input error.
func WithHistogramBuckets(boundsSeconds []float64) Option {
	if len(boundsSeconds) == 0 {
		panic("repro: WithHistogramBuckets requires at least one bound")
	}
	bounds := append([]float64(nil), boundsSeconds...)
	return func(c *dbConfig) { c.latencyBuckets = bounds }
}

// WithTraceSampling head-samples trace collection: only the given
// fraction of trace-eligible queries (WithTrace callers, or every query
// when a slow-query log is configured) actually build a span tree; the
// rest skip trace construction entirely and pay nothing. fraction >= 1
// traces every eligible query (the default), fraction <= 0 none, and
// anything between traces one query in every round(1/fraction),
// starting with the first. A sampled-out query's WithTrace hook is
// invoked with a nil *Trace and its Rows.Trace returns nil; slow-query
// log entries for such queries carry the summary fields but no query
// text or spans. Metrics are unaffected.
func WithTraceSampling(fraction float64) Option {
	return func(c *dbConfig) { c.traceSample, c.traceSampleSet = fraction, true }
}

// WithTraceExporter streams every sampled trace to w as OTLP/JSON, one
// ExportTraceServiceRequest document per line: query span trees, ingest
// durability pipelines (validate → WAL append → apply → fsync),
// checkpoints, and startup recovery. With an exporter configured every
// query becomes trace-eligible; WithTraceSampling still head-samples
// which ones build (and therefore export) a span tree, and
// WithoutTelemetry disables export entirely. Writes happen on the
// query's finish path under one mutex — point w at a buffered file or a
// background sink for high-throughput serving; rfidserve's -trace-export
// flag does this. Export failures are counted in
// repro_trace_export_errors_total and never fail the query.
func WithTraceExporter(w io.Writer) Option {
	return func(c *dbConfig) { c.traceExport = w }
}

// WithSlowQueryLog logs every query at or over threshold to logger: the
// query text and ID, outcome, plan-cache status, peak memory, spill runs,
// and the three slowest spans by self time. A zero threshold logs every
// query. The log rides on tracing, so slow queries carry full span trees
// even without WithTrace.
func WithSlowQueryLog(threshold time.Duration, logger *slog.Logger) Option {
	return func(c *dbConfig) { c.slowThreshold, c.slowLogger = threshold, logger }
}

// applyTelemetry assembles the DB's observability state from its Open
// options: the metric registry (unless disabled) and, when requested, the
// slow-query log and the background metrics listener.
func applyTelemetry(db *DB, c *dbConfig) {
	if c.noTelemetry {
		return
	}
	t := &dbTelemetry{
		metrics:       newDBMetrics(db, c.latencyBuckets),
		slowThreshold: c.slowThreshold,
		slowLogger:    c.slowLogger,
		wantAddr:      c.metricsAddr,
		traceEvery:    1,
		active:        obs.NewActiveSet(),
	}
	if c.traceExport != nil {
		t.exporter = obs.NewOTLPExporter(c.traceExport, "repro")
	}
	t.metrics.reg.GaugeFunc("repro_active_queries", "Queries and ingests running right now.", func() float64 {
		return float64(t.active.Len())
	})
	if c.traceSampleSet {
		switch f := c.traceSample; {
		case f >= 1:
			t.traceEvery = 1
		case f <= 0:
			t.traceEvery = 0
		default:
			t.traceEvery = uint64(math.Round(1 / f))
		}
	}
	db.tel = t
	if c.metricsAddr == "" {
		return
	}
	lis, err := net.Listen("tcp", c.metricsAddr)
	if err != nil {
		t.addrErr = err
		return
	}
	t.lis = lis
	// The metrics listener doubles as the diagnostics port: the registry
	// at every path except /debug/pprof/, which serves the standard Go
	// profiles (heap, goroutine, CPU, execution trace).
	mux := http.NewServeMux()
	mux.Handle("/", t.metrics.reg.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	t.srv = &http.Server{Handler: mux}
	go func() { _ = t.srv.Serve(lis) }()
}

// Metrics returns the DB's metric registry, or nil when the DB was opened
// with WithoutTelemetry. Callers may register their own families on it;
// they appear in every exposition alongside the engine's.
func (db *DB) Metrics() *MetricsRegistry {
	if db.tel == nil {
		return nil
	}
	return db.tel.metrics.reg
}

// MetricsHandler returns an http.Handler exposing the DB's metrics —
// Prometheus text format by default, JSON with ?format=json — for mounting
// on a caller-owned mux. It works with or without WithMetricsAddr. On a
// DB opened WithoutTelemetry the handler serves 404.
func (db *DB) MetricsHandler() http.Handler {
	if db.tel == nil {
		return http.NotFoundHandler()
	}
	return db.tel.metrics.reg.Handler()
}

// MetricsAddr reports the address the background metrics listener bound
// (useful with "127.0.0.1:0"), or the error that kept it from starting.
// Without WithMetricsAddr both returns are zero.
func (db *DB) MetricsAddr() (string, error) {
	t := db.tel
	if t == nil || (t.lis == nil && t.addrErr == nil) {
		return "", nil
	}
	if t.addrErr != nil {
		return "", fmt.Errorf("repro: metrics listener on %q: %w", t.wantAddr, t.addrErr)
	}
	return t.lis.Addr().String(), nil
}

// Close releases the DB's background resources: the durability layer
// (checkpoint timer stopped, WAL synced per policy and closed) and the
// metrics listener started by WithMetricsAddr. A DB without either
// closes as a no-op; Close is safe to call on every DB.
func (db *DB) Close() error {
	walErr := db.closeDurability()
	t := db.tel
	if t == nil || t.srv == nil {
		return walErr
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		return err
	}
	return walErr
}

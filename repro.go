// Package repro is a from-scratch reproduction of "A Deferred Cleansing
// Method for RFID Data Analytics" (Rao, Doraiswamy, Thakkar, Colby —
// VLDB 2006): query-time cleansing of RFID read anomalies.
//
// Applications declare anomalies with sequence-based rules in an extended
// SQL-TS (DEFINE … AS (A, *B) WHERE … ACTION DELETE|KEEP|MODIFY …). Rules
// compile to SQL/OLAP window-function templates kept in a rules catalog.
// When a query arrives, the rewrite engine combines it with the relevant
// rules and produces either an expanded rewrite (predicate relaxation via
// transitivity analysis over the rules' correlation conditions) or a
// join-back rewrite (cleansing restricted to the query's EPC sequences),
// choosing by cost estimate — so only the data the query needs, plus the
// context required to cleanse it, is ever cleaned.
//
// The package bundles the whole system the paper runs on: an embedded
// in-memory relational engine with SQL/OLAP window functions (standing in
// for the DBMS), the rule language and compiler, the rewrite engine, and
// the RFIDGen workload generator used by the paper's evaluation.
//
//	db := repro.Open()
//	db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 10, AnomalyPct: 10})
//	db.DefineRule(`DEFINE dup ON caseR AS (A, B)
//	    WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
//	    ACTION DELETE B`)
//	rows, _ := db.Query(`SELECT count(*) FROM caseR WHERE rtime <= ...`)
//
// The DB serves many callers at once: queries run concurrently while rule
// definitions and data loads serialize behind them, every entry point has
// a Context variant (QueryContext, PrepareContext, ExplainContext,
// Prepared.RunContext) that cancels cooperatively mid-operator, and a
// rewrite+plan cache keyed by (shape, strategy, rules, catalog epoch) lets
// repeated queries skip parse, rewrite, and costing entirely — the
// amortization a long-lived cleansing service needs, since the paper's
// rewrites are recomputed per query otherwise. The cache key is the
// statement's shape: comparison literals become $n placeholders before
// the lookup, so a lookup for a new EPC binds its value into the cached
// plan instead of recompiling.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/enginerr"
	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/rfidgen"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// Strategy selects how a query is rewritten for cleansing.
type Strategy = core.Strategy

// Rewrite strategies. Auto (the default) costs every candidate and runs
// the cheapest, like the paper's prototype.
const (
	Auto     = core.StrategyAuto
	Naive    = core.StrategyNaive
	Expanded = core.StrategyExpanded
	JoinBack = core.StrategyJoinBack
	Dirty    = core.StrategyDirty
)

// Kind re-exports the engine's value kinds.
type Kind = types.Kind

// Value kinds for ColumnDef.
const (
	KindBool     = types.KindBool
	KindInt      = types.KindInt
	KindFloat    = types.KindFloat
	KindString   = types.KindString
	KindTime     = types.KindTime
	KindInterval = types.KindInterval
)

// Value is a scalar query result value.
type Value = types.Value

// Value constructors for Insert and parameter building.

// NewBool builds a BOOL value.
func NewBool(b bool) Value { return types.NewBool(b) }

// NewInt builds an INT value.
func NewInt(i int64) Value { return types.NewInt(i) }

// NewFloat builds a FLOAT value.
func NewFloat(f float64) Value { return types.NewFloat(f) }

// NewString builds a STRING value.
func NewString(s string) Value { return types.NewString(s) }

// NewTime builds a TIME value (microsecond resolution).
func NewTime(t time.Time) Value { return types.NewTimeFrom(t) }

// NewInterval builds an INTERVAL value.
func NewInterval(d time.Duration) Value { return types.NewIntervalFrom(d) }

// Null is the SQL NULL value.
var Null = types.Null

// Sentinel errors, matchable with errors.Is. Methods wrap them with the
// offending name, e.g. `repro: no such table: "caser"`. ErrNoTable and
// ErrUnknownRule live in internal/enginerr so the planner and rewriter
// wrap the same values when name resolution fails mid-query.
var (
	// ErrNoTable reports a reference to a table the catalog doesn't hold.
	ErrNoTable = enginerr.ErrNoTable
	// ErrUnknownRule reports a reference to an unregistered cleansing rule.
	ErrUnknownRule = enginerr.ErrUnknownRule
	// ErrCanceled reports a query aborted by its context — canceled or past
	// its deadline. The context's own error is wrapped too, so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) (or
	// context.DeadlineExceeded) hold.
	ErrCanceled = errors.New("repro: query canceled")
)

// Resource-governance sentinels, re-exported from internal/govern so
// callers can match them with errors.Is without importing internals.
var (
	// ErrResourceExhausted reports a query that crossed its memory budget
	// with spilling disabled (or an operator with no spill path).
	ErrResourceExhausted = govern.ErrResourceExhausted
	// ErrOverloaded reports a query rejected by admission control: the
	// concurrency limit was reached and the wait queue was full.
	ErrOverloaded = govern.ErrOverloaded
	// ErrInternal reports an execution worker that panicked; the error
	// carries the recovered value and stack. Only the panicking query
	// fails — concurrent queries and later queries are unaffected.
	ErrInternal = govern.ErrInternal
)

// MemStats summarizes one query's memory accounting: budget, peak charged
// bytes, and spill activity.
type MemStats = govern.MemStats

// AdmissionStats snapshots the admission controller's counters.
type AdmissionStats = govern.AdmissionStats

// FaultInjection describes deterministic faults to force during one
// query's execution (see WithFaults). The zero value injects nothing.
type FaultInjection = govern.Inject

// wrapCanceled tags context-abort errors with ErrCanceled; other errors
// pass through untouched.
func wrapCanceled(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// DB is a deferred-cleansing database: storage, planner, rules catalog,
// and rewrite engine.
//
// A DB is safe for concurrent use. Queries (Query, Prepare, Explain,
// Rewrite, Prepared.Run and their Context variants) run concurrently with
// each other; catalog mutations (CreateTable, Insert, DefineRule,
// BuildIndex, Analyze, LoadRFIDWorkload, MaterializeCleansed) serialize
// behind them and block new queries until done. Mutating Catalog,
// Registry, or table contents directly bypasses that guarantee.
type DB struct {
	Catalog  *catalog.Database
	Registry *core.Registry
	Rewriter *core.Rewriter
	Planner  *plan.Planner

	// Workload carries the last RFIDGen dataset loaded, if any, exposing
	// the generator's ground truth and rule constants.
	Workload *rfidgen.Dataset

	// mu is the serving lock: queries hold the read side for their whole
	// rewrite+execute span (plans read table row slices in place), writers
	// take the write side.
	mu sync.RWMutex
	// cache memoizes rewrites+plans per (shape, strategy, rules, epoch).
	cache *planCache

	// admit bounds concurrent query execution; nil admits everything.
	admit *govern.Admission
	// defMemLimit and spillDir are the engine-wide governance defaults a
	// query can override with WithMemoryLimit / inherit for spill files.
	defMemLimit int64
	spillDir    string
	// totals accumulates per-query governance outcomes for ResourceStats.
	totals resourceTotals

	// tel is the DB's observability state — metric registry, slow-query
	// log, metrics listener (see telemetry.go); nil with WithoutTelemetry.
	tel *dbTelemetry

	// wal and durable are the durability layer (see durability.go); both
	// nil on a DB opened without WithWAL.
	wal     *persist.WAL
	durable *durableState
}

// resourceTotals aggregates governance outcomes across queries. One mutex
// guards the whole struct so ResourceStats reads a consistent snapshot:
// a reader never sees a query's spill runs without its byte volume, or a
// bumped query count with a stale peak. note is two compare-free integer
// adds under an uncontended lock — not a per-row path.
type resourceTotals struct {
	mu         sync.Mutex
	queries    int64
	spilled    int64
	spillRuns  int64
	spillBytes int64
	exhausted  int64
	maxPeak    int64
}

func (t *resourceTotals) note(m MemStats, wasExhausted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	if m.Spilled() {
		t.spilled++
	}
	t.spillRuns += m.SpillRuns
	t.spillBytes += m.SpillBytes
	if wasExhausted {
		t.exhausted++
	}
	if m.Peak > t.maxPeak {
		t.maxPeak = m.Peak
	}
}

// snapshot returns the totals as one consistent ResourceStats (without
// the admission section, which the caller fills in).
func (t *resourceTotals) snapshot() ResourceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ResourceStats{
		Queries:        t.queries,
		SpilledQueries: t.spilled,
		SpillRuns:      t.spillRuns,
		SpillBytes:     t.spillBytes,
		Exhausted:      t.exhausted,
		MaxPeak:        t.maxPeak,
	}
}

// Option configures a DB at Open/OpenDir time.
type Option func(*dbConfig)

// dbConfig collects Open options before the DB is assembled; queueDepth
// is -1 until WithAdmissionQueue sets it, so the default can depend on
// the concurrency limit.
type dbConfig struct {
	maxConcurrent int
	queueDepth    int
	defMemLimit   int64
	spillDir      string

	// Observability options (see telemetry.go).
	noTelemetry    bool
	metricsAddr    string
	slowThreshold  time.Duration
	slowLogger     *slog.Logger
	latencyBuckets []float64
	traceSample    float64
	traceSampleSet bool
	traceExport    io.Writer

	// Durability options (see durability.go).
	walDir             string
	fsyncPolicy        FsyncPolicy
	fsyncInterval      time.Duration
	checkpointBytes    int64
	checkpointInterval time.Duration
	walFaults          *persist.CrashFaults
}

// WithMaxConcurrent bounds how many queries execute at once; further
// queries wait in a bounded queue (see WithAdmissionQueue) and are
// rejected with ErrOverloaded past that. n <= 0 (the default) means
// unlimited.
func WithMaxConcurrent(n int) Option {
	return func(c *dbConfig) { c.maxConcurrent = n }
}

// WithAdmissionQueue sets the admission wait-queue depth (default 2× the
// concurrency limit; 0 rejects as soon as the limit is reached). It only
// takes effect together with WithMaxConcurrent; order the two options
// either way.
func WithAdmissionQueue(depth int) Option {
	return func(c *dbConfig) { c.queueDepth = depth }
}

// WithDefaultMemoryLimit sets the engine-wide per-query memory budget in
// bytes, inherited by every query that doesn't set WithMemoryLimit.
// 0 (the default) means unlimited.
func WithDefaultMemoryLimit(bytes int64) Option {
	return func(c *dbConfig) { c.defMemLimit = bytes }
}

// WithSpillDir places query spill files under dir instead of the system
// temp directory. Each query gets its own subdirectory, removed when the
// query finishes (even on cancellation).
func WithSpillDir(dir string) Option {
	return func(c *dbConfig) { c.spillDir = dir }
}

// newDB assembles a DB around an existing catalog and rules registry.
func newDB(cat *catalog.Database, reg *core.Registry) *DB {
	return &DB{
		Catalog:  cat,
		Registry: reg,
		Rewriter: core.NewRewriter(cat, reg),
		Planner:  plan.New(cat),
		cache:    newPlanCache(),
	}
}

// collectDBOpts folds Open options into one config.
func collectDBOpts(opts []Option) *dbConfig {
	c := &dbConfig{queueDepth: -1}
	for _, f := range opts {
		f(c)
	}
	return c
}

// Open creates an empty database. Options configure resource governance
// (admission control, default memory budget, spill location). Durability
// (WithWAL) requires OpenDir — recovery can fail, and Open has no error
// return — so Open panics on it.
func Open(opts ...Option) *DB {
	if c := collectDBOpts(opts); c.walDir != "" {
		panic("repro: WithWAL requires OpenDir (recovery can fail); use OpenDir(\"\", WithWAL(dir))")
	}
	cat := catalog.NewDatabase()
	db := newDB(cat, core.NewRegistry(cat))
	applyDBOpts(db, opts)
	return db
}

// OpenDir restores a database previously written with Save: tables,
// views, and the rules catalog (indexes rebuilt, statistics refreshed).
// Options are applied as in Open.
//
// With WithWAL the directory semantics change: the WAL root is the
// source of truth, recovered checkpoint-plus-log on every open, and dir
// is only a seed snapshot for a fresh root (pass "" for none). See
// durability.go.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	if c := collectDBOpts(opts); c.walDir != "" {
		return openDurable(dir, c, opts)
	}
	cat, reg, err := persist.Load(dir)
	if err != nil {
		return nil, err
	}
	db := newDB(cat, reg)
	applyDBOpts(db, opts)
	return db, nil
}

func applyDBOpts(db *DB, opts []Option) {
	c := collectDBOpts(opts)
	queue := c.queueDepth
	if queue < 0 {
		queue = 2 * c.maxConcurrent
	}
	db.admit = govern.NewAdmission(c.maxConcurrent, queue)
	db.defMemLimit = c.defMemLimit
	db.spillDir = c.spillDir
	applyTelemetry(db, c)
}

// Save persists the database — tables, views, rules — to a directory that
// OpenDir can restore.
func (db *DB) Save(dir string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return persist.Save(db.Catalog, db.Registry, dir)
}

// ColumnDef declares one column of a table.
type ColumnDef struct {
	Name string
	Kind Kind
}

// ParseKind reads a kind name as rendered by Kind.String() — BOOL, INT,
// FLOAT, STRING, TIME, INTERVAL. The wire layer and shell use it to turn
// user-supplied schemas into ColumnDefs.
func ParseKind(name string) (Kind, error) {
	for _, k := range []Kind{KindBool, KindInt, KindFloat, KindString, KindTime, KindInterval} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown kind %q", name)
}

// TableColumns reports a table's schema in declaration order.
func (db *DB) TableColumns(table string) ([]ColumnDef, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.Catalog.Table(table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	cols := make([]ColumnDef, t.Schema.Len())
	for i, c := range t.Schema.Columns {
		cols[i] = ColumnDef{Name: c.Name, Kind: c.Kind}
	}
	return cols, nil
}

// CreateTable adds an empty base table of at least one column. On a
// durable DB the DDL is WAL-logged and synced before it is acknowledged.
func (db *DB) CreateTable(name string, cols ...ColumnDef) error {
	if len(cols) == 0 {
		return fmt.Errorf("repro: table %q needs at least one column", strings.ToLower(name))
	}
	s := &schema.Schema{}
	for _, c := range cols {
		s.Columns = append(s.Columns, schema.Col(name, c.Name, c.Kind))
	}
	t := storage.NewTable(name, s)
	db.mu.Lock()
	defer db.mu.Unlock()
	// Validate before logging: a record enters the WAL only if its apply
	// must succeed, so replay cannot fail where the live path succeeded.
	if _, exists := db.Catalog.Table(name); exists {
		return fmt.Errorf("catalog: table %q already exists", strings.ToLower(name))
	}
	if _, exists := db.Catalog.View(name); exists {
		return fmt.Errorf("catalog: %q already names a view", strings.ToLower(name))
	}
	if err := db.walDDL(persist.NewTableDDL(name, s)); err != nil {
		return err
	}
	return db.Catalog.AddTable(t)
}

// Insert appends rows of values to a table. Row arity must match the
// table schema. On a durable DB the batch is WAL-logged and synced per
// the fsync policy before returning — Insert and Ingest are equivalent
// there; Ingest exists to make the durable contract explicit at call
// sites.
func (db *DB) Insert(table string, rows ...[]Value) error {
	return db.Ingest(table, rows...)
}

// BuildIndex creates (or rebuilds) a sorted index on a column.
func (db *DB) BuildIndex(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	if t.Schema.IndexOf(column) < 0 {
		return fmt.Errorf("storage: no column %q in table %s", column, t.Name)
	}
	if err := db.walDDL(persist.DDLRecord{Op: persist.DDLBuildIndex, Table: table, Column: column}); err != nil {
		return err
	}
	if err := t.BuildIndex(column); err != nil {
		return err
	}
	db.Catalog.BumpEpoch()
	return nil
}

// Analyze refreshes optimizer statistics for a table.
func (db *DB) Analyze(table string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	t.Analyze()
	db.Catalog.BumpEpoch()
	return nil
}

// CreateView registers a named view. On a durable DB the DDL is
// WAL-logged and synced before it is acknowledged.
func (db *DB) CreateView(name, query string) error {
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.Catalog.View(name); exists {
		return fmt.Errorf("catalog: view %q already exists", strings.ToLower(name))
	}
	if _, exists := db.Catalog.Table(name); exists {
		return fmt.Errorf("catalog: %q already names a table", strings.ToLower(name))
	}
	if err := db.walDDL(persist.DDLRecord{Op: persist.DDLCreateView, Name: name, SQL: sqlast.SQL(stmt)}); err != nil {
		return err
	}
	return db.Catalog.AddView(name, stmt)
}

// WorkloadConfig mirrors the RFIDGen parameters (§6.1 of the paper).
type WorkloadConfig struct {
	// Scale is the paper's scale factor s (number of pallet EPCs); caseR
	// gets about s*1500 rows.
	Scale int
	// AnomalyPct is the dirty percentage (the paper uses 10–40).
	AnomalyPct int
	// Seed fixes the data; 0 is a valid fixed seed.
	Seed int64
	// Start anchors the 5-year read window (defaults to 2021-01-01).
	Start time.Time
}

// LoadRFIDWorkload generates and loads the paper's 7-table supply-chain
// schema with injected anomalies, and registers the missing rule's
// case∪pallet input view.
func (db *DB) LoadRFIDWorkload(cfg WorkloadConfig) error {
	d := rfidgen.Generate(rfidgen.Config{
		Scale: cfg.Scale, AnomalyPct: cfg.AnomalyPct, Seed: cfg.Seed, Start: cfg.Start,
	})
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := d.Load(db.Catalog); err != nil {
		return err
	}
	db.Workload = d
	db.Catalog.BumpEpoch()
	// Durable DBs make bulk loads durable with one checkpoint instead of
	// WAL-logging every generated row; a crash mid-load loses the whole
	// load atomically, never a partial workload.
	return db.walCheckpointLocked()
}

// DefinePaperRules registers the five cleansing rules of §4.3 against the
// loaded workload, in Table 1 order. It requires LoadRFIDWorkload first.
// It returns the registered rule names.
func (db *DB) DefinePaperRules() ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.Workload == nil {
		return nil, fmt.Errorf("repro: DefinePaperRules requires LoadRFIDWorkload")
	}
	var names []string
	for _, src := range db.Workload.PaperRules() {
		r, err := db.Registry.Define(src)
		if err != nil {
			return nil, err
		}
		if err := db.walRule(r.Rule.String()); err != nil {
			return nil, err
		}
		names = append(names, r.Rule.Name)
	}
	return names, nil
}

// RuleInfo describes a registered rule.
type RuleInfo struct {
	Name string
	// SQLTS is the rule re-rendered in extended SQL-TS.
	SQLTS string
	// Template is the persisted SQL/OLAP template over $input.
	Template string
}

// DefineRule parses, compiles, and registers a cleansing rule written in
// extended SQL-TS. Registration invalidates cached rewrites of queries
// over the rule's table.
func (db *DB) DefineRule(src string) (RuleInfo, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, err := db.Registry.Define(src)
	if err != nil {
		return RuleInfo{}, err
	}
	// Log the registry's canonical rendering, the same form a snapshot's
	// rule records hold, so replay re-defines the identical rule.
	if err := db.walRule(r.Rule.String()); err != nil {
		return RuleInfo{}, err
	}
	return RuleInfo{Name: r.Rule.Name, SQLTS: r.Rule.String(), Template: r.TemplateSQL}, nil
}

// QueryOption customizes Query/Rewrite/Explain.
type QueryOption func(*queryOpts)

type queryOpts struct {
	strategy    Strategy
	rules       []string
	timeout     time.Duration
	parallelism int
	rowEval     bool

	memLimit int64 // per-query budget; meaningful only when memSet
	memSet   bool
	noSpill  bool
	faults   FaultInjection

	// traceSet asks for a span tree (WithTrace); traceHook, when non-nil,
	// receives the finished trace even on query failure.
	traceSet  bool
	traceHook func(*Trace)

	// params binds the statement's placeholders (WithParams).
	params []Value
}

// WithStrategy forces a rewrite strategy (default Auto).
func WithStrategy(s Strategy) QueryOption {
	return func(o *queryOpts) { o.strategy = s }
}

// WithRules restricts cleansing to the named rules (default: every
// registered rule on the tables the query touches, in creation order).
func WithRules(names ...string) QueryOption {
	return func(o *queryOpts) { o.rules = names }
}

// WithTimeout bounds the query's total rewrite+execution time. Zero (the
// default) means no limit. It composes with any deadline already on the
// caller's context: whichever expires first cancels the query, which then
// fails with an error matching both ErrCanceled and
// context.DeadlineExceeded.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *queryOpts) { o.timeout = d }
}

// WithParallelism sets this query's intra-query worker-pool width: scans,
// filters, joins, sorts, aggregations, and window partitions split large
// inputs into morsels executed by up to n goroutines. 1 forces serial
// execution; values < 1 (including the zero default) use the
// process-wide exec.Parallelism, which defaults to the CPU count.
// Results are bit-identical at every setting — parallel operators
// preserve serial output order exactly — so the knob trades only latency
// for CPU, never answers.
func WithParallelism(n int) QueryOption {
	return func(o *queryOpts) { o.parallelism = n }
}

// WithRowEval forces row-at-a-time expression evaluation for this query,
// disabling the vectorized (batch) kernels the executor uses by default.
// Results are bit-identical either way — the batch path falls back to the
// row path on any kernel error, so even failures match — which makes this
// a debugging and benchmarking knob: it isolates whether a discrepancy or
// a speedup comes from batch evaluation, and it is the row baseline the
// vectorization benchmarks measure against.
func WithRowEval() QueryOption {
	return func(o *queryOpts) { o.rowEval = true }
}

// WithMemoryLimit bounds this query's working memory to n bytes,
// overriding the engine default set by WithDefaultMemoryLimit. Operators
// that would cross the budget spill to temp files (sort, aggregation,
// join build) — answers stay bit-identical to the in-memory paths — and
// operators with no spill path fail with ErrResourceExhausted. 0 means
// unlimited.
func WithMemoryLimit(n int64) QueryOption {
	return func(o *queryOpts) { o.memLimit, o.memSet = n, true }
}

// WithoutSpill disables the disk fallback for this query: crossing the
// memory budget fails fast with ErrResourceExhausted instead of
// degrading to temp files. Useful when predictable latency matters more
// than completing oversized queries.
func WithoutSpill() QueryOption {
	return func(o *queryOpts) { o.noSpill = true }
}

// WithFaults injects deterministic failures into this query's execution —
// allocation failures, a one-shot worker panic, per-operator delays, or
// spill-file I/O errors. It exists for tests and the soak suite; the zero
// FaultInjection injects nothing.
func WithFaults(f FaultInjection) QueryOption {
	return func(o *queryOpts) { o.faults = f }
}

// execCtx builds the execution context for one query run, applying the
// WithParallelism and WithRowEval options.
func (o *queryOpts) execCtx(ctx context.Context) *exec.Ctx {
	return exec.NewCtxWith(ctx).SetParallelism(o.parallelism).SetVectorize(!o.rowEval)
}

// resources builds the per-query governance handle from the query options
// layered over the engine defaults.
func (db *DB) resources(o *queryOpts) *govern.Resources {
	limit := db.defMemLimit
	if o.memSet {
		limit = o.memLimit
	}
	return govern.NewResources(limit, !o.noSpill, db.spillDir, o.faults)
}

// deadline applies the WithTimeout option, if any, to ctx.
func (o *queryOpts) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(ctx, o.timeout)
	}
	return ctx, func() {}
}

// Rows is a query result. Query/QueryContext return it eager — Data
// fully materialized — while QueryStream/StreamContext return it live,
// with Data nil and rows pulled from the engine by Next. The cursor API
// (Next, Row, Scan, Err, Close) works over both forms.
type Rows struct {
	// Columns are output column names.
	Columns []string
	// Data holds the rows of an eager result; nil on a streaming one.
	Data [][]Value
	// Rewrite describes how the query was executed.
	Rewrite RewriteInfo
	// Mem reports the query's memory accounting: configured budget, peak
	// charged bytes, and spill runs/bytes if any operator went to disk.
	// On a streaming Rows it is populated when the stream finishes.
	Mem MemStats

	// trace is the query's span tree when one was collected; Trace reads
	// it. id is the engine's statement ID; QueryID reads it.
	trace *Trace
	id    QueryID

	// pos/cur are the cursor over Data (eager) or the current streamed
	// row; src is the live executor stream, nil on eager results.
	pos int
	cur []Value
	src *rowsStream
}

// RewriteInfo reports the chosen rewrite.
type RewriteInfo struct {
	Strategy Strategy
	EstCost  float64
	// Candidates lists every evaluated (strategy, pushes, cost) triple.
	Candidates []core.CandidateInfo
	// CacheHit reports whether this rewrite was served from the DB's
	// rewrite+plan cache (parse, rewrite, and costing were all skipped).
	CacheHit bool
	// CacheHits and CacheMisses are the cache's cumulative counters as of
	// this query; PlanCacheStats reads them on demand.
	CacheHits, CacheMisses uint64

	// stmt is the rewritten statement and params the binding SQL prints
	// it under.
	stmt   sqlast.Stmt
	params []types.Value
}

// SQL prints the rewritten statement with the binding's values in place
// of its placeholders, so it reads as the literal statement's rewrite
// would; "" when nothing was rewritten.
func (ri RewriteInfo) SQL() string {
	if ri.stmt == nil {
		return ""
	}
	return sqlast.SQL(sqlast.BindStmt(ri.stmt, ri.params))
}

// Query rewrites the SQL under the active cleansing rules and executes it.
func (db *DB) Query(sql string, opts ...QueryOption) (*Rows, error) {
	return db.QueryContext(context.Background(), sql, opts...)
}

// QueryContext is Query governed by a context: cancellation or deadline
// expiry stops execution cooperatively mid-operator, and the query fails
// with an error matching ErrCanceled and the context's own error.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	o := applyOpts(opts)
	return (&statement{db: db, sql: sql, o: o, args: o.params}).run(ctx)
}

// Rewrite returns the rewritten SQL without executing it.
func (db *DB) Rewrite(sql string, opts ...QueryOption) (RewriteInfo, error) {
	return db.RewriteContext(context.Background(), sql, opts...)
}

// RewriteContext is Rewrite governed by a context. Rewriting is not
// interruptible, but the context is checked before work starts, so a
// server can skip compiling for a client that already hung up.
func (db *DB) RewriteContext(ctx context.Context, sql string, opts ...QueryOption) (RewriteInfo, error) {
	if err := ctx.Err(); err != nil {
		return RewriteInfo{}, wrapCanceled(err)
	}
	o := applyOpts(opts)
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.compile(sql, o.params, o)
	if err != nil {
		return RewriteInfo{}, err
	}
	return c.info, nil
}

// Explain returns the physical plan of the rewritten query, with
// cardinality and cost estimates. Operators that fan out at the query's
// parallelism (WithParallelism, else exec.Parallelism) are marked
// [parallel].
func (db *DB) Explain(sql string, opts ...QueryOption) (string, error) {
	return db.ExplainContext(context.Background(), sql, opts...)
}

// ExplainContext is Explain governed by a context. Planning is not
// interruptible, but the context is checked before work starts.
func (db *DB) ExplainContext(ctx context.Context, sql string, opts ...QueryOption) (string, error) {
	o := applyOpts(opts)
	ctx, cancel := o.deadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return "", wrapCanceled(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.compile(sql, o.params, o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- strategy: %s (est cost %.0f)\n-- %s\n", c.info.Strategy, c.info.EstCost, c.info.SQL())
	b.WriteString(exec.ExplainBound(c.res.Plan, c.params, o.parallelism))
	b.WriteString(paramsLine(c.res, c.params))
	return b.String(), nil
}

// Prepared is a parsed query that runs repeatedly with its Prepare-time
// options. Each run resolves its plan through the plan cache, as a Query
// does: Prepare compiles the statement once and caches the plan, runs
// bind into it, and a run after a rule definition, data load or index
// build re-plans, so a Prepared observes them. A Prepared is safe for
// concurrent Run calls.
//
// A statement with $n placeholders takes their values per run (Run's
// args). Prepare checks it compiles, and each run resolves the plan
// cache's entry for its shape under the run's binding: the first run
// plans it, later runs bind into it, and a binding whose estimates fit
// none of the shape's plans re-plans.
type Prepared struct {
	db   *DB
	sql  string
	stmt sqlast.Stmt
	// opts are the Prepare-time query options (timeout, parallelism,
	// row-eval, memory limit, spill, faults), applied to every run.
	opts *queryOpts
	// info is what the compile at Prepare reported; empty for a
	// statement with placeholders.
	info RewriteInfo
}

// Prepare parses a query and compiles it once.
func (db *DB) Prepare(sql string, opts ...QueryOption) (*Prepared, error) {
	return db.PrepareContext(context.Background(), sql, opts...)
}

// PrepareContext is Prepare governed by a context, checked before work
// starts. A WithTimeout option does not bound Prepare itself: it is kept
// with the statement and bounds every Run and Stream, each run getting a
// fresh deadline that starts when the run does (admission wait included)
// and composes with the run's own context.
func (db *DB) PrepareContext(ctx context.Context, sql string, opts ...QueryOption) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(err)
	}
	o := applyOpts(opts)
	start := time.Now()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p := &Prepared{db: db, sql: sql, stmt: stmt, opts: o}
	if n := sqlast.MaxParam(stmt); n > 0 {
		if err := db.checkCompiles(stmt, n, o); err != nil {
			return nil, err
		}
		return p, nil
	}
	c, err := db.compileStmt(stmt, start, nil, o)
	if err != nil {
		return nil, err
	}
	p.info = c.info
	return p, nil
}

// Rewrite reports how the compile at Prepare rewrote the query; for a
// statement with placeholders, which plans at each run, it is empty.
func (p *Prepared) Rewrite() RewriteInfo { return p.info }

// NumParams returns the number of values each run takes: the highest
// $n placeholder of the statement, 0 for none.
func (p *Prepared) NumParams() int { return sqlast.MaxParam(p.stmt) }

// Run executes the prepared plan, args binding its placeholders.
func (p *Prepared) Run(args ...Value) (*Rows, error) {
	return p.RunContext(context.Background(), args...)
}

// RunContext executes the prepared plan under a context; cancellation
// stops execution cooperatively, as in QueryContext. Runs pass through
// admission control and are governed by the Prepare-time timeout and
// memory options; a run that exhausts its budget also evicts the plan's
// cache entry, so a later Query or Prepare under a raised limit replans
// fresh.
func (p *Prepared) RunContext(ctx context.Context, args ...Value) (*Rows, error) {
	return p.statement(args).run(ctx)
}

// statement is one governed run of the prepared plan.
func (p *Prepared) statement(args []Value) *statement {
	return &statement{db: p.db, sql: p.sql, o: p.opts, prep: p, args: args}
}

// ExplainAnalyze rewrites and executes the query, returning the plan
// annotated with both the planner's estimates and the actual row counts
// and operator times.
func (db *DB) ExplainAnalyze(sql string, opts ...QueryOption) (string, error) {
	return db.ExplainAnalyzeContext(context.Background(), sql, opts...)
}

// ExplainAnalyzeContext is ExplainAnalyze governed by a context. The
// run passes through admission control and the query's memory budget;
// operators that spilled are annotated with their run counts, and a
// trailer line reports the query's peak memory and spill volume.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, sql string, opts ...QueryOption) (string, error) {
	o := applyOpts(opts)
	st := &statement{db: db, sql: sql, o: o, args: o.params, analyze: true}
	if err := st.begin(ctx); err != nil {
		return "", err
	}
	_, err := st.execute()
	if err := st.finish(nil, err); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- strategy: %s (est cost %.0f)\n", st.info.Strategy, st.info.EstCost)
	b.WriteString(exec.ExplainAnalyze(st.plan, st.ectx))
	b.WriteString(paramsLine(st.res, st.ectx.Params()))
	m := st.mem
	fmt.Fprintf(&b, "-- mem: peak=%s", FormatBytes(m.Peak))
	if m.Limit > 0 {
		fmt.Fprintf(&b, " limit=%s", FormatBytes(m.Limit))
	}
	if m.Spilled() {
		fmt.Fprintf(&b, " spilled=%d runs (%s)", m.SpillRuns, FormatBytes(m.SpillBytes))
	}
	b.WriteString("\n")
	return b.String(), nil
}

// newRows materializes an executed result into the public Rows shape —
// the single point where result rows leave the engine, shared by
// DB.Query and Prepared.Run. When the plan's root exclusively owns its
// output (projections, joins, aggregates — anything that built fresh
// rows rather than slicing stored segments), the rows are adopted
// as-is; only roots that alias engine-owned storage are copied.
func newRows(out *exec.Result, plan exec.Node, inf RewriteInfo) *Rows {
	rows := &Rows{Rewrite: inf}
	rows.Columns = make([]string, len(out.Schema.Columns))
	for i, c := range out.Schema.Columns {
		rows.Columns[i] = c.Name
	}
	rows.Data = make([][]Value, len(out.Rows))
	if exec.OwnsRows(plan) {
		for i, r := range out.Rows {
			rows.Data[i] = r
		}
	} else {
		for i, r := range out.Rows {
			rows.Data[i] = append([]Value{}, r...)
		}
	}
	return rows
}

// MaterializeCleansed eagerly applies the named rules (all rules on the
// table when names is empty) and stores the cleansed result as a new base
// table — the paper's hybrid model, where anomalies common to every
// consumer are cleansed once up front while application-specific ones stay
// deferred. The new table copies the source's indexes and refreshes
// statistics. Rules that create columns via MODIFY are rejected (the
// destination keeps the source schema).
func (db *DB) MaterializeCleansed(source, dest string, ruleNames ...string) (int, error) {
	return db.MaterializeCleansedContext(context.Background(), source, dest, ruleNames...)
}

// MaterializeCleansedContext is MaterializeCleansed governed by a
// context: the cleansing run cancels cooperatively mid-operator, and
// nothing is stored on cancellation. The failure matches ErrCanceled and
// the context's own error. The run is a statement nested under the write
// lock held here, so the engine's memory budget and spill directory
// govern it and ResourceStats counts it.
func (db *DB) MaterializeCleansedContext(ctx context.Context, source, dest string, ruleNames ...string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, wrapCanceled(err)
	}
	src, ok := db.Catalog.Table(source)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, source)
	}
	cols := make([]string, src.Schema.Len())
	for i, c := range src.Schema.Columns {
		cols[i] = c.Name
	}
	st := &statement{db: db, sql: "SELECT " + strings.Join(cols, ", ") + " FROM " + source,
		o: applyOpts([]QueryOption{WithStrategy(Naive), WithRules(ruleNames...)}), nested: true}
	if err := st.begin(ctx); err != nil {
		return 0, err
	}
	out, err := st.execute()
	if err := st.finish(nil, err); err != nil {
		return 0, err
	}
	dst := storage.NewTable(dest, src.Schema.WithQualifier(dest))
	// A MODIFY may assign a value of another kind; such a table could
	// not be snapshotted, so it is refused before anything is stored.
	if err := checkRows(dest, dst.Schema, out.Rows); err != nil {
		return 0, err
	}
	for _, r := range out.Rows {
		if err := dst.Append(r); err != nil {
			return 0, err
		}
	}
	if err := db.Catalog.AddTable(dst); err != nil {
		return 0, err
	}
	for ord := range src.Schema.Columns {
		if src.HasIndex(ord) {
			if err := dst.BuildIndex(dst.Schema.Columns[ord].Name); err != nil {
				return 0, err
			}
		}
	}
	dst.Analyze()
	// Like LoadRFIDWorkload, the materialized table is made durable with
	// one checkpoint rather than row-by-row WAL records.
	if err := db.walCheckpointLocked(); err != nil {
		return 0, err
	}
	return dst.RowCount(), nil
}

// RuleEffect summarizes what one rule would do to its table right now —
// a dry run for rule authors; nothing is modified.
type RuleEffect struct {
	// Input and Output are the row counts before and after the rule.
	Input, Output int
	// Deleted is Input − Output (DELETE/KEEP rules).
	Deleted int
	// Modified counts rows whose content changed (MODIFY rules; compares
	// the columns common to input and output).
	Modified int
	// SampleDeleted holds up to limit removed rows, rendered.
	SampleDeleted []string
	// SampleModified holds up to limit "before → after" pairs.
	SampleModified []string
}

// DryRunRule applies a single registered rule to its full input and
// reports the effect without touching stored data. The sample slices are
// capped at limit entries each.
func (db *DB) DryRunRule(ruleName string, limit int) (*RuleEffect, error) {
	return db.DryRunRuleContext(context.Background(), ruleName, limit)
}

// DryRunRuleContext is DryRunRule governed by a context: both internal
// cleansing executions cancel cooperatively mid-operator.
func (db *DB) DryRunRuleContext(ctx context.Context, ruleName string, limit int) (*RuleEffect, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	reg, ok := db.Registry.Rule(ruleName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRule, ruleName)
	}
	inCols, err := db.Registry.InputColumns(reg.Rule)
	if err != nil {
		return nil, err
	}
	colList := strings.Join(inCols, ", ")
	// Both executions are nested statements: they run under the read lock
	// held here, so the rule's input and output are one consistent state.
	sub := func(sql string, opts ...QueryOption) (*Rows, error) {
		return (&statement{db: db, sql: sql, o: applyOpts(opts), nested: true}).run(ctx)
	}
	rawRows, err := sub("SELECT "+colList+" FROM "+reg.Rule.From, WithStrategy(Dirty))
	if err != nil {
		return nil, err
	}
	cleanRows, err := sub("SELECT "+colList+" FROM "+reg.Rule.On, WithStrategy(Naive), WithRules(ruleName))
	if err != nil {
		return nil, err
	}
	eff := &RuleEffect{Input: len(rawRows.Data), Output: len(cleanRows.Data)}
	render := func(r []Value) string {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		return strings.Join(parts, " | ")
	}
	// Multiset difference keyed on the rendered row. Keyed by the rule's
	// cluster+sequence key for the modified pairing.
	ckIdx, skIdx := -1, -1
	for i, c := range inCols {
		if strings.EqualFold(c, reg.Rule.ClusterBy) {
			ckIdx = i
		}
		if strings.EqualFold(c, reg.Rule.SequenceBy) {
			skIdx = i
		}
	}
	outByKey := map[string][]string{}
	outAll := map[string]int{}
	for _, r := range cleanRows.Data {
		line := render(r)
		outAll[line]++
		if ckIdx >= 0 && skIdx >= 0 {
			k := r[ckIdx].String() + "|" + r[skIdx].String()
			outByKey[k] = append(outByKey[k], line)
		}
	}
	for _, r := range rawRows.Data {
		line := render(r)
		if outAll[line] > 0 {
			outAll[line]--
			continue
		}
		// The row is gone or changed. If a row with the same (ckey, skey)
		// survived, call it modified; otherwise deleted.
		if ckIdx >= 0 && skIdx >= 0 {
			k := r[ckIdx].String() + "|" + r[skIdx].String()
			if alts := outByKey[k]; len(alts) > 0 {
				eff.Modified++
				if len(eff.SampleModified) < limit {
					eff.SampleModified = append(eff.SampleModified, line+"  →  "+alts[0])
				}
				continue
			}
		}
		eff.Deleted++
		if len(eff.SampleDeleted) < limit {
			eff.SampleDeleted = append(eff.SampleDeleted, line)
		}
	}
	return eff, nil
}

// ExpandedConditions reports the per-rule expanded conditions the
// transitivity analysis derives for a query (Table 1 of the paper);
// infeasible rules map to "{}".
func (db *DB) ExpandedConditions(sql string, opts ...QueryOption) (map[string]string, error) {
	o := applyOpts(opts)
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.Rewriter.ExpandedConditions(sql, o.rules)
}

// ResourceStats aggregates the engine's governance activity since Open.
type ResourceStats struct {
	// Admission is the admission controller's snapshot (zeros when no
	// concurrency limit is configured).
	Admission AdmissionStats
	// Queries counts governed executions: Query, ExplainAnalyze,
	// QueryStream, Prepared.Run and Prepared.Stream (and their Context
	// variants), plus DryRunRule's two internal runs and
	// MaterializeCleansed's one.
	Queries int64
	// SpilledQueries counts executions in which at least one operator went
	// to disk; SpillRuns and SpillBytes accumulate their volume.
	SpilledQueries, SpillRuns, SpillBytes int64
	// Exhausted counts executions that failed with ErrResourceExhausted.
	Exhausted int64
	// MaxPeak is the largest single-query peak memory observed, in bytes.
	MaxPeak int64
	// Recovery reports what crash recovery did at OpenDir (zero without a
	// WAL; Recovery.Durable distinguishes "no WAL" from "clean recovery").
	Recovery RecoveryStats
	// WAL is the live write-ahead log's position (zero without one).
	WAL WALStats
}

// ResourceStats snapshots the DB's cumulative resource-governance
// counters: admission decisions, spill volume, budget failures, the
// per-query memory high-water mark, and the durability layer's state.
func (db *DB) ResourceStats() ResourceStats {
	s := db.totals.snapshot()
	s.Admission = db.admit.Stats()
	if db.durable != nil {
		s.Recovery = db.durable.recovery
		s.WAL = db.WALStats()
	}
	return s
}

// FormatBytes renders a byte count human-readably (B, KiB, MiB, GiB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func applyOpts(opts []QueryOption) *queryOpts {
	o := &queryOpts{strategy: Auto}
	for _, f := range opts {
		f(o)
	}
	return o
}

func info(res *core.Result, params []types.Value) RewriteInfo {
	return RewriteInfo{Strategy: res.Strategy, EstCost: res.EstCost, Candidates: res.Candidates, stmt: res.Stmt, params: params}
}

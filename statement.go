package repro

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/govern"
)

// statement is the one governed-execution lifecycle behind every entry
// point that runs a plan: QueryContext, Prepared.RunContext and
// ExplainAnalyzeContext drive it eagerly (exec.Run) and finish it before
// they return; QueryStreamContext and Prepared.StreamContext hand it to
// a streaming Rows, which finishes it at end of stream, on error, or at
// Close. begin acquires, in order, everything a running query holds —
// deadline, private cancel, registry entry, admission slot, catalog read
// lock, plan, memory budget, execution context — and finish gives all of
// it back exactly once.
type statement struct {
	db  *DB
	sql string
	o   *queryOpts
	// prep, when non-nil, is the Prepared the statement runs: its parsed
	// statement compiles through the plan cache under args; it otherwise
	// runs exactly like a query.
	prep *Prepared
	// args bind the statement's placeholders.
	args []Value
	// nested marks a sub-query of an operation that already holds the
	// catalog lock (DryRunRule the read lock, MaterializeCleansed the write
	// lock): it takes no lock or admission slot of its own and is not
	// observed by telemetry.
	nested bool
	// analyze collects per-operator statistics even without telemetry
	// (EXPLAIN ANALYZE prints them).
	analyze bool

	start  time.Time
	ctx    context.Context
	cancel context.CancelFunc
	tel    *qtel
	// release frees the admission slot; non-nil exactly while the statement
	// holds the slot and the catalog read lock.
	release func()

	key  cacheKey
	plan exec.Node
	res  *core.Result
	info RewriteInfo
	grs  *govern.Resources
	ectx *exec.Ctx
	// execStart is when the driver (exec.Run or exec.Open) took over.
	execStart time.Time

	finished bool
	mem      MemStats
	err      error
}

// begin takes the statement from options to a ready execution context.
// The deadline starts here, so it covers the admission queue wait. On
// failure everything acquired so far is released and the (ErrCanceled-
// tagged) error returned; on success the caller must drive the plan and
// call finish.
func (st *statement) begin(ctx context.Context) error {
	db, o := st.db, st.o
	st.start = time.Now()
	ctx, cancelDeadline := o.deadline(ctx)
	// A private cancellation layer under the caller's context: DB.Kill
	// stops exactly this statement through it (the registry entry holds
	// it), and a streaming Rows stops in-flight engine work at Close.
	ctx, cancelPrivate := context.WithCancel(ctx)
	st.ctx, st.cancel = ctx, func() { cancelPrivate(); cancelDeadline() }
	if !st.nested {
		st.tel = db.startQuery(st.sql, o)
		st.tel.activate("query", st.cancel)
		st.tel.setPhase("queued")
		admitStart := time.Now()
		release, err := db.admit.Acquire(ctx)
		if err != nil {
			return st.finish(nil, err)
		}
		st.tel.noteAdmit(admitStart, time.Since(admitStart))
		db.mu.RLock()
		st.release = release
	}
	st.tel.setPhase("compile")
	var c *compiled
	var err error
	if st.prep != nil {
		c, err = db.compileStmt(st.prep.stmt, time.Now(), st.args, o)
	} else {
		c, err = db.compile(st.sql, st.args, o)
	}
	if err != nil {
		return st.finish(nil, err)
	}
	st.tel.notePhases(c)
	st.key, st.plan, st.res, st.info = c.key, c.res.Plan, c.res, c.info
	st.grs = db.resources(o)
	st.ectx = o.execCtx(ctx).SetResources(st.grs).SetParams(c.params)
	if st.tel != nil || st.analyze {
		st.ectx.EnableStats()
	}
	st.tel.attachExec(st.ectx, st.grs)
	return nil
}

// execute drives a begun statement eagerly; the caller finishes it.
func (st *statement) execute() (*exec.Result, error) {
	st.tel.setPhase("execute")
	st.execStart = time.Now()
	return exec.Run(st.ectx, st.plan)
}

// run is the whole eager lifecycle: begin, execute, materialize, finish.
func (st *statement) run(ctx context.Context) (*Rows, error) {
	if err := st.begin(ctx); err != nil {
		return nil, err
	}
	out, err := st.execute()
	var rows *Rows
	if err == nil {
		rows = newRows(out, st.plan, st.info)
	}
	return rows, st.finish(rows, err)
}

// stream begins the statement and returns it as a live Rows, which owns
// the statement from here on and finishes it.
func (st *statement) stream(ctx context.Context) (*Rows, error) {
	if err := st.begin(ctx); err != nil {
		return nil, err
	}
	st.tel.setPhase("stream")
	st.execStart = time.Now()
	return newStreamingRows(st, exec.Open(st.ectx, st.plan)), nil
}

// finish settles the statement exactly once — later calls return the
// first call's error. The engine must have stopped (exec.Run returned,
// or the stream was closed). It records the execution's operator stats
// and memory accounting, evicts the plan-cache entry when the budget was
// exhausted (so a retry under a raised limit, or with spilling back on,
// replans instead of being pinned to the entry that just failed), tags
// context aborts with ErrCanceled, closes telemetry — rows, when the
// statement succeeded, receives its Mem, trace and query ID — and gives
// back the budget, the catalog read lock, the admission slot and the
// cancel. It also unwinds a begin that failed part-way.
func (st *statement) finish(rows *Rows, err error) error {
	if st.finished {
		return st.err
	}
	st.finished = true
	st.err = wrapCanceled(err)
	if st.err != nil {
		rows = nil
	}
	if st.grs != nil {
		st.mem = st.grs.Stats()
		exhausted := err != nil && st.grs.Exhausted()
		st.db.totals.note(st.mem, exhausted)
		st.tel.noteExec(st.plan, st.ectx, st.mem, st.execStart, time.Since(st.execStart))
		if exhausted {
			st.db.cache.evict(st.key)
		}
		st.grs.Close()
		if rows != nil {
			rows.Mem = st.mem
		}
	}
	st.tel.finish(rows, st.err)
	if st.release != nil {
		st.db.mu.RUnlock()
		st.release()
	}
	st.cancel()
	return st.err
}

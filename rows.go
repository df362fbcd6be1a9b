package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// This file is the incremental-consumption side of the Rows API. A Rows
// returned by Query/QueryContext is eager — Data fully materialized —
// and Next/Scan simply cursor over it. A Rows returned by QueryStream /
// QueryStreamContext / Prepared.Stream is live: Next pulls morsel-sized
// batches from the streaming executor (internal/exec.Open), so the
// first rows are available while the scan is still claiming morsels.
// Results, errors, and their order are byte-identical between the two
// modes at any parallelism.

// QueryStream rewrites the SQL under the active cleansing rules and
// begins executing it, returning before the result is complete: iterate
// with Next/Row/Scan and check Err, then Close. See QueryStreamContext.
func (db *DB) QueryStream(sql string, opts ...QueryOption) (*Rows, error) {
	return db.QueryStreamContext(context.Background(), sql, opts...)
}

// QueryStreamContext is QueryStream governed by a context. Execution is
// incremental: compile and admission happen before it returns, but rows
// are produced on demand as Next is called, under the same cancellation,
// memory-budget, and panic-containment semantics as QueryContext —
// checked at batch granularity. Rows.Data stays nil in this mode.
//
// The stream holds the query's admission slot, catalog read lock, and
// memory reservations until it finishes: Close must be called (it is
// idempotent; exhausting the stream or hitting an error also releases
// everything, making a later Close a no-op). Canceling ctx aborts the
// stream cooperatively with an error matching ErrCanceled.
func (db *DB) QueryStreamContext(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	o := applyOpts(opts)
	queryStart := time.Now()
	dctx, cancelDeadline := o.deadline(ctx)
	// Every stream gets a private cancel so Close can stop in-flight
	// engine work promptly, whether or not a deadline was set.
	qctx, cancelQuery := context.WithCancel(dctx)
	cancel := func() { cancelQuery(); cancelDeadline() }
	tel := db.startQuery(sql, o)
	// The stream's private cancel is exactly what Kill needs: it stops
	// in-flight engine work and the consumer sees ErrCanceled from Next.
	tel.activate("query", cancelQuery)
	tel.setPhase("queued")
	admitStart := time.Now()
	release, err := db.admitQuery(qctx)
	if err != nil {
		cancel()
		tel.finish(nil, err)
		return nil, err
	}
	tel.noteAdmit(admitStart, time.Since(admitStart))
	db.mu.RLock()
	key := newCacheKey(sql, o, db.Catalog.Epoch())
	var compileStart time.Time
	if tel != nil {
		tel.setPhase("compile")
		compileStart = time.Now()
	}
	res, inf, err := db.rewriteCached(sql, o)
	if err != nil {
		db.mu.RUnlock()
		release()
		cancel()
		tel.finish(nil, err)
		return nil, err
	}
	tel.notePhases(res.Phases, inf.CacheHit, compileStart)
	grs := db.resources(o)
	ectx := o.execCtx(qctx).SetResources(grs)
	if tel != nil {
		ectx.EnableStats()
		tel.attachExec(ectx, grs)
		tel.setPhase("stream")
	}
	return newStreamingRows(db, res.OpenStream(ectx), res.Plan, ectx, grs, tel, key, inf, streamHandles{
		qctx:       qctx,
		cancel:     cancel,
		unlock:     db.mu.RUnlock,
		release:    release,
		queryStart: queryStart,
	}), nil
}

// Stream begins executing the prepared plan incrementally; see
// StreamContext.
func (p *Prepared) Stream() (*Rows, error) {
	return p.StreamContext(context.Background())
}

// StreamContext executes the prepared plan as an incremental stream,
// with the same lifecycle as QueryStreamContext (Close required) and
// the same per-run governance as RunContext, including build-side reuse
// for CacheBuild joins.
func (p *Prepared) StreamContext(ctx context.Context) (*Rows, error) {
	queryStart := time.Now()
	qctx, cancel := context.WithCancel(ctx)
	tel := p.db.startQuery(p.sql, p.opts)
	tel.activate("query", cancel)
	tel.setPhase("queued")
	admitStart := time.Now()
	release, err := p.db.admitQuery(qctx)
	if err != nil {
		cancel()
		tel.finish(nil, err)
		return nil, err
	}
	tel.noteAdmit(admitStart, time.Since(admitStart))
	p.db.mu.RLock()
	tel.notePrepared(p.info.CacheHit)
	grs := p.db.resources(p.opts)
	ectx := p.opts.execCtx(qctx).SetResources(grs).EnableBuildReuse(p.db.Catalog.Epoch())
	if tel != nil {
		ectx.EnableStats()
		tel.attachExec(ectx, grs)
		tel.setPhase("stream")
	}
	return newStreamingRows(p.db, exec.Open(ectx, p.plan), p.plan, ectx, grs, tel, p.key, p.info, streamHandles{
		qctx:       qctx,
		cancel:     cancel,
		unlock:     p.db.mu.RUnlock,
		release:    release,
		queryStart: queryStart,
	}), nil
}

// streamHandles bundles the per-query lifecycle obligations a streaming
// Rows must discharge exactly once when it finishes.
type streamHandles struct {
	qctx       context.Context
	cancel     context.CancelFunc
	unlock     func()
	release    func()
	queryStart time.Time
}

// rowsStream is the live half of a streaming Rows: the executor
// iterator plus everything finish must settle — telemetry, resource
// accounting, the catalog read lock, and the admission slot.
type rowsStream struct {
	db     *DB
	stream exec.Stream
	plan   exec.Node
	ectx   *exec.Ctx
	grs    *govern.Resources
	tel    *qtel
	key    cacheKey
	owned  bool
	streamHandles
	execStart time.Time
	gotFirst  bool
	finished  bool
	err       error
	batch     []schema.Row
	bi        int
}

func newStreamingRows(db *DB, stream exec.Stream, plan exec.Node, ectx *exec.Ctx, grs *govern.Resources, tel *qtel, key cacheKey, inf RewriteInfo, h streamHandles) *Rows {
	rows := &Rows{Rewrite: inf}
	sch := stream.Schema()
	rows.Columns = make([]string, len(sch.Columns))
	for i, c := range sch.Columns {
		rows.Columns[i] = c.Name
	}
	rows.src = &rowsStream{
		db: db, stream: stream, plan: plan, ectx: ectx, grs: grs, tel: tel,
		key: key, owned: exec.OwnsRows(plan), streamHandles: h, execStart: time.Now(),
	}
	return rows
}

// next advances the cursor by one row, pulling the next executor batch
// when the current one is drained.
func (s *rowsStream) next(r *Rows) bool {
	if s.finished {
		return false
	}
	for s.bi >= len(s.batch) {
		b, err := s.stream.Next()
		if err != nil {
			s.finish(r, err, false)
			return false
		}
		if b == nil {
			s.finish(r, nil, false)
			return false
		}
		if !s.gotFirst {
			s.gotFirst = true
			s.tel.noteFirstRow(time.Since(s.queryStart))
		}
		s.batch, s.bi = b, 0
	}
	row := s.batch[s.bi]
	s.bi++
	if s.owned {
		// The executor's rows are exclusively owned by this query, so the
		// cursor hands them out directly.
		r.cur = []Value(row)
	} else {
		r.cur = append(make([]Value, 0, len(row)), row...)
	}
	return true
}

// finish settles the stream exactly once: it stops engine work, joins
// worker goroutines, records telemetry and resource totals, and gives
// back the catalog lock and admission slot. closing marks an explicit
// Close, where a canceled query context (the client hung up mid-stream)
// is surfaced as the query's outcome instead of a silent "ok".
func (s *rowsStream) finish(r *Rows, err error, closing bool) {
	if s.finished {
		return
	}
	s.finished = true
	if closing && err == nil {
		if cerr := s.qctx.Err(); cerr != nil {
			err = cerr
		}
	}
	s.cancel()
	_ = s.stream.Close()
	mem := s.grs.Stats()
	r.Mem = mem
	s.db.totals.note(mem, err != nil && s.grs.Exhausted())
	if s.tel != nil {
		s.tel.noteMem(mem)
		s.tel.noteExec(s.plan, s.ectx, s.execStart, time.Since(s.execStart))
	}
	if err != nil {
		if s.grs.Exhausted() {
			// Same policy as the materializing path: drop the cached plan
			// so a retry under a raised limit replans fresh.
			s.db.cache.evict(s.key)
		}
		s.err = wrapCanceled(err)
	}
	s.grs.Close()
	if s.err != nil {
		s.tel.finish(nil, s.err)
	} else {
		s.tel.finish(r, nil)
	}
	s.unlock()
	s.release()
}

// Next advances to the next row, returning false at the end of the
// result (or on error — check Err). On an eager Rows it cursors over
// Data; on a streaming Rows it pulls batches from the executor as
// needed. After Next returns true, Row and Scan read the current row.
func (r *Rows) Next() bool {
	if r.src != nil {
		return r.src.next(r)
	}
	if r.pos >= len(r.Data) {
		return false
	}
	r.cur = r.Data[r.pos]
	r.pos++
	return true
}

// Row returns the current row. The slice is valid indefinitely — rows
// handed out by the cursor are never reused by the engine.
func (r *Rows) Row() []Value { return r.cur }

// Err returns the error that terminated a streaming Rows, if any. It is
// nil while rows remain, after a clean end of stream, and always on an
// eager Rows (whose errors surface from Query itself). The error
// matches the same sentinels as the materializing path (ErrCanceled,
// ErrResourceExhausted, ErrInternal, ...).
func (r *Rows) Err() error {
	if r.src != nil {
		return r.src.err
	}
	return nil
}

// Close releases a streaming Rows' resources: in-flight execution is
// canceled, worker goroutines join, memory reservations and spill files
// are released, and the query's admission slot frees. Idempotent, and a
// no-op on eager Rows. If the governing context was canceled mid-stream
// the query's recorded outcome is canceled, even when the consumer
// stopped reading first.
func (r *Rows) Close() error {
	if r.src != nil {
		r.src.finish(r, nil, true)
		r.src.tel.release()
	}
	return nil
}

// StartSpan opens a child span on a streaming result's trace for work
// the consumer does with the rows — the HTTP front end's NDJSON encoding
// — and returns it for the consumer to fill in (Dur, attributes). It
// returns nil when the query is not traced, on an eager Rows, and once
// the stream has finished. Consumer work outlasts the engine's, so while
// such a span is open the trace is held back: the WithTrace hook, the
// slow-query log and the trace exporter receive it at Close instead of
// at end of stream.
func (r *Rows) StartSpan(name string) *Span {
	if r.src == nil || r.src.finished || r.src.tel == nil || r.src.tel.trace == nil {
		return nil
	}
	r.src.tel.held = true
	return r.src.tel.trace.Root.StartChild(name)
}

// Scan copies the current row into dest, one target per column:
// *int64, *float64, *string, *bool, *time.Time, *time.Duration take the
// matching kind (NULL scans as the zero value); *Value takes the engine
// value verbatim; *any takes the natural Go value (nil for NULL).
func (r *Rows) Scan(dest ...any) error {
	row := r.cur
	if row == nil {
		return fmt.Errorf("repro: Scan called without a successful Next")
	}
	if len(dest) != len(row) {
		return fmt.Errorf("repro: Scan expects %d destinations, got %d", len(row), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(row[i], d); err != nil {
			return fmt.Errorf("repro: Scan column %d (%s): %w", i, r.Columns[i], err)
		}
	}
	return nil
}

func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = goValue(v)
		return nil
	case *int64:
		if v.IsNull() {
			*d = 0
			return nil
		}
		if v.Kind() != types.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.Kind())
		}
		*d = v.Int()
		return nil
	case *float64:
		if v.IsNull() {
			*d = 0
			return nil
		}
		switch v.Kind() {
		case types.KindFloat:
			*d = v.Float()
		case types.KindInt:
			*d = float64(v.Int())
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.Kind())
		}
		return nil
	case *string:
		if v.IsNull() {
			*d = ""
			return nil
		}
		if v.Kind() != types.KindString {
			return fmt.Errorf("cannot scan %s into *string", v.Kind())
		}
		*d = v.Str()
		return nil
	case *bool:
		if v.IsNull() {
			*d = false
			return nil
		}
		if v.Kind() != types.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.Kind())
		}
		*d = v.Bool()
		return nil
	case *time.Time:
		if v.IsNull() {
			*d = time.Time{}
			return nil
		}
		if v.Kind() != types.KindTime {
			return fmt.Errorf("cannot scan %s into *time.Time", v.Kind())
		}
		*d = time.UnixMicro(v.TimeUsec()).UTC()
		return nil
	case *time.Duration:
		if v.IsNull() {
			*d = 0
			return nil
		}
		if v.Kind() != types.KindInterval {
			return fmt.Errorf("cannot scan %s into *time.Duration", v.Kind())
		}
		*d = time.Duration(v.IntervalUsec()) * time.Microsecond
		return nil
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
}

// goValue maps an engine value to its natural Go representation.
func goValue(v Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindTime:
		return time.UnixMicro(v.TimeUsec()).UTC()
	case types.KindInterval:
		return time.Duration(v.IntervalUsec()) * time.Microsecond
	default:
		return v.String()
	}
}

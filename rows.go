package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
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
	return (&statement{db: db, sql: sql, o: o, args: o.params}).stream(ctx)
}

// Stream begins executing the prepared plan incrementally, args binding
// its placeholders; see StreamContext.
func (p *Prepared) Stream(args ...Value) (*Rows, error) {
	return p.StreamContext(context.Background(), args...)
}

// StreamContext executes the prepared plan as an incremental stream,
// with the same lifecycle as QueryStreamContext (Close required) and
// the same per-run governance as RunContext.
func (p *Prepared) StreamContext(ctx context.Context, args ...Value) (*Rows, error) {
	return p.statement(args).stream(ctx)
}

// rowsStream is the live half of a streaming Rows: the executor iterator
// and the statement it runs under, which the cursor finishes when the
// stream ends.
type rowsStream struct {
	st       *statement
	stream   exec.Stream
	owned    bool
	gotFirst bool
	batch    []schema.Row
	bi       int
}

func newStreamingRows(st *statement, stream exec.Stream) *Rows {
	rows := &Rows{Rewrite: st.info, id: st.tel.queryID()}
	sch := stream.Schema()
	rows.Columns = make([]string, len(sch.Columns))
	for i, c := range sch.Columns {
		rows.Columns[i] = c.Name
	}
	rows.src = &rowsStream{st: st, stream: stream, owned: exec.OwnsRows(st.plan)}
	return rows
}

// next advances the cursor by one row, pulling the next executor batch
// when the current one is drained.
func (s *rowsStream) next(r *Rows) bool {
	if s.st.finished {
		return false
	}
	for s.bi >= len(s.batch) {
		b, err := s.stream.Next()
		if err != nil || b == nil {
			s.finish(r, err)
			return false
		}
		if !s.gotFirst {
			s.gotFirst = true
			s.st.tel.noteFirstRow(time.Since(s.st.start))
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

// finish stops engine work, joins the worker goroutines and settles the
// statement with err as the stream's outcome; a no-op once settled.
func (s *rowsStream) finish(r *Rows, err error) {
	if s.st.finished {
		return
	}
	s.st.cancel()
	_ = s.stream.Close()
	s.st.finish(r, err)
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
		return r.src.st.err
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
	if s := r.src; s != nil {
		// The context is read before finish cancels it: a stream closed
		// after its client hung up (or its deadline passed) is a canceled
		// query, not a silent "ok".
		s.finish(r, s.st.ctx.Err())
		s.st.tel.release()
	}
	return nil
}

// QueryID returns the ID the engine ran this query under — the one
// ActiveQueries, Kill, the slow-query log and exported traces use. It is
// zero on a DB opened with WithoutTelemetry.
func (r *Rows) QueryID() QueryID { return r.id }

// StartSpan opens a child span on a streaming result's trace for work
// the consumer does with the rows — the HTTP front end's NDJSON encoding
// — and returns it for the consumer to fill in (Dur, attributes). It
// returns nil when the query is not traced, on an eager Rows, and once
// the stream has finished. Consumer work outlasts the engine's, so while
// such a span is open the trace is held back: the WithTrace hook, the
// slow-query log and the trace exporter receive it at Close instead of
// at end of stream.
func (r *Rows) StartSpan(name string) *Span {
	if r.src == nil || r.src.st.finished || r.src.st.tel == nil || r.src.st.tel.trace == nil {
		return nil
	}
	r.src.st.tel.held = true
	return r.src.st.tel.trace.Root.StartChild(name)
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

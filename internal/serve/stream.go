package serve

import (
	"net/http"
	"time"

	"repro"
	"repro/internal/obs"
)

// The streaming result format is newline-delimited JSON (NDJSON,
// Content-Type application/x-ndjson) over chunked transfer encoding:
//
//	{"query_id":"q-00000007","columns":["site","c"]}
//	{"rows":[["dc-3",120],["dc-1",98]]}
//	{"rows":[["dc-0",41]]}
//	{"status":"ok","row_count":3,"strategy":"expanded","cache_hit":true,"elapsed_ms":4.21}
//
// The writer flushes after the header and after every row chunk, so a
// client sees the first rows while later chunks are still being encoded
// and a large result never occupies one contiguous response buffer on
// the server. The terminal object always carries "status"; a client that
// never sees one knows the stream was cut. docs/WIRE.md specifies the
// format in full.

// streamHeader is the first NDJSON object of a result stream.
type streamHeader struct {
	QueryID string   `json:"query_id"`
	Columns []string `json:"columns"`
}

// streamFooter terminates a successful stream.
type streamFooter struct {
	Status    string  `json:"status"` // always "ok"
	RowCount  int     `json:"row_count"`
	Strategy  string  `json:"strategy"`
	CacheHit  bool    `json:"cache_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorBody is the JSON body of every error response — and, when the
// failure happens after the stream header was written, the terminal
// NDJSON object of the stream.
type errorBody struct {
	Status  string `json:"status"` // always "error"
	Code    string `json:"code"`
	Error   string `json:"error"`
	QueryID string `json:"query_id,omitempty"`
}

// streamLive pulls rows from a streaming result and writes them as an
// NDJSON stream, chunkRows rows per chunk, while the engine is still
// producing: each chunk is flushed as soon as it fills, so a client
// reads the first rows before the scan finishes. Rows are gathered by
// reference and a full chunk goes through the append encoder (encode.go)
// into one pooled buffer, then out in one Write and one Flush — nothing
// is allocated per row or per cell. The response's encoding account is
// published and the stream closed, which delivers the query's trace,
// before the footer goes out: a client that has read the footer finds
// the query fully recorded. The query_id on the wire is the engine's
// statement ID — the one /v1/queries lists and DELETE /v1/queries/{id}
// accepts; only a DB without telemetry, which has none, gets a
// server-minted one.
func (s *Server) streamLive(w http.ResponseWriter, r *http.Request, rows *repro.Rows, start time.Time) {
	defer rows.Close() // a panic below must not strand the query's slot and locks
	qid := rows.QueryID()
	if qid == 0 {
		qid = obs.NextQueryID()
	}
	enc := chunkEncoders.Get().(*chunkEncoder)
	defer enc.release()
	ok := s.streamRows(w, r, qid, rows, enc)
	count := enc.settle(s.metrics)
	rows.Close()
	if !ok {
		return
	}
	s.cfg.Logger.Debug("query", "query_id", qid, "rows", count, "elapsed", time.Since(start))
	footer := streamFooter{
		Status:    "ok",
		RowCount:  count,
		Strategy:  rows.Rewrite.Strategy.String(),
		CacheHit:  rows.Rewrite.CacheHit,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	_ = enc.writeLine(w, func(b []byte) []byte { return appendFooter(b, footer) })
}

// streamRows writes the stream up to the footer and reports whether the
// footer is due. The HTTP status and stream header are deferred until
// the first row (or a clean empty result), so an engine error that
// strikes before any row — a crossed memory budget at a sort's
// reservation, a bad plan — still maps to its real HTTP status. Past the
// header the status is committed; a failure then terminates the stream
// with an errorBody object instead of the footer. Write errors mean the
// client hung up: the stream is abandoned after a bounded wait for the
// request context to cancel, so the query's recorded outcome is
// "canceled", not "ok".
func (s *Server) streamRows(w http.ResponseWriter, r *http.Request, qid obs.QueryID, rows *repro.Rows, enc *chunkEncoder) bool {
	flusher, _ := w.(http.Flusher)
	headerSent := false
	sendHeader := func() bool {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Query-Id", qid.String())
		header := streamHeader{QueryID: qid.String(), Columns: rows.Columns}
		if err := enc.writeLine(w, func(b []byte) []byte { return appendHeader(b, header) }); err != nil {
			awaitDisconnect(r)
			return false
		}
		headerSent = true
		enc.span = rows.StartSpan("encode")
		return true
	}
	flushChunk := func() bool {
		if err := enc.flush(w, flusher); err != nil {
			awaitDisconnect(r)
			return false
		}
		return true
	}
	for rows.Next() {
		if !headerSent && !sendHeader() {
			return false
		}
		enc.rows = append(enc.rows, rows.Row())
		if len(enc.rows) >= s.cfg.ChunkRows && !flushChunk() {
			return false
		}
	}
	if err := rows.Err(); err != nil {
		if !headerSent {
			s.writeErr(w, qid, err)
			return false
		}
		code := repro.Code(err)
		if statusOf(code, err) >= 500 {
			s.cfg.Logger.Error("query failed mid-stream", "query_id", qid, "code", code, "err", err)
		}
		body := errorBody{Status: "error", Code: code, Error: err.Error(), QueryID: qid.String()}
		_ = enc.writeLine(w, func(b []byte) []byte { return appendError(b, body) })
		return false
	}
	return (headerSent || sendHeader()) && flushChunk()
}

// awaitDisconnect blocks, bounded, until net/http observes the dropped
// connection and cancels the request context. A write error races the
// context cancellation; waiting for it here lets the engine see the
// cancel before the stream closes, so the query's telemetry outcome
// reflects the disconnect.
func awaitDisconnect(r *http.Request) {
	select {
	case <-r.Context().Done():
	case <-time.After(2 * time.Second):
	}
}

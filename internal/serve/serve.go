// Package serve is the HTTP front end of the deferred-cleansing engine:
// it puts the repro facade on a wire so the cleansing service can be a
// long-running process serving many remote clients, not an in-process
// library.
//
// Endpoints (docs/WIRE.md has the full protocol):
//
//	POST   /v1/query                      one-shot query, NDJSON row stream
//	POST   /v1/ingest                     durable batch append (200 = durable per fsync policy)
//	POST   /v1/prepare                    prepare a statement in a session
//	POST   /v1/sessions/{id}/run/{stmt}   run a prepared statement
//	GET    /v1/sessions/{id}              session introspection
//	DELETE /v1/sessions/{id}              drop a session
//	GET    /v1/queries                    active statements with live operator counts
//	DELETE /v1/queries/{id}               kill a running statement
//	GET    /healthz                       liveness (200 while the process runs)
//	GET    /readyz                        readiness (503 once draining)
//	GET    /metrics                       the DB's metrics registry
//
// The engine's governance becomes wire semantics: admission-control
// rejection (repro.ErrOverloaded) maps to 429 with Retry-After, a memory
// budget crossed with spilling off (ErrResourceExhausted) to 413, a
// contained worker panic (ErrInternal) to 500 carrying the query ID, and
// a dropped client connection cancels the query through the engine's
// cooperative-cancellation paths via the request context. Graceful drain
// (Server.Drain, wired to SIGTERM in cmd/rfidserve) stops admitting new
// queries, flips /readyz to 503 so load balancers steer away, and waits
// for in-flight queries up to a deadline.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
)

// Server-level error codes, in the same namespace as repro.Code's engine
// codes. They classify failures that never reach the engine.
const (
	// CodeBadRequest: the request body is not valid JSON, is too large,
	// or names an unknown strategy.
	CodeBadRequest = "bad_request"
	// CodeDraining: the server is shutting down and admits no new queries.
	CodeDraining = "draining"
	// CodeNoSession: the session id is unknown — never created, explicitly
	// dropped, or evicted after idling past the session timeout.
	CodeNoSession = "session_not_found"
	// CodeNoStatement: the session exists but the statement id doesn't.
	CodeNoStatement = "statement_not_found"
	// CodeStarting: the server is up but its DB is still recovering
	// (Config.Ready reports false); retry shortly.
	CodeStarting = "starting"
)

// StatusClientClosedRequest is the non-standard 499 status (popularized
// by nginx) reported when a query died because its client hung up. The
// client is usually gone by the time it is written; it exists for access
// logs and middleboxes.
const StatusClientClosedRequest = 499

// Config assembles a Server.
type Config struct {
	// DB is the engine to serve. Required.
	DB *repro.DB

	// Logger receives request-level logs. nil discards them.
	Logger *slog.Logger

	// SessionIdleTimeout evicts sessions unused for this long
	// (default 5m).
	SessionIdleTimeout time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight queries
	// before giving up (default 30s). Drain's own context can only
	// shorten it.
	DrainTimeout time.Duration

	// RetryAfter is the hint sent with every 429 (default 1s; rendered in
	// whole seconds, floored at 1).
	RetryAfter time.Duration

	// MaxBodyBytes caps request bodies (default 1MiB).
	MaxBodyBytes int64

	// ChunkRows is the number of result rows per streamed NDJSON chunk
	// (default 256).
	ChunkRows int

	// QueryOptions are applied to every query and prepare before the
	// request's own options — engine-wide defaults such as a server-side
	// timeout, or fault injection in tests.
	QueryOptions []repro.QueryOption

	// Ready gates readiness on startup work: while it returns false,
	// /readyz answers 503 and query/ingest requests get 503 "starting",
	// so load balancers hold traffic until WAL replay (or any other
	// warm-up the embedder runs) finishes. nil means ready immediately.
	// OpenDir recovers synchronously, so rfidserve itself is ready by the
	// time it listens; the gate exists for embedders that construct the
	// Server before (or while) opening the DB.
	Ready func() bool
}

// Server is one HTTP front end over one DB.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sessions *sessionTable
	metrics  *httpMetrics // nil without telemetry

	httpSrv *http.Server
	lis     net.Listener

	draining  atomic.Bool
	inflight  sync.WaitGroup
	drainOnce sync.Once
	drainErr  error
}

// New builds a Server (not yet listening; use Handler for a caller-owned
// listener/mux, or Listen+Serve).
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("serve: Config.DB is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.SessionIdleTimeout <= 0 {
		cfg.SessionIdleTimeout = 5 * time.Minute
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 256
	}
	s := &Server{cfg: cfg, sessions: newSessionTable(cfg.SessionIdleTimeout), metrics: newHTTPMetrics(cfg.DB)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.counted("/v1/query", s.governed(s.handleQuery)))
	mux.HandleFunc("POST /v1/ingest", s.counted("/v1/ingest", s.governed(s.handleIngest)))
	mux.HandleFunc("POST /v1/prepare", s.counted("/v1/prepare", s.governed(s.handlePrepare)))
	mux.HandleFunc("POST /v1/sessions/{id}/run/{stmt}", s.counted("/v1/sessions/{id}/run/{stmt}", s.governed(s.handleRun)))
	mux.HandleFunc("GET /v1/queries", s.counted("/v1/queries", s.handleQueries))
	mux.HandleFunc("DELETE /v1/queries/{id}", s.counted("/v1/queries/{id}", s.handleKill))
	mux.HandleFunc("GET /v1/sessions/{id}", s.counted("/v1/sessions/{id}", s.handleSessionInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.counted("/v1/sessions/{id}", s.handleSessionDrop))
	mux.HandleFunc("GET /healthz", s.counted("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", s.counted("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		if !s.ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "starting")
			return
		}
		fmt.Fprintln(w, "ready")
	}))
	mux.Handle("GET /metrics", http.HandlerFunc(s.counted("/metrics", cfg.DB.MetricsHandler().ServeHTTP)))
	s.mux = mux
	return s
}

// httpMetrics is the server's own metric families.
type httpMetrics struct {
	requests *obs.CounterVec2 // repro_http_requests_total{route,status}
	bytes    *obs.CounterVec  // repro_http_response_bytes_total{route}
	encode   *obs.Histogram   // repro_http_encode_seconds
}

// newHTTPMetrics registers the server's families on the DB's metrics
// registry, so they show up on /metrics next to the engine's. nil
// (metrics off) when the DB was opened WithoutTelemetry. A second Server
// over the same DB would re-register the families — the registry treats
// duplicate names as bugs — so that server serves unmetered instead of
// panicking.
func newHTTPMetrics(db *repro.DB) (m *httpMetrics) {
	reg := db.Metrics()
	if reg == nil {
		return nil
	}
	defer func() {
		if recover() != nil {
			m = nil
		}
	}()
	return &httpMetrics{
		requests: reg.CounterVec2("repro_http_requests_total",
			"HTTP requests served, by route pattern and response status code.",
			"route", "status"),
		bytes: reg.CounterVec("repro_http_response_bytes_total",
			"Response body bytes written, by route pattern.",
			"route"),
		encode: reg.Histogram("repro_http_encode_seconds",
			"Time spent encoding and writing result row chunks, per streamed response.",
			obs.DefLatencyBuckets),
	}
}

// counted wraps a handler to record one repro_http_requests_total sample
// per request, labeled by the route pattern and the final status code,
// and the response's body bytes. The wrapper keeps the response writer's
// Flusher behavior, which the NDJSON streamer depends on.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.metrics == nil {
			h(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.flusher, _ = w.(http.Flusher)
		h(sw, r)
		s.metrics.requests.With(route, strconv.Itoa(sw.status)).Inc()
		s.metrics.bytes.With(route).Add(sw.bytes)
	}
}

// statusWriter captures the status code a handler commits to and counts
// the body bytes it writes. Implicit 200s (a body written without
// WriteHeader) keep the initial value.
type statusWriter struct {
	http.ResponseWriter
	flusher http.Flusher // nil when the underlying writer cannot flush
	status  int
	bytes   int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streamed responses keep
// their per-chunk delivery.
func (w *statusWriter) Flush() {
	if w.flusher != nil {
		w.flusher.Flush()
	}
}

// Handler returns the server's routing tree for mounting on a
// caller-owned listener (tests use it with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (e.g. ":8080", "127.0.0.1:0") without serving yet,
// so callers can learn the bound address before traffic starts.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.mux}
	return lis.Addr(), nil
}

// Serve accepts connections on the Listen-bound listener until Drain or
// Close. Like http.Server.Serve it returns http.ErrServerClosed on a
// clean shutdown.
func (s *Server) Serve() error {
	if s.httpSrv == nil {
		return errors.New("serve: Serve before Listen")
	}
	return s.httpSrv.Serve(s.lis)
}

// Addr reports the bound address, or "" before Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain shuts the server down gracefully: it stops admitting new
// queries (409-free — they get 503 draining), flips /readyz to 503 so
// load balancers steer away, waits for in-flight queries up to the
// sooner of ctx's deadline and Config.DrainTimeout, then closes the
// listener. It returns nil when every in-flight query finished, or the
// deadline's error when some were abandoned. Repeat calls return the
// first call's result.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.sessions.close()
		ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = ctx.Err()
		}
		if s.httpSrv != nil {
			// In-flight queries are done (or abandoned); Shutdown closes the
			// listener and waits for response bodies still being written.
			if err := s.httpSrv.Shutdown(ctx); err != nil && s.drainErr == nil {
				s.drainErr = err
			}
		}
		s.cfg.Logger.Info("rfidserve: drained", "err", s.drainErr)
	})
	return s.drainErr
}

// Close shuts down immediately: no waiting for in-flight queries. Tests
// and error paths use it; production exits through Drain.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.sessions.close()
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}

// governed wraps a query-serving handler with the drain gate and
// in-flight tracking. Add-then-check closes the race against Drain: a
// request that slipped past the flag is either counted (so Drain waits
// for it) or bounced.
func (s *Server) governed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		if s.draining.Load() {
			s.writeCode(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
			return
		}
		if !s.ready() {
			s.writeCode(w, http.StatusServiceUnavailable, CodeStarting, "server is starting (recovery in progress)", 0)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	}
}

// ready reports the Config.Ready gate (true when none is configured).
func (s *Server) ready() bool { return s.cfg.Ready == nil || s.cfg.Ready() }

// queryRequest is the body of /v1/query and /v1/prepare.
type queryRequest struct {
	SQL string `json:"sql"`
	// Strategy: auto (default), naive, expanded, join-back, dirty.
	Strategy string `json:"strategy,omitempty"`
	// Rules restricts cleansing to the named rules.
	Rules []string `json:"rules,omitempty"`
	// TimeoutMS bounds rewrite+execution; composes with the server-side
	// default (the shorter wins).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Parallelism caps this query's worker-pool width.
	Parallelism int `json:"parallelism,omitempty"`
	// MemoryLimitBytes overrides the engine's default per-query budget.
	MemoryLimitBytes int64 `json:"memory_limit_bytes,omitempty"`
	// NoSpill fails fast with 413 instead of degrading to disk.
	NoSpill bool `json:"no_spill,omitempty"`
	// Session targets an existing session on /v1/prepare; empty creates
	// one. Ignored on /v1/query.
	Session string `json:"session,omitempty"`
	// Params binds the statement's $1, $2, … on /v1/query.
	Params []any `json:"params,omitempty"`
}

// runRequest is the optional body of a prepared-statement run.
type runRequest struct {
	Params []any `json:"params,omitempty"`
}

// paramValues converts JSON placeholder values to engine values: strings,
// numbers (integral ones as INT), booleans and null. The engine coerces
// each to the kind of the column it is compared with — an RFC 3339
// string to TIME, say.
func paramValues(raw []any) ([]repro.Value, error) {
	out := make([]repro.Value, len(raw))
	for i, v := range raw {
		switch v := v.(type) {
		case nil:
			out[i] = repro.Null
		case bool:
			out[i] = repro.NewBool(v)
		case string:
			out[i] = repro.NewString(v)
		case json.Number:
			if n, err := v.Int64(); err == nil {
				out[i] = repro.NewInt(n)
			} else if f, err := v.Float64(); err == nil {
				out[i] = repro.NewFloat(f)
			} else {
				return nil, fmt.Errorf("params[%d]: bad number %s", i, v)
			}
		default:
			return nil, fmt.Errorf("params[%d]: want a string, number, boolean or null", i)
		}
	}
	return out, nil
}

// options translates the request into engine query options, appended
// after the server-wide defaults so the request wins where they overlap.
func (q *queryRequest) options(base []repro.QueryOption) ([]repro.QueryOption, error) {
	opts := append([]repro.QueryOption{}, base...)
	switch q.Strategy {
	case "", "auto":
	case "naive":
		opts = append(opts, repro.WithStrategy(repro.Naive))
	case "expanded":
		opts = append(opts, repro.WithStrategy(repro.Expanded))
	case "join-back", "join_back", "joinback":
		opts = append(opts, repro.WithStrategy(repro.JoinBack))
	case "dirty":
		opts = append(opts, repro.WithStrategy(repro.Dirty))
	default:
		return nil, fmt.Errorf("unknown strategy %q", q.Strategy)
	}
	if len(q.Rules) > 0 {
		opts = append(opts, repro.WithRules(q.Rules...))
	}
	if q.TimeoutMS > 0 {
		opts = append(opts, repro.WithTimeout(time.Duration(q.TimeoutMS)*time.Millisecond))
	}
	if q.Parallelism > 0 {
		opts = append(opts, repro.WithParallelism(q.Parallelism))
	}
	if q.MemoryLimitBytes > 0 {
		opts = append(opts, repro.WithMemoryLimit(q.MemoryLimitBytes))
	}
	if q.NoSpill {
		opts = append(opts, repro.WithoutSpill())
	}
	if len(q.Params) > 0 {
		vals, err := paramValues(q.Params)
		if err != nil {
			return nil, err
		}
		opts = append(opts, repro.WithParams(vals...))
	}
	return opts, nil
}

// decode parses a JSON request body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		s.writeCode(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: "+err.Error(), 0)
		return false
	}
	return true
}

// handleQuery runs one query under the request's context — a client that
// disconnects mid-query cancels it through the engine's cooperative
// cancellation — and streams the result.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.options(s.cfg.QueryOptions)
	if err != nil {
		s.writeCode(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	start := time.Now()
	rows, err := s.cfg.DB.QueryStreamContext(r.Context(), req.SQL, opts...)
	if err != nil {
		s.writeErr(w, obs.NextQueryID(), err)
		return
	}
	s.streamLive(w, r, rows, start)
}

// prepareResponse is the body of a successful /v1/prepare.
// prepareResponse answers /v1/prepare. A statement with placeholders
// plans at each run, so it reports how many values a run takes instead
// of a strategy and cache outcome.
type prepareResponse struct {
	Session       string `json:"session"`
	Statement     string `json:"statement"`
	Strategy      string `json:"strategy,omitempty"`
	CacheHit      *bool  `json:"cache_hit,omitempty"`
	Params        int    `json:"params,omitempty"`
	IdleTimeoutMS int64  `json:"idle_timeout_ms"`
}

// handlePrepare compiles a statement into a session (creating the
// session unless the request names an existing one).
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.options(s.cfg.QueryOptions)
	if err != nil {
		s.writeCode(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	var sess *session
	if req.Session != "" {
		var ok bool
		if sess, ok = s.sessions.get(req.Session); !ok {
			s.writeCode(w, http.StatusNotFound, CodeNoSession, "no such session: "+req.Session, 0)
			return
		}
		sess.touch()
	}
	p, err := s.cfg.DB.PrepareContext(r.Context(), req.SQL, opts...)
	if err != nil {
		s.writeErr(w, obs.NextQueryID(), err)
		return
	}
	if sess == nil {
		sess = s.sessions.create()
	}
	stmtID := sess.addStmt(p, req.SQL)
	resp := prepareResponse{
		Session:       sess.id,
		Statement:     stmtID,
		Params:        p.NumParams(),
		IdleTimeoutMS: s.cfg.SessionIdleTimeout.Milliseconds(),
	}
	if resp.Params == 0 {
		inf := p.Rewrite()
		resp.Strategy, resp.CacheHit = inf.Strategy.String(), &inf.CacheHit
	}
	s.cfg.Logger.Debug("prepare", "session", sess.id, "statement", stmtID, "strategy", resp.Strategy, "params", resp.Params)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleRun executes a prepared statement, streaming like /v1/query.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeCode(w, http.StatusNotFound, CodeNoSession, "no such session: "+r.PathValue("id"), 0)
		return
	}
	p, ok := sess.stmt(r.PathValue("stmt"))
	if !ok {
		s.writeCode(w, http.StatusNotFound, CodeNoStatement, "no such statement: "+r.PathValue("stmt"), 0)
		return
	}
	var req runRequest
	if r.ContentLength != 0 {
		if !s.decode(w, r, &req) {
			return
		}
	}
	args, err := paramValues(req.Params)
	if err != nil {
		s.writeCode(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	start := time.Now()
	rows, err := p.StreamContext(r.Context(), args...)
	if err != nil {
		s.writeErr(w, obs.NextQueryID(), err)
		return
	}
	s.streamLive(w, r, rows, start)
}

// sessionInfo is the body of GET /v1/sessions/{id}.
type sessionInfo struct {
	Session       string            `json:"session"`
	Statements    map[string]string `json:"statements"`
	IdleTimeoutMS int64             `json:"idle_timeout_ms"`
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeCode(w, http.StatusNotFound, CodeNoSession, "no such session: "+r.PathValue("id"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(sessionInfo{
		Session:       sess.id,
		Statements:    sess.statements(),
		IdleTimeoutMS: s.cfg.SessionIdleTimeout.Milliseconds(),
	})
}

func (s *Server) handleSessionDrop(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		s.writeCode(w, http.StatusNotFound, CodeNoSession, "no such session: "+r.PathValue("id"), 0)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statusOf maps a repro.Code onto an HTTP status. Cancellation splits on
// cause: a deadline (server- or request-set timeout) is a 504 the client
// will actually read; a canceled context means the client hung up, so
// the 499 is for the access log.
func statusOf(code string, err error) int {
	switch code {
	case repro.CodeOverloaded:
		return http.StatusTooManyRequests
	case repro.CodeResourceExhausted:
		return http.StatusRequestEntityTooLarge
	case repro.CodeCanceled:
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return StatusClientClosedRequest
	case repro.CodeInternal:
		return http.StatusInternalServerError
	case repro.CodeNoTable, repro.CodeUnknownRule, repro.CodeInvalid:
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeErr renders an engine error: stable code, matching HTTP status,
// Retry-After on 429, and the query ID (load-bearing on 500 — it is the
// handle support uses to find the panic stack in the logs).
func (s *Server) writeErr(w http.ResponseWriter, qid obs.QueryID, err error) {
	code := repro.Code(err)
	status := statusOf(code, err)
	if errors.Is(err, repro.ErrParams) {
		code, status = CodeBadRequest, http.StatusBadRequest
	}
	if status == http.StatusTooManyRequests {
		secs := max(int64(s.cfg.RetryAfter/time.Second), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	if status >= 500 {
		s.cfg.Logger.Error("query failed", "query_id", qid, "code", code, "err", err)
	}
	s.writeCode(w, status, code, err.Error(), qid)
}

// writeCode renders one JSON error body. qid 0 omits the query_id field
// (server-level failures never reached the engine).
func (s *Server) writeCode(w http.ResponseWriter, status int, code, msg string, qid obs.QueryID) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := errorBody{Status: "error", Code: code, Error: msg}
	if qid != 0 {
		body.QueryID = qid.String()
	}
	_, _ = w.Write(appendError(nil, body))
}

package serve

// Wire-semantics tests: the engine's governance surfaced as HTTP
// behavior. Run with -race — the disconnect and drain tests exist to
// prove no goroutine outlives its query.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newTestDB builds a DB with one small table t(a INT, s STRING).
func newTestDB(t *testing.T, rows int, opts ...repro.Option) *repro.DB {
	t.Helper()
	db := repro.Open(opts...)
	if err := db.CreateTable("t",
		repro.ColumnDef{Name: "a", Kind: repro.KindInt},
		repro.ColumnDef{Name: "s", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	data := make([][]repro.Value, 0, rows)
	for i := 0; i < rows; i++ {
		data = append(data, []repro.Value{
			repro.NewInt(int64(i)),
			repro.NewString(fmt.Sprintf("row-%03d", i)),
		})
	}
	if err := db.Insert("t", data...); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer stands a Server up behind httptest.
func newTestServer(t *testing.T, db *repro.DB, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{DB: db, DrainTimeout: 10 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { s.sessions.close() })
	return s, hs
}

// post sends one JSON request and returns the response with its body.
func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// ndjson splits a streamed body into decoded objects.
func ndjson(t *testing.T, payload []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(payload), []byte("\n")) {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, obj)
	}
	return out
}

// errCode decodes an error body's code.
func errCode(t *testing.T, payload []byte) string {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(payload, &e); err != nil {
		t.Fatalf("bad error body %q: %v", payload, err)
	}
	return e.Code
}

func TestQueryStreamsChunkedNDJSON(t *testing.T) {
	db := newTestDB(t, 5)
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 2 })
	resp, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT a, s FROM t ORDER BY a"})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	if resp.Header.Get("X-Query-Id") == "" {
		t.Fatal("missing X-Query-Id header")
	}
	objs := ndjson(t, payload)
	// header + ceil(5/2)=3 chunks + footer = 5 objects.
	if len(objs) != 5 {
		t.Fatalf("stream has %d objects, want 5 (chunking broken): %v", len(objs), objs)
	}
	head := objs[0]
	if cols := head["columns"].([]any); len(cols) != 2 || cols[0] != "a" || cols[1] != "s" {
		t.Fatalf("header columns = %v", head["columns"])
	}
	var rows [][]any
	for _, chunk := range objs[1 : len(objs)-1] {
		for _, r := range chunk["rows"].([]any) {
			rows = append(rows, r.([]any))
		}
	}
	if len(rows) != 5 {
		t.Fatalf("streamed %d rows, want 5", len(rows))
	}
	if rows[3][0].(float64) != 3 || rows[3][1].(string) != "row-003" {
		t.Fatalf("row 3 = %v", rows[3])
	}
	foot := objs[len(objs)-1]
	if foot["status"] != "ok" || foot["row_count"].(float64) != 5 {
		t.Fatalf("footer = %v", foot)
	}
	if foot["strategy"] == "" || foot["elapsed_ms"] == nil {
		t.Fatalf("footer missing strategy/elapsed: %v", foot)
	}
}

func TestErrorCodesOnTheWire(t *testing.T) {
	db := newTestDB(t, 3)
	_, hs := newTestServer(t, db, nil)
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"parse error", `{"sql":"SELECT FROM WHERE"}`, 400, repro.CodeInvalid},
		{"no such table", `{"sql":"SELECT * FROM nope"}`, 400, repro.CodeNoTable},
		{"unknown rule", `{"sql":"SELECT a FROM t","rules":["ghost"]}`, 400, repro.CodeUnknownRule},
		{"bad strategy", `{"sql":"SELECT a FROM t","strategy":"psychic"}`, 400, CodeBadRequest},
		{"bad json", `{"sql":`, 400, CodeBadRequest},
		{"unknown field", `{"sql":"SELECT a FROM t","bogus":1}`, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, payload)
			}
			if got := errCode(t, payload); got != tc.code {
				t.Fatalf("code = %q, want %q", got, tc.code)
			}
		})
	}
}

// TestOverloadedBackpressure saturates admission (limit 1, queue 0) with
// a slow direct query and asserts the wire translation: 429, Retry-After,
// code "overloaded".
func TestOverloadedBackpressure(t *testing.T) {
	db := newTestDB(t, 64, repro.WithMaxConcurrent(1), repro.WithAdmissionQueue(0))
	_, hs := newTestServer(t, db, nil)

	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		// Hold the only admission slot: every operator entry sleeps, and
		// the release channel below keeps the hold deterministic.
		_, err := db.Query("SELECT a FROM t ORDER BY a",
			repro.WithFaults(repro.FaultInjection{SlowOp: 50 * time.Millisecond}))
		errc <- err
		<-release
	}()
	waitFor(t, time.Second, func() bool { return db.ResourceStats().Admission.Running == 1 })

	resp, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT a FROM t"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := errCode(t, payload); got != repro.CodeOverloaded {
		t.Fatalf("code = %q, want overloaded", got)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
}

// TestResourceExhausted413 sends a query whose 1-byte budget cannot hold
// its sort with spilling disabled.
func TestResourceExhausted413(t *testing.T) {
	db := newTestDB(t, 256)
	_, hs := newTestServer(t, db, nil)
	resp, payload := post(t, hs.URL+"/v1/query", map[string]any{
		"sql": "SELECT a, s FROM t ORDER BY s", "memory_limit_bytes": 1, "no_spill": true,
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, payload)
	}
	if got := errCode(t, payload); got != repro.CodeResourceExhausted {
		t.Fatalf("code = %q, want resource_exhausted", got)
	}
	var e errorBody
	_ = json.Unmarshal(payload, &e)
	if e.QueryID == "" {
		t.Fatal("413 body missing query_id")
	}
}

// TestClientDisconnectCancelsQuery drops the client mid-query and
// asserts the request context cancels it through the engine's
// cooperative-cancel paths, leaving no goroutine behind (-race).
func TestClientDisconnectCancelsQuery(t *testing.T) {
	db := newTestDB(t, 64)
	_, hs := newTestServer(t, db, func(c *Config) {
		c.QueryOptions = []repro.QueryOption{
			repro.WithFaults(repro.FaultInjection{SlowOp: 100 * time.Millisecond}),
		}
	})
	before := runtime.NumGoroutine()

	canceled, ok := counter(db, "canceled")
	if !ok {
		t.Fatal("repro_queries_total{canceled} not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	body := strings.NewReader(`{"sql":"SELECT a, s FROM t ORDER BY a"}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded; want client-side cancellation")
	}
	// The engine must observe the cancellation (outcome counter moves)…
	waitFor(t, 5*time.Second, func() bool {
		now, _ := counter(db, "canceled")
		return now > canceled
	})
	// …and every worker goroutine must unwind.
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// counter reads repro_queries_total for one outcome label.
func counter(db *repro.DB, outcome string) (float64, bool) {
	return db.Metrics().CounterValue("repro_queries_total", outcome)
}

// TestStreamHeaderBeforeCompletion proves the wire is live, not
// store-and-forward: the client holds the stream header and first chunk
// in hand while the query is still running. A large scan with one-row
// chunks fills the TCP buffers long before the result is done, so the
// handler blocks on write mid-query; at that point the client has the
// first rows, the admission slot is still held, and no outcome has been
// recorded. Draining the rest then yields the full footer.
func TestStreamHeaderBeforeCompletion(t *testing.T) {
	const total = 60000
	db := newTestDB(t, total, repro.WithMaxConcurrent(8))
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 1 })

	okBefore, _ := counter(db, "ok")
	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT a, s FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	head, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(head, `"columns"`) {
		t.Fatalf("first line is not the stream header: %q", head)
	}
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, `"rows"`) {
		t.Fatalf("second line is not a row chunk: %q", first)
	}
	// Header and first rows are client-side; the query must still be in
	// flight: slot held, no recorded outcome.
	if running := db.ResourceStats().Admission.Running; running != 1 {
		t.Fatalf("admission running = %d after first chunk, want 1 (query already finished?)", running)
	}
	if okNow, _ := counter(db, "ok"); okNow != okBefore {
		t.Fatal("query outcome recorded before the stream was consumed")
	}
	// Drain the rest; the footer closes the books.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	objs := ndjson(t, rest)
	foot := objs[len(objs)-1]
	if foot["status"] != "ok" || foot["row_count"].(float64) != total {
		t.Fatalf("footer = %v", foot)
	}
	waitFor(t, 5*time.Second, func() bool { return db.ResourceStats().Admission.Running == 0 })
}

// TestStreamClientDisconnectMidStream hangs up after the first chunk of
// a long live stream and asserts the cooperative-cancel chain: the
// request context cancels the engine mid-pull, the query's outcome is
// recorded as canceled, the admission slot frees, and no worker
// goroutine is left behind (-race).
func TestStreamClientDisconnectMidStream(t *testing.T) {
	db := newTestDB(t, 60000, repro.WithMaxConcurrent(8))
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 1 })
	before := runtime.NumGoroutine()

	canceledBefore, _ := counter(db, "canceled")
	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT a, s FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ { // header + first chunk
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close() // hang up mid-stream

	// The engine observes the disconnect as a cancellation…
	waitFor(t, 5*time.Second, func() bool {
		now, _ := counter(db, "canceled")
		return now > canceledBefore
	})
	// …releases the admission slot…
	waitFor(t, 5*time.Second, func() bool { return db.ResourceStats().Admission.Running == 0 })
	// …and unwinds every goroutine it started.
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestGracefulDrain: an in-flight query survives Drain, readiness flips,
// and new queries bounce with 503 draining.
func TestGracefulDrain(t *testing.T) {
	// Admission control on, so Admission.Running tracks the in-flight query.
	db := newTestDB(t, 64, repro.WithMaxConcurrent(8))
	s, hs := newTestServer(t, db, func(c *Config) {
		c.QueryOptions = []repro.QueryOption{
			repro.WithFaults(repro.FaultInjection{SlowOp: 100 * time.Millisecond}),
		}
	})

	if resp, err := http.Get(hs.URL + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/query", "application/json",
			strings.NewReader(`{"sql":"SELECT a, s FROM t ORDER BY a"}`))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode, body: body}
	}()
	waitFor(t, 5*time.Second, func() bool { return db.ResourceStats().Admission.Running == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, 5*time.Second, s.Draining)

	// Readiness flips while the query is still in flight.
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	// New queries bounce.
	resp2, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT a FROM t"})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503 (body %s)", resp2.StatusCode, payload)
	}
	if got := errCode(t, payload); got != CodeDraining {
		t.Fatalf("code = %q, want draining", got)
	}
	// The in-flight query completes, stream intact.
	r := <-inflight
	if r.err != nil || r.status != 200 {
		t.Fatalf("in-flight query during drain: status=%d err=%v", r.status, r.err)
	}
	objs := ndjson(t, r.body)
	foot := objs[len(objs)-1]
	if foot["status"] != "ok" || foot["row_count"].(float64) != 64 {
		t.Fatalf("in-flight footer = %v", foot)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (in-flight finished)", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	db := newTestDB(t, 8)
	s, hs := newTestServer(t, db, nil)

	resp, payload := post(t, hs.URL+"/v1/prepare", map[string]any{"sql": "SELECT a FROM t ORDER BY a"})
	if resp.StatusCode != 200 {
		t.Fatalf("prepare = %d (body %s)", resp.StatusCode, payload)
	}
	var prep prepareResponse
	if err := json.Unmarshal(payload, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Session == "" || prep.Statement == "" {
		t.Fatalf("prepare response = %+v", prep)
	}

	runURL := fmt.Sprintf("%s/v1/sessions/%s/run/%s", hs.URL, prep.Session, prep.Statement)
	resp, payload = post(t, runURL, map[string]any{})
	if resp.StatusCode != 200 {
		t.Fatalf("run = %d (body %s)", resp.StatusCode, payload)
	}
	objs := ndjson(t, payload)
	if foot := objs[len(objs)-1]; foot["status"] != "ok" || foot["row_count"].(float64) != 8 {
		t.Fatalf("run footer = %v", foot)
	}

	// A second statement lands in the same session.
	resp, payload = post(t, hs.URL+"/v1/prepare", map[string]any{
		"sql": "SELECT COUNT(*) FROM t", "session": prep.Session,
	})
	var prep2 prepareResponse
	_ = json.Unmarshal(payload, &prep2)
	if resp.StatusCode != 200 || prep2.Session != prep.Session || prep2.Statement == prep.Statement {
		t.Fatalf("second prepare = %d %+v", resp.StatusCode, prep2)
	}

	// Introspection lists both.
	resp, payload = func() (*http.Response, []byte) {
		r, err := http.Get(hs.URL + "/v1/sessions/" + prep.Session)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	var info sessionInfo
	_ = json.Unmarshal(payload, &info)
	if resp.StatusCode != 200 || len(info.Statements) != 2 {
		t.Fatalf("session info = %d %+v", resp.StatusCode, info)
	}

	// Unknown statement → 404 statement_not_found.
	resp, payload = post(t, fmt.Sprintf("%s/v1/sessions/%s/run/st-99", hs.URL, prep.Session), map[string]any{})
	if resp.StatusCode != 404 || errCode(t, payload) != CodeNoStatement {
		t.Fatalf("bad stmt = %d %s", resp.StatusCode, payload)
	}

	// DELETE drops the session; later runs 404 session_not_found.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sessions/"+prep.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %v %v", dresp, err)
	}
	dresp.Body.Close()
	resp, payload = post(t, runURL, map[string]any{})
	if resp.StatusCode != 404 || errCode(t, payload) != CodeNoSession {
		t.Fatalf("run after delete = %d %s", resp.StatusCode, payload)
	}
	if n := s.sessions.count(); n != 0 {
		t.Fatalf("sessions remaining = %d", n)
	}
}

// TestPreparedHonorsTimeout: a timeout_ms given to /v1/prepare bounds
// every run of the statement, failing it with 504 canceled. The server's
// base options slow every operator well past the deadline.
func TestPreparedHonorsTimeout(t *testing.T) {
	db := newTestDB(t, 8)
	_, hs := newTestServer(t, db, func(c *Config) {
		c.QueryOptions = []repro.QueryOption{
			repro.WithFaults(repro.FaultInjection{SlowOp: 2 * time.Second}),
		}
	})
	resp, payload := post(t, hs.URL+"/v1/prepare", map[string]any{
		"sql": "SELECT a FROM t ORDER BY a", "timeout_ms": 40,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("prepare = %d (body %s)", resp.StatusCode, payload)
	}
	var prep prepareResponse
	if err := json.Unmarshal(payload, &prep); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, payload = post(t, fmt.Sprintf("%s/v1/sessions/%s/run/%s", hs.URL, prep.Session, prep.Statement), map[string]any{})
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, payload) != repro.CodeCanceled {
		t.Fatalf("run past its prepare-time timeout = %d %s, want 504 canceled", resp.StatusCode, payload)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("run took %v; the 40ms timeout did not bound it", d)
	}
}

// TestSessionIdleEviction proves the janitor evicts an idle session and
// the wire reports it as 404 session_not_found.
func TestSessionIdleEviction(t *testing.T) {
	db := newTestDB(t, 4)
	s, hs := newTestServer(t, db, func(c *Config) { c.SessionIdleTimeout = 30 * time.Millisecond })

	_, payload := post(t, hs.URL+"/v1/prepare", map[string]any{"sql": "SELECT a FROM t"})
	var prep prepareResponse
	if err := json.Unmarshal(payload, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.IdleTimeoutMS != 30 {
		t.Fatalf("idle_timeout_ms = %d", prep.IdleTimeoutMS)
	}
	waitFor(t, 5*time.Second, func() bool { return s.sessions.count() == 0 })
	resp, payload := post(t, fmt.Sprintf("%s/v1/sessions/%s/run/%s", hs.URL, prep.Session, prep.Statement), map[string]any{})
	if resp.StatusCode != 404 || errCode(t, payload) != CodeNoSession {
		t.Fatalf("run after eviction = %d %s", resp.StatusCode, payload)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	db := newTestDB(t, 4)
	_, hs := newTestServer(t, db, nil)

	// A query first, so the scrape shows moved counters.
	if resp, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"}); resp.StatusCode != 200 {
		t.Fatalf("query = %d %s", resp.StatusCode, payload)
	}
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/metrics": "repro_queries_total",
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("%s = %d, missing %q in %q", path, resp.StatusCode, want, firstLine(body))
		}
	}
	resp, err := http.Get(hs.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("metrics json = %d, valid=%v", resp.StatusCode, json.Valid(body))
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestHTTPRequestMetrics(t *testing.T) {
	db := newTestDB(t, 5)
	_, hs := newTestServer(t, db, nil)

	if resp, _ := post(t, hs.URL+"/v1/query", queryRequest{SQL: "select a from t"}); resp.StatusCode != 200 {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	if resp, _ := post(t, hs.URL+"/v1/query", queryRequest{SQL: "select a from t", Strategy: "bogus"}); resp.StatusCode != 400 {
		t.Fatalf("bad strategy = %d", resp.StatusCode)
	}
	if resp, err := http.Get(hs.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// The counter family lives on the DB's registry, so it shows up on
	// /metrics with the engine's families.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_http_requests_total counter",
		`repro_http_requests_total{route="/v1/query",status="200"} 1`,
		`repro_http_requests_total{route="/v1/query",status="400"} 1`,
		`repro_http_requests_total{route="/healthz",status="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if v, ok := db.Metrics().CounterValue2("repro_http_requests_total", "/v1/query", "200"); !ok || v != 1 {
		t.Fatalf("registry read = %v,%v", v, ok)
	}
}

func TestHTTPRequestMetricsOffWithoutTelemetry(t *testing.T) {
	db := newTestDB(t, 2, repro.WithoutTelemetry())
	_, hs := newTestServer(t, db, nil)
	if resp, _ := post(t, hs.URL+"/v1/query", queryRequest{SQL: "select a from t"}); resp.StatusCode != 200 {
		t.Fatalf("query without telemetry = %d", resp.StatusCode)
	}
}

// TestNonFiniteFloatsStream: JSON has no NaN or infinity, and the old
// marshaller failed the whole chunk on one — which the server took for a
// hang-up, stalling two seconds and ending the response with no footer.
// They travel as strings now and the stream ends normally.
func TestNonFiniteFloatsStream(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("f", repro.ColumnDef{Name: "x", Kind: repro.KindFloat}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("f",
		[]repro.Value{repro.NewFloat(1.5)}, []repro.Value{repro.NewFloat(math.NaN())},
		[]repro.Value{repro.NewFloat(math.Inf(1))}, []repro.Value{repro.NewFloat(math.Inf(-1))},
	); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, db, nil)
	began := time.Now()
	resp, payload := post(t, hs.URL+"/v1/query", queryRequest{SQL: "select x from f"})
	if took := time.Since(began); took > time.Second {
		t.Fatalf("response took %v: the stream stalled", took)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	objs := ndjson(t, payload)
	if foot := objs[len(objs)-1]; foot["status"] != "ok" || foot["row_count"] != float64(4) {
		t.Fatalf("footer = %v", foot)
	}
	want := []any{[]any{1.5}, []any{"NaN"}, []any{"+Inf"}, []any{"-Inf"}}
	if got := objs[1]["rows"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestEncodeTelemetry checks what the running server reports about its
// encoder: one repro_http_encode_seconds sample per streamed response,
// body bytes per route, and an encode span on the query's trace —
// delivered complete, although the trace's query finished before the last
// chunk was written.
func TestEncodeTelemetry(t *testing.T) {
	db := newTestDB(t, 10)
	var mu sync.Mutex
	var traces []*repro.Trace
	_, hs := newTestServer(t, db, func(c *Config) {
		c.ChunkRows = 4
		c.QueryOptions = []repro.QueryOption{repro.WithTrace(func(tr *repro.Trace) {
			mu.Lock()
			traces = append(traces, tr)
			mu.Unlock()
		})}
	})
	resp, payload := post(t, hs.URL+"/v1/query", queryRequest{SQL: "select a, s from t"})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	chunkBytes := 0
	for _, line := range bytes.SplitAfter(payload, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"rows":`)) {
			chunkBytes += len(line)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 1 || traces[0] == nil {
		t.Fatalf("got %d traces by the time the footer arrived, want 1", len(traces))
	}
	sp := traces[0].Find("encode")
	if sp == nil {
		t.Fatalf("trace has no encode span:\n%s", traces[0])
	}
	for key, want := range map[string]string{"rows": "10", "chunks": "3", "bytes": strconv.Itoa(chunkBytes)} {
		if got, _ := sp.Attr(key); got != want {
			t.Errorf("encode span %s = %q, want %q", key, got, want)
		}
	}
	if sp.Dur <= 0 {
		t.Errorf("encode span duration = %v", sp.Dur)
	}
	if n, sum, ok := db.Metrics().HistogramStats("repro_http_encode_seconds", ""); !ok || n != 1 || sum <= 0 {
		t.Errorf("repro_http_encode_seconds = count %d sum %v ok %v, want one positive sample", n, sum, ok)
	}
	if v, ok := db.Metrics().CounterValue("repro_http_response_bytes_total", "/v1/query"); !ok || v != float64(len(payload)) {
		t.Errorf("repro_http_response_bytes_total = %v, want %d", v, len(payload))
	}
}

// TestSparsePredicateStreamsEveryMatch: a filter that matches nothing in
// the first morsels of a scan must still deliver the matches further on —
// an empty morsel is not the end of the stream.
func TestSparsePredicateStreamsEveryMatch(t *testing.T) {
	db := newTestDB(t, 10000)
	_, hs := newTestServer(t, db, nil)
	const q = "select a from t where a >= 9990"
	want, err := db.Query(q)
	if err != nil || len(want.Data) != 10 {
		t.Fatalf("eager rows = %v, err %v", want, err)
	}
	resp, payload := post(t, hs.URL+"/v1/query", queryRequest{SQL: q})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	objs := ndjson(t, payload)
	if foot := objs[len(objs)-1]; foot["status"] != "ok" || foot["row_count"] != float64(10) {
		t.Fatalf("footer = %v, want 10 rows", foot)
	}
}

// TestParamsOnTheWire binds placeholders from a request's "params", on
// /v1/query and on a prepared statement's runs; a wrong count or kind is
// 400 bad_request.
func TestParamsOnTheWire(t *testing.T) {
	db := newTestDB(t, 10)
	_, hs := newTestServer(t, db, nil)
	resp, body := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT s FROM t WHERE a >= $1 AND s <> $2", "params": []any{7, "row-008"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	objs := ndjson(t, body)
	if got := objs[len(objs)-1]["row_count"]; got != float64(2) {
		t.Errorf("row_count = %v, want 2: %s", got, body)
	}
	for _, bad := range []map[string]any{
		{"sql": "SELECT s FROM t WHERE a >= $1", "params": []any{}},
		{"sql": "SELECT s FROM t WHERE a >= $1", "params": []any{"seven"}},
		{"sql": "SELECT s FROM t WHERE a >= $1", "params": []any{[]any{1}}},
	} {
		resp, body := post(t, hs.URL+"/v1/query", bad)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
			t.Errorf("%v: status %d code %q, want 400 bad_request", bad, resp.StatusCode, body)
		}
	}

	resp, body = post(t, hs.URL+"/v1/prepare", map[string]any{"sql": "SELECT a FROM t WHERE a = $1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	var prep prepareResponse
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Params != 1 || prep.Strategy != "" || prep.CacheHit != nil {
		t.Errorf("prepare of a statement with one placeholder answered %s, want params 1 and no strategy", body)
	}
	if resp, body := post(t, hs.URL+"/v1/prepare", map[string]any{"sql": "SELECT a FROM no_such WHERE a = $1"}); resp.StatusCode != http.StatusBadRequest || errCode(t, body) != repro.CodeNoTable {
		t.Errorf("prepare over an unknown table: status %d body %s, want 400 no_table", resp.StatusCode, body)
	}
	run := hs.URL + "/v1/sessions/" + prep.Session + "/run/" + prep.Statement
	for _, a := range []float64{3, 4} {
		resp, body := post(t, run, map[string]any{"params": []any{a}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: %d %s", resp.StatusCode, body)
		}
		objs := ndjson(t, body)
		if rows := objs[1]["rows"].([]any); len(rows) != 1 || rows[0].([]any)[0] != a {
			t.Errorf("run with %v returned %s", a, body)
		}
	}
	if resp, body := post(t, run, map[string]any{}); resp.StatusCode != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Errorf("run without params: status %d body %s, want 400 bad_request", resp.StatusCode, body)
	}
}

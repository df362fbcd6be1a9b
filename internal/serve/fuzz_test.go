package serve

// Fuzz targets for the request decoders: arbitrary bytes posted to
// /v1/query and /v1/ingest through the real handlers. Seeds live in
// testdata/fuzz; run one with
//
//	go test -run '^$' -fuzz FuzzQueryRequest -fuzztime 10s ./internal/serve/

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// fuzzDB is a small in-memory DB: reads(epc, rtime, biz_loc) with four
// rows, an index, statistics and one cleansing rule, so queries reach
// the rewriter, the planner and the executor.
func fuzzDB(tb testing.TB) *repro.DB {
	tb.Helper()
	db := repro.Open(repro.WithoutTelemetry())
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		tb.Fatal(err)
	}
	at := func(min int) repro.Value { return repro.NewTime(time.Unix(0, 0).Add(time.Duration(min) * time.Minute)) }
	if err := db.Insert("reads",
		[]repro.Value{repro.NewString("e1"), at(0), repro.NewString("dock")},
		[]repro.Value{repro.NewString("e1"), at(2), repro.NewString("dock")},
		[]repro.Value{repro.NewString("e1"), at(90), repro.NewString("shelf")},
		[]repro.Value{repro.NewString("e2"), at(5), repro.NewString("dock")},
	); err != nil {
		tb.Fatal(err)
	}
	if err := db.BuildIndex("reads", "rtime"); err != nil {
		tb.Fatal(err)
	}
	if err := db.Analyze("reads"); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		tb.Fatal(err)
	}
	return db
}

// fuzzServer serves db with a short server-side query timeout, so a
// generated cross join ends.
func fuzzServer(db *repro.DB) *Server {
	return New(Config{DB: db, QueryOptions: []repro.QueryOption{repro.WithTimeout(200 * time.Millisecond)}})
}

// fuzzPost drives one request through the server's handler and checks
// the response: no 5xx but the 504 of the server-side timeout, every
// error status a single well-formed error body with a code, and every
// 200 body well-formed JSON lines.
func fuzzPost(t *testing.T, s *Server, path string, body []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	out := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
			if !json.Valid(line) {
				t.Fatalf("%s %q: 200 with a bad JSON line %q", path, body, line)
			}
		}
		return
	}
	if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("%s %q: status %d, body %s", path, body, rec.Code, out)
	}
	var e errorBody
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || dec.More() || e.Status != "error" || e.Code == "" || e.Error == "" {
		t.Fatalf("%s %q: status %d with a malformed error body %s (%v)", path, body, rec.Code, out, err)
	}
	if rec.Code == http.StatusGatewayTimeout && e.Code != repro.CodeCanceled {
		t.Fatalf("%s %q: 504 with code %q, want %q", path, body, e.Code, repro.CodeCanceled)
	}
}

func FuzzQueryRequest(f *testing.F) {
	s := fuzzServer(fuzzDB(f))
	f.Cleanup(func() { s.sessions.close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, s, "/v1/query", body)
	})
}

// FuzzIngestRequest posts each input to a fresh DB, so batches that
// create tables or append rows do not accumulate across inputs.
func FuzzIngestRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer(fuzzDB(t))
		defer s.sessions.close()
		fuzzPost(t, s, "/v1/ingest", body)
	})
}

package serve

// Live-operations console tests: a running query is visible in GET
// /v1/queries with live operator counts, DELETE /v1/queries/{id} kills
// it cooperatively, and the kill releases every resource the query held
// (admission slot, memory reservation, spill files). Run with -race.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

// queriesSnapshot decodes GET /v1/queries.
type queriesSnapshot struct {
	Queries []struct {
		QueryID   string `json:"query_id"`
		Kind      string `json:"kind"`
		SQL       string `json:"sql"`
		Phase     string `json:"phase"`
		ElapsedMS int64  `json:"elapsed_ms"`
		MemBytes  int64  `json:"mem_bytes"`
		Killed    bool   `json:"killed"`
		Operators []struct {
			Op      string `json:"op"`
			Rows    int    `json:"rows"`
			Batches int    `json:"batches"`
		} `json:"operators"`
	} `json:"queries"`
}

func getQueries(t *testing.T, base string) queriesSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/queries = %d", resp.StatusCode)
	}
	var snap queriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// newWideTestDB builds a table whose rows are wide enough that a
// streamed result overwhelms socket buffers — a client that stops
// reading wedges the query mid-stream, holding it open for the test to
// observe and kill.
func newWideTestDB(t *testing.T, rows int, opts ...repro.Option) *repro.DB {
	t.Helper()
	db := repro.Open(opts...)
	if err := db.CreateTable("t",
		repro.ColumnDef{Name: "a", Kind: repro.KindInt},
		repro.ColumnDef{Name: "s", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256)
	data := make([][]repro.Value, 0, rows)
	for i := 0; i < rows; i++ {
		data = append(data, []repro.Value{
			repro.NewInt(int64(i)),
			repro.NewString(fmt.Sprintf("row-%06d-%s", i, pad)),
		})
	}
	if err := db.Insert("t", data...); err != nil {
		t.Fatal(err)
	}
	return db
}

// counterValue reads one (family, label) counter from the DB's metrics
// snapshot, 0 when absent.
func counterValue(db *repro.DB, family, labelVal string) float64 {
	for _, fam := range db.Metrics().Snapshot() {
		if fam.Name != family {
			continue
		}
		for _, m := range fam.Metrics {
			if labelVal == "" || hasLabelValue(m.Labels, labelVal) {
				if m.Value != nil {
					return *m.Value
				}
			}
		}
	}
	return 0
}

func hasLabelValue(labels map[string]string, want string) bool {
	for _, v := range labels {
		if v == want {
			return true
		}
	}
	return false
}

// TestKillReleasesEverything is the acceptance test for the live
// operations console: start a spilling streamed query, see it in
// /v1/queries with live operator row counts, kill it over the wire, and
// prove the admission slot, memory reservation, and spill files are all
// released.
func TestKillReleasesEverything(t *testing.T) {
	spillDir, err := os.MkdirTemp("", "kill-spill-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(spillDir) })

	db := newWideTestDB(t, 20000,
		repro.WithMaxConcurrent(2),
		repro.WithSpillDir(spillDir),
	)
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 16 })

	// A sort under a tiny budget spills; the wide rows mean the streamed
	// result cannot fit in socket buffers, so a paused client keeps the
	// query alive indefinitely.
	body := strings.NewReader(`{"sql":"SELECT a, s FROM t ORDER BY s",` +
		`"memory_limit_bytes":65536}`)
	req, err := http.NewRequest("POST", hs.URL+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	// Read the stream header, then stop reading: the query wedges on
	// socket backpressure mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read stream header: %v", err)
	}

	// The query must be visible with live per-operator row counts.
	var qid string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in /v1/queries with operator rows")
		}
		snap := getQueries(t, hs.URL)
		for _, q := range snap.Queries {
			if q.Kind != "query" || len(q.Operators) == 0 {
				continue
			}
			rows := 0
			for _, op := range q.Operators {
				rows += op.Rows
			}
			if rows > 0 && q.Phase != "" {
				qid = q.QueryID
			}
		}
		if qid != "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill it over the wire.
	req, err = http.NewRequest("DELETE", hs.URL+"/v1/queries/"+qid, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var killBody struct {
		Status  string `json:"status"`
		QueryID string `json:"query_id"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&killBody); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 || killBody.Status != "killed" || killBody.QueryID != qid {
		t.Fatalf("kill response = %d %+v", dresp.StatusCode, killBody)
	}

	// Drain the rest of the stream so the handler can unwind; the stream
	// must not end in a clean footer.
	clean := false
	for {
		line, err := br.ReadString('\n')
		if strings.Contains(line, `"status":"ok"`) {
			clean = true
		}
		if err != nil {
			break
		}
	}
	if clean {
		t.Fatal("killed query still streamed a clean ok footer")
	}

	// Everything the query held must be released.
	deadline = time.Now().Add(10 * time.Second)
	for {
		active := db.ActiveQueries()
		rs := db.ResourceStats()
		ents, _ := os.ReadDir(spillDir)
		if len(active) == 0 && rs.Admission.Running == 0 && len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("kill leaked: active=%d running=%d spill files=%d",
				len(active), rs.Admission.Running, len(ents))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the outcome is recorded as killed, not a generic cancel.
	deadline = time.Now().Add(5 * time.Second)
	for counterValue(db, "repro_queries_total", "killed") < 1 {
		if time.Now().After(deadline) {
			t.Fatal(`repro_queries_total{outcome="killed"} never incremented`)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The kill must not have poisoned the engine: a fresh query works.
	resp2, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM t"})
	if resp2.StatusCode != 200 {
		t.Fatalf("post-kill query status = %d, body %s", resp2.StatusCode, payload)
	}
}

// TestKillByStreamHeaderID: the query_id a client reads from the stream
// header (and X-Query-Id) is the engine's statement ID, so it is the
// handle DELETE /v1/queries/{id} accepts.
func TestKillByStreamHeaderID(t *testing.T) {
	db := newWideTestDB(t, 20000)
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 16 })

	// Wide rows overflow the socket buffers, so a client that stops
	// reading after the header wedges the query mid-stream.
	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT a, s FROM t ORDER BY s"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read stream header: %v", err)
	}
	var head streamHeader
	if err := json.Unmarshal([]byte(line), &head); err != nil || head.QueryID == "" {
		t.Fatalf("stream header %q: %v", line, err)
	}
	if got := resp.Header.Get("X-Query-Id"); got != head.QueryID {
		t.Fatalf("X-Query-Id = %q, header line query_id = %q", got, head.QueryID)
	}

	req, err := http.NewRequest("DELETE", hs.URL+"/v1/queries/"+head.QueryID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var killBody struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(dresp.Body).Decode(&killBody)
	dresp.Body.Close()
	if err != nil || dresp.StatusCode != 200 || killBody.Status != "killed" {
		t.Fatalf("kill by header id %s = %d %+v (%v)", head.QueryID, dresp.StatusCode, killBody, err)
	}

	// The stream ends in an error line carrying the same id.
	var last string
	for {
		l, err := br.ReadString('\n')
		if strings.TrimSpace(l) != "" {
			last = l
		}
		if err != nil {
			break
		}
	}
	var tail errorBody
	if err := json.Unmarshal([]byte(last), &tail); err != nil || tail.Status != "error" || tail.QueryID != head.QueryID {
		t.Fatalf("stream tail after kill = %q (%v), want an error line with query_id %s", last, err, head.QueryID)
	}
}

// TestKillUnknownAndMalformedIDs pins the error contract of the kill
// endpoint.
func TestKillUnknownAndMalformedIDs(t *testing.T) {
	db := newTestDB(t, 5)
	_, hs := newTestServer(t, db, nil)

	for _, tc := range []struct {
		id     string
		status int
		code   string
	}{
		{"q-09999999", http.StatusNotFound, CodeNoQuery},
		{"not-an-id", http.StatusBadRequest, CodeBadRequest},
		{"q-0", http.StatusBadRequest, CodeBadRequest},
	} {
		req, err := http.NewRequest("DELETE", hs.URL+"/v1/queries/"+tc.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("kill %q: bad body: %v", tc.id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Code != tc.code {
			t.Fatalf("kill %q = %d %q, want %d %q", tc.id, resp.StatusCode, e.Code, tc.status, tc.code)
		}
	}
}

// TestQueriesEmptyWhenIdle pins the idle shape: an empty list, not null.
func TestQueriesEmptyWhenIdle(t *testing.T) {
	db := newTestDB(t, 5)
	_, hs := newTestServer(t, db, nil)
	resp, err := http.Get(hs.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["queries"]) != "[]" {
		t.Fatalf("idle /v1/queries = %s, want []", raw["queries"])
	}
}

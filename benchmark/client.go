package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// queryBody is the JSON body of POST /v1/query (docs/WIRE.md).
type queryBody struct {
	SQL      string   `json:"sql"`
	Strategy string   `json:"strategy,omitempty"`
	Rules    []string `json:"rules,omitempty"`
}

func (q queryBody) encode() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// reply is what a client saw of one /v1/query exchange.
type reply struct {
	status   int
	firstRow time.Duration // send → first row chunk (or footer, on an empty result)
	total    time.Duration // send → footer
	rows     int           // rows counted in the chunks
	cells    int
	bytes    int
	strategy string
	cacheHit bool
	err      error // transport error, non-200, missing footer, or row-count mismatch
}

// footer is the terminal NDJSON object: streamFooter on success,
// errorBody otherwise.
type footer struct {
	Status   string `json:"status"`
	RowCount int    `json:"row_count"`
	Strategy string `json:"strategy"`
	CacheHit bool   `json:"cache_hit"`
	Code     string `json:"code"`
	Error    string `json:"error"`
}

// client issues queries against one server, over TCP or straight into a
// handler.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string, conns int) *client {
	return &client{url: url + "/v1/query", http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

// handlerTransport serves requests from an in-process handler, so the
// in-process modes reuse the client's request and reply code.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func newHandlerClient(h http.Handler) *client {
	return &client{url: "http://in-process/v1/query", http: &http.Client{Transport: handlerTransport{h}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// query sends one request and consumes the reply stream. keep, when
// non-nil, receives every row chunk line (valid only during the call).
func (c *client) query(body []byte, keep func(line []byte)) reply {
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	rep := readReply(resp.Body, start, keep)
	rep.status = resp.StatusCode
	if rep.err == nil && resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("http status %d", resp.StatusCode)
	}
	return rep
}

var (
	rowsPrefix   = []byte(`{"rows":`)
	statusPrefix = []byte(`{"status":`)

	// readers recycles the reply buffers: a fresh 256 KiB per request would
	// make the load generator's garbage compete with the server for the cores.
	readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 256<<10) }}
)

// readReply parses an NDJSON result stream. The footer is the integrity
// check: a stream without {"status":"ok"} and a row count equal to the
// rows received is a failed request.
func readReply(r io.Reader, start time.Time, keep func(line []byte)) reply {
	var rep reply
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	defer readers.Put(br)
	var long []byte
	var foot *footer
	for {
		line, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			long = append(long, line...)
			line, err = br.ReadSlice('\n')
		}
		if len(long) > 0 {
			long = append(long, line...)
			line, long = long, long[:0]
		}
		rep.bytes += len(line)
		switch {
		case bytes.HasPrefix(line, rowsPrefix):
			if rep.firstRow == 0 {
				rep.firstRow = time.Since(start)
			}
			rows, cells := countRows(line)
			rep.rows += rows
			rep.cells += cells
			if keep != nil {
				keep(line)
			}
		case bytes.HasPrefix(line, statusPrefix):
			foot = &footer{}
			if jerr := json.Unmarshal(line, foot); jerr != nil {
				rep.err = fmt.Errorf("footer: %w", jerr)
				return rep
			}
		}
		if err != nil {
			if err != io.EOF {
				rep.err = err
				return rep
			}
			break
		}
	}
	rep.total = time.Since(start)
	if rep.firstRow == 0 {
		rep.firstRow = rep.total
	}
	switch {
	case foot == nil:
		rep.err = fmt.Errorf("stream ended without a footer")
	case foot.Status != "ok":
		rep.err = fmt.Errorf("server error %s: %s", foot.Code, foot.Error)
	case foot.RowCount != rep.rows:
		rep.err = fmt.Errorf("footer row_count %d, received %d rows", foot.RowCount, rep.rows)
	default:
		rep.strategy, rep.cacheHit = foot.Strategy, foot.CacheHit
	}
	return rep
}

// countRows counts the row arrays and their cells in one
// {"rows":[[...],[...]]} line without building the values: the load
// generator shares the box's cores with the server, so its own parsing
// must stay cheap next to the server's encoding.
func countRows(line []byte) (rows, cells int) {
	depth := 0
	inString := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inString {
			switch c {
			case '\\':
				i++
			case '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '[':
			depth++
			if depth == 2 {
				rows++
				if i+1 < len(line) && line[i+1] != ']' {
					cells++
				}
			}
		case ']':
			depth--
		case ',':
			if depth == 2 {
				cells++
			}
		}
	}
	return rows, cells
}

// table runs a query and decodes every row, for set-up facts and
// correctness checks where the values matter.
func (c *client) table(q queryBody) ([][]any, error) {
	var out [][]any
	var derr error
	rep := c.query(q.encode(), func(line []byte) {
		var chunk struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(line, &chunk); err != nil {
			derr = err
			return
		}
		out = append(out, chunk.Rows...)
	})
	if rep.err != nil {
		return nil, fmt.Errorf("%s: %w", q.SQL, rep.err)
	}
	if derr != nil {
		return nil, fmt.Errorf("%s: %w", q.SQL, derr)
	}
	return out, nil
}

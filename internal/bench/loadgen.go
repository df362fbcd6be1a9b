package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator measures a running rfidserve the way a fleet of
// clients would: open-loop arrival (requests fire on a fixed schedule at
// the target QPS whether or not earlier ones finished — the arrival
// process a service actually faces, unlike closed-loop benchmarks whose
// clients implicitly back off with the server), latency percentiles over
// the full request lifetime, and per-status counts so backpressure
// (429) and failures (5xx) are visible separately. Every scale-out PR
// quotes these service-level numbers instead of microbenchmarks.

// LoadConfig drives one load run against a server's base URL.
type LoadConfig struct {
	// BaseURL of the running server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Queries is the SQL mix, assigned round-robin per request.
	Queries []string
	// Strategy names the rewrite strategy for every request ("" = auto).
	Strategy string
	// QPS is the open-loop target arrival rate. Required, > 0.
	QPS float64
	// Duration is how long arrivals fire. Required, > 0.
	Duration time.Duration
	// MaxInFlight caps concurrently outstanding requests; arrivals past
	// the cap are counted as Dropped rather than queued (keeping the
	// generator open-loop). 0 defaults to max(64, 4×QPS).
	MaxInFlight int
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
}

// LoadStats is one load run's result; rfidbench -out writes it as JSON.
type LoadStats struct {
	TargetQPS   float64 `json:"target_qps"`
	DurationSec float64 `json:"duration_sec"`

	// Sent counts requests issued; Done those that returned any HTTP
	// status; Dropped arrivals skipped at the in-flight cap.
	Sent    int64 `json:"sent"`
	Done    int64 `json:"done"`
	Dropped int64 `json:"dropped"`

	// Status counts responses by HTTP status code.
	Status map[string]int64 `json:"status"`
	// Status5xx aggregates the 5xx rows of Status — the smoke gate.
	Status5xx int64 `json:"status_5xx"`
	// TransportErrors counts requests that died below HTTP (refused,
	// reset, client timeout).
	TransportErrors int64 `json:"transport_errors"`
	// StreamErrors counts 200s whose NDJSON stream lacked the
	// {"status":"ok"} terminal object — a cut stream.
	StreamErrors int64 `json:"stream_errors"`

	// ServedQPS is successful (2xx) responses per second of run time.
	ServedQPS float64 `json:"served_qps"`
	// RowsReturned sums result rows across successful responses.
	RowsReturned int64 `json:"rows_returned"`

	// Latency percentiles over successful responses, milliseconds.
	P50ms float64 `json:"latency_p50_ms"`
	P95ms float64 `json:"latency_p95_ms"`
	P99ms float64 `json:"latency_p99_ms"`
	MaxMs float64 `json:"latency_max_ms"`

	// MetricsScrapeOK reports whether a post-run GET /metrics returned
	// 200 with the engine's query counter present.
	MetricsScrapeOK bool `json:"metrics_scrape_ok"`
}

// RunLoad fires the configured open-loop load and collects LoadStats.
// It returns early (with the stats so far) if ctx is canceled. The final
// /metrics scrape runs after the last in-flight request completes.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadStats, error) {
	if cfg.QPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: QPS and Duration are required")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: at least one query is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = int(math.Max(64, 4*cfg.QPS))
	}

	st := &LoadStats{
		TargetQPS:   cfg.QPS,
		DurationSec: cfg.Duration.Seconds(),
		Status:      map[string]int64{},
	}
	client := &http.Client{Timeout: cfg.Timeout}
	var (
		wg        sync.WaitGroup
		sem       = make(chan struct{}, maxInFlight)
		mu        sync.Mutex // guards latencies and st.Status
		latencies []float64
		done      atomic.Int64
		ok2xx     atomic.Int64
		fivexx    atomic.Int64
		transport atomic.Int64
		stream    atomic.Int64
		rowsTotal atomic.Int64
	)

	issue := func(sql string) {
		defer wg.Done()
		defer func() { <-sem }()
		body, _ := json.Marshal(map[string]any{"sql": sql, "strategy": cfg.Strategy})
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			transport.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			transport.Add(1)
			return
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			transport.Add(1)
			return
		}
		elapsed := time.Since(start)
		done.Add(1)
		mu.Lock()
		st.Status[strconv.Itoa(resp.StatusCode)]++
		mu.Unlock()
		if resp.StatusCode >= 500 {
			fivexx.Add(1)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			ok2xx.Add(1)
			if n, ok := footerRowCount(payload); ok {
				rowsTotal.Add(n)
			} else {
				stream.Add(1)
			}
			mu.Lock()
			latencies = append(latencies, float64(elapsed.Microseconds())/1000)
			mu.Unlock()
		}
	}

	interval := time.Duration(float64(time.Second) / cfg.QPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()
	runStart := time.Now()
	next := 0
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				st.Sent++
				wg.Add(1)
				go issue(cfg.Queries[next%len(cfg.Queries)])
				next++
			default:
				st.Dropped++
			}
		}
	}
	wg.Wait()
	wall := time.Since(runStart).Seconds()

	st.Done = done.Load()
	st.Status5xx = fivexx.Load()
	st.TransportErrors = transport.Load()
	st.StreamErrors = stream.Load()
	st.RowsReturned = rowsTotal.Load()
	if wall > 0 {
		st.ServedQPS = float64(ok2xx.Load()) / wall
	}
	sort.Float64s(latencies)
	st.P50ms = percentile(latencies, 0.50)
	st.P95ms = percentile(latencies, 0.95)
	st.P99ms = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		st.MaxMs = latencies[n-1]
	}
	st.MetricsScrapeOK = scrapeMetrics(ctx, client, cfg.BaseURL)
	return st, nil
}

// footerRowCount scans an NDJSON response for the {"status":"ok"}
// terminal object and returns its row_count.
func footerRowCount(payload []byte) (int64, bool) {
	lines := bytes.Split(bytes.TrimSpace(payload), []byte("\n"))
	if len(lines) == 0 {
		return 0, false
	}
	var footer struct {
		Status   string `json:"status"`
		RowCount int64  `json:"row_count"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil || footer.Status != "ok" {
		return 0, false
	}
	return footer.RowCount, true
}

// percentile interpolates nearest-rank on an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Round(p * float64(len(sorted)-1)))
	return sorted[idx]
}

// scrapeMetrics checks the server's /metrics exposition is live and
// carries the engine's query counter.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK &&
		bytes.Contains(body, []byte("repro_queries_total"))
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// httpWorkload is one of the three workloads driven over HTTP against a
// server of their own.
type httpWorkload struct {
	mix func(f *facts, seed int64) mix
	// precheck is the workload's correctness gate. It runs against the
	// first of a run's servers, which is then discarded: naive cleansing
	// materializes the whole cleansed table, and the measured server's
	// resident peak must be the workload's, not the gate's.
	precheck func(c *client, f *facts, seed int64) error
}

var httpWorkloads = map[string]httpWorkload{
	"trace_lookup": {
		mix: lookupMix,
		precheck: func(c *client, f *facts, seed int64) error {
			// Theorem 1 on the lookup's shape, under the grid's three rules:
			// naive cleansing under all five takes 12 s at this scale, longer
			// than the measured window. (No expanded rewrite exists for a
			// predicate on the cluster key, so auto always picks join-back.)
			body := lookupMix(f, seed).prime()[0].body
			body.Rules = gridRules
			return strategiesAgree(c, body, "naive", []string{"join-back", "auto"})
		},
	},
	"analytic_grid": {
		mix: func(f *facts, _ int64) mix { return gridMix(f) },
		precheck: func(c *client, f *facts, _ int64) error {
			// Theorem 1: each rewrite returns what the query over fully
			// cleansed data returns.
			for _, cell := range []int{0, len(gridStrategies)} {
				body := gridRequest(f, cell, 0.10).body
				if err := strategiesAgree(c, body, "naive", []string{"expanded", "join-back", "auto"}); err != nil {
					return err
				}
			}
			return nil
		},
	},
	"export_stream": {
		mix: func(f *facts, _ int64) mix { return exportMix(f) },
		precheck: func(c *client, f *facts, _ int64) error {
			want, err := c.table(queryBody{SQL: "SELECT count(*) FROM caser WHERE rtime <= " + f.tsAt(0.20), Strategy: "dirty"})
			if err != nil {
				return err
			}
			rep := c.query(queryBody{SQL: f.exportSQL(0.20), Strategy: "dirty"}.encode(), nil)
			if rep.err != nil {
				return rep.err
			}
			if n, _ := want[0][0].(float64); int(n) != rep.rows || rep.cells != 4*rep.rows {
				return fmt.Errorf("export returned %d rows of %d cells, count(*) says %v rows", rep.rows, rep.cells, want[0][0])
			}
			return nil
		},
	},
}

// strategiesAgree runs one query under a reference strategy and under
// each of the others and requires equal results as multisets.
func strategiesAgree(c *client, body queryBody, ref string, others []string) error {
	body.Strategy = ref
	want, err := c.table(body)
	if err != nil {
		return err
	}
	for _, s := range others {
		body.Strategy = s
		got, err := c.table(body)
		if err != nil {
			return err
		}
		if !sameMultiset(want, got) {
			return fmt.Errorf("strategy %s returns %d rows that differ from %s's %d rows for: %s", s, len(got), ref, len(want), body.SQL)
		}
	}
	return nil
}

func sameMultiset(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	canon := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			blob, _ := json.Marshal(r) // decoded JSON always re-encodes
			out[i] = string(blob)
		}
		sort.Strings(out)
		return out
	}
	ca, cb := canon(a), canon(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// samples is what a measured window observed.
type samples struct {
	classes   []string
	total     [][]float64 // per class, send → footer, ms
	firstRow  [][]float64 // per class, send → first row chunk, ms
	rows      int
	attempted int
	failed    int
	errs      []string
	seconds   float64
}

func newSamples(classes []string) *samples {
	return &samples{classes: classes, total: make([][]float64, len(classes)), firstRow: make([][]float64, len(classes))}
}

func (s *samples) fail(err error) {
	s.attempted++
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *samples) ok(class int, total, firstRow time.Duration, rows int) {
	s.attempted++
	s.total[class] = append(s.total[class], ms(total))
	s.firstRow[class] = append(s.firstRow[class], ms(firstRow))
	s.rows += rows
}

func (s *samples) merge(o *samples) {
	for c := range s.total {
		s.total[c] = append(s.total[c], o.total[c]...)
		s.firstRow[c] = append(s.firstRow[c], o.firstRow[c]...)
	}
	s.rows += o.rows
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metrics derives the request metrics every workload reports. A workload
// with several request classes has a latency distribution with several
// modes, whose plain median jumps between two classes; its median figures
// are therefore the geometric mean of the per-class medians, which every
// class moves. With one class that is the plain median.
func (s *samples) metrics(log func(string, ...any)) map[string]float64 {
	var all, p50, first []float64
	for c, name := range s.classes {
		all = append(all, s.total[c]...)
		p50 = append(p50, median(s.total[c]))
		first = append(first, median(s.firstRow[c]))
		if len(s.classes) > 1 {
			log("  class %-14s n=%-5d latency_p50 %.3f ms  first_row_p50 %.3f ms", name, len(s.total[c]), median(s.total[c]), median(s.firstRow[c]))
		}
	}
	q := tailQuantile(len(all))
	log("  %d requests measured in %.2f s; latency_p95_ms is the p%.1f of %d samples", len(all), s.seconds, 100*q, len(all))
	return map[string]float64{
		"qps":              float64(len(all)) / s.seconds,
		"latency_p50_ms":   geomean(p50),
		"latency_p95_ms":   quantile(all, q),
		"first_row_p50_ms": geomean(first),
		"rows_out_per_s":   float64(s.rows) / s.seconds,
	}
}

// closedLoop drives the mix from `clients` connections, each sending its
// next request when the previous reply has been read to its footer — the
// callers of a query service each wait for their reply. Requests that
// complete during the warm-up are checked but not timed.
func closedLoop(ctx context.Context, c *client, m mix, clients int, seed int64, warmup, window time.Duration) *samples {
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(window)
	parts := make([]*samples, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := newSamples(m.classes)
			parts[k] = s
			rng := rand.New(rand.NewSource(seed*1024 + int64(k)))
			// Stagger the clients so they do not walk a round-robin mix in step.
			i := k * len(m.classes) / clients
			for ctx.Err() == nil && time.Now().Before(winEnd) {
				req := m.next(rng, i)
				i++
				rep := c.query(req.body.encode(), nil)
				done := time.Now()
				switch {
				case rep.err != nil:
					s.fail(rep.err)
				case done.After(winStart) && !done.After(winEnd):
					s.ok(req.class, rep.total, rep.firstRow, rep.rows)
				}
			}
		}(k)
	}
	wg.Wait()
	all := newSamples(m.classes)
	for _, p := range parts {
		all.merge(p)
	}
	all.seconds = window.Seconds()
	return all
}

// runHTTP is the untraced run of an HTTP workload: set the server up
// (several times, for a steady set-up time), gate on correctness, fill the
// caches, then measure the closed loop.
func runHTTP(ctx context.Context, name string, s *settings, seed int64) (*result, map[string]float64, error) {
	w := httpWorkloads[name]
	var srv *server
	var c *client
	var f *facts
	var setups []float64
	res := &result{Correct: true}
	for i := 0; i < s.setups; i++ {
		if srv != nil {
			c.close()
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(s.serveBin, s.scale, s.tmp); err != nil {
			return nil, nil, err
		}
		c = newClient(srv.url, s.clients)
		if f, err = fetchFacts(c); err != nil {
			_ = srv.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			t0 = time.Now()
			if err := w.precheck(c, f, seed); err != nil {
				res.Correct = false
				s.logf("  CORRECTNESS: %v", err)
			}
			s.logf("  correctness gate: %.3f s", time.Since(t0).Seconds())
		}
	}
	defer func() {
		c.close()
		if srv != nil {
			_ = srv.stop()
		}
	}()
	s.logf("  set-ups (boot, load, rules, ready, dataset facts): %.3f s each; %d case reads, %d EPCs", setups, f.caseRows, len(f.epcs))

	m := w.mix(f, seed)
	if m.prime != nil {
		for _, req := range m.prime() {
			if rep := c.query(req.body.encode(), nil); rep.err != nil {
				return nil, nil, fmt.Errorf("prime: %w", rep.err)
			}
		}
	}
	obs := closedLoop(ctx, c, m, s.clients, seed, s.warmup, s.seconds)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	vals := obs.metrics(s.logf)
	vals["setup_s"] = median(setups)
	rss, err := peakRSSMB(srv.pid)
	if err != nil {
		return nil, nil, err
	}
	vals["peak_rss_mb"] = rss

	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, nil, err
	}
	res.Attempted, res.Failed = obs.attempted, obs.failed
	for _, e := range obs.errs {
		s.logf("  FAILED REQUEST: %s", e)
	}
	return res, vals, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
)

// ingestReader marks every read the benchmark ingests, so recovery can
// be checked against exactly the acknowledged rows.
const ingestReader = "rdr-bench-ingest"

// batcher generates ingest batches: fresh EPCs, in rtime order after the
// loaded data, places and steps drawn from the seed.
type batcher struct {
	rng  *rand.Rand
	next int64 // microseconds of the next read
	seq  int
}

func newBatcher(f *facts, seed int64) *batcher {
	return &batcher{rng: rand.New(rand.NewSource(seed)), next: f.maxT + 1_000_000}
}

func (b *batcher) batch(n int) [][]repro.Value {
	rows := make([][]repro.Value, n)
	for i := range rows {
		b.seq++
		b.next += 1 + b.rng.Int63n(1000)
		rows[i] = []repro.Value{
			repro.NewString(fmt.Sprintf("urn:epc:id:sgtin:9999999.%06d.%09d", b.seq/1000, b.seq)),
			repro.NewTime(time.UnixMicro(b.next)),
			repro.NewString(ingestReader),
			repro.NewString(fmt.Sprintf("%013d", 9000+b.rng.Intn(50))),
			repro.NewString(fmt.Sprintf("step-%03d", b.rng.Intn(100))),
		}
	}
	return rows
}

// ledger is what ingest acknowledged: recovery must return exactly this.
type ledger struct {
	rows int
	sum  int64 // sum of rtime microseconds
}

func (l *ledger) ack(rows [][]repro.Value) {
	for _, r := range rows {
		l.rows++
		l.sum += r[1].TimeUsec()
	}
}

// openDurable opens a durable root the way the workload fixes it on both
// sides of every comparison: fsync before every acknowledgment, no
// automatic checkpoints.
func openDurable(dir string) (*repro.DB, error) {
	return repro.OpenDir("", repro.WithWAL(dir), repro.WithFsyncPolicy(repro.FsyncAlways))
}

// setupDurable creates a fresh durable root holding the RFIDGen workload
// and the paper's rules, and reads the dataset facts back.
func setupDurable(s *settings) (db *repro.DB, dir string, f *facts, err error) {
	if dir, err = os.MkdirTemp(s.tmp, "durable-"); err != nil {
		return nil, "", nil, err
	}
	fail := func(err error) (*repro.DB, string, *facts, error) {
		if db != nil {
			db.Close()
		}
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	if db, err = openDurable(dir); err != nil {
		return fail(err)
	}
	if err = db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: s.scale, AnomalyPct: anomalyPct}); err != nil {
		return fail(err)
	}
	if _, err = db.DefinePaperRules(); err != nil {
		return fail(err)
	}
	if f, err = fetchFacts(newHandlerClient(handlerOf(db))); err != nil {
		return fail(err)
	}
	return db, dir, f, nil
}

// handlerOf wraps an in-process database in the server's handler, so the
// dataset facts are read through the same client code everywhere.
func handlerOf(db *repro.DB) http.Handler {
	return serve.New(serve.Config{DB: db}).Handler()
}

// facadeQuery runs one query through DB.QueryStream and drains it, timing
// the first row and the whole result as a caller of the facade sees them.
func facadeQuery(db *repro.DB, q queryBody, opts ...repro.QueryOption) (firstRow, total time.Duration, rows int, err error) {
	start := time.Now()
	r, err := db.QueryStream(q.SQL, append(facadeOptions(q), opts...)...)
	if err != nil {
		return 0, 0, 0, err
	}
	for r.Next() {
		if rows == 0 {
			firstRow = time.Since(start)
		}
		rows++
	}
	err = r.Err()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	total = time.Since(start)
	if rows == 0 {
		firstRow = total
	}
	return firstRow, total, rows, err
}

// strategyOf maps a wire strategy name onto the engine's; "" is auto.
func strategyOf(name string) repro.Strategy {
	switch name {
	case "naive":
		return repro.Naive
	case "expanded":
		return repro.Expanded
	case "join-back":
		return repro.JoinBack
	case "dirty":
		return repro.Dirty
	}
	return repro.Auto
}

// facadeOptions translates a wire request into the facade options the
// server would build from it.
func facadeOptions(q queryBody) []repro.QueryOption {
	opts := []repro.QueryOption{repro.WithStrategy(strategyOf(q.Strategy))}
	if len(q.Rules) > 0 {
		opts = append(opts, repro.WithRules(q.Rules...))
	}
	return opts
}

// mixedPhase is the paced ingest beside one closed-loop reader.
type mixedPhase struct {
	reads    *samples
	ackMS    []float64 // batch due time → acknowledgment
	lateMS   []float64 // batch due time → the generator got to it
	ingested int
	failed   int
	errs     []string
}

// runMixed ingests open-loop at the configured rate — batches arrive on
// a schedule whether or not the last one was acknowledged, so each is
// timed from when it was due — while a reader issues lookups as fast as
// they are answered. Activity during the warm-up is checked, not timed.
func runMixed(ctx context.Context, db *repro.DB, s *settings, m mix, b *batcher, acked *ledger, seed int64, warmup, window time.Duration) *mixedPhase {
	ph := &mixedPhase{reads: newSamples(m.classes)}
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(window)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		period := time.Duration(float64(time.Second) / s.ingestRate)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(winEnd) || ctx.Err() != nil {
				return
			}
			time.Sleep(time.Until(due))
			rows := b.batch(s.batchRows)
			began := time.Now()
			if err := db.Ingest("caser", rows...); err != nil {
				ph.failed++
				ph.errs = append(ph.errs, err.Error())
				continue
			}
			acked.ack(rows)
			ph.ingested++
			if due.After(winStart) {
				ph.ackMS = append(ph.ackMS, ms(time.Since(due)))
				ph.lateMS = append(ph.lateMS, ms(began.Sub(due)))
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed * 1024))
		for i := 0; ctx.Err() == nil && time.Now().Before(winEnd); i++ {
			req := m.next(rng, i)
			first, total, rows, err := facadeQuery(db, req.body)
			done := time.Now()
			switch {
			case err != nil:
				ph.reads.fail(err)
			case done.After(winStart) && !done.After(winEnd):
				ph.reads.ok(req.class, total, first, rows)
			}
		}
	}()
	wg.Wait()
	ph.reads.seconds = window.Seconds()
	return ph
}

// runIngest is the untraced run of ingest_recover: bulk ingest, one
// checkpoint, the mixed window, then close, reopen and verify. The
// request metrics come from the mixed window's reader; the phase figures
// are printed beside them.
func runIngest(ctx context.Context, s *settings, seed int64) (*result, map[string]float64, error) {
	var db *repro.DB
	var dir string
	var f *facts
	var setups []float64
	cleanup := func() {
		if db != nil {
			db.Close()
			db = nil
		}
		if dir != "" {
			os.RemoveAll(dir)
			dir = ""
		}
		// Hand the closed database's memory back, so the resident peak is
		// that of one database, not of several set-ups piled up.
		debug.FreeOSMemory()
	}
	defer cleanup()
	for i := 0; i < s.setups; i++ {
		cleanup()
		t0 := time.Now()
		var err error
		if db, dir, f, err = setupDurable(s); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s.logf("  set-ups (open durable root, generate, load, checkpoint, rules, dataset facts): %.3f s each; %d case reads", setups, f.caseRows)

	res := &result{Correct: true}
	acked := &ledger{}
	b := newBatcher(f, seed)

	// P1: bulk ingest, back to back.
	t0 := time.Now()
	for i := 0; i < s.bulkBatches; i++ {
		rows := b.batch(s.batchRows)
		res.Attempted++
		if err := db.Ingest("caser", rows...); err != nil {
			res.Failed++
			s.logf("  FAILED INGEST: %v", err)
			continue
		}
		acked.ack(rows)
	}
	s.logf("  ingest_rows_per_s %.1f rows/s (P1: %d batches of %d reads, back to back)", float64(acked.rows)/time.Since(t0).Seconds(), s.bulkBatches, s.batchRows)

	// P2: one checkpoint.
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.logf("  checkpoint_s %.4f s (P2: %d rows in caser)", time.Since(t0).Seconds(), f.caseRows+acked.rows)

	// P3: paced ingest beside a lookup reader.
	ph := runMixed(ctx, db, s, lookupMix(f, seed), b, acked, seed, s.warmup, s.seconds)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	vals := ph.reads.metrics(s.logf)
	s.logf("  ingest_ack_p95_ms %.3f ms (P3: p%.1f of %d batches at %.0f/s, timed from their due time; generator lateness p50 %.3f ms, max %.3f ms)",
		quantile(ph.ackMS, tailQuantile(len(ph.ackMS))), 100*tailQuantile(len(ph.ackMS)), len(ph.ackMS), s.ingestRate, median(ph.lateMS), maxOf(ph.lateMS))
	res.Attempted += ph.reads.attempted + ph.ingested + ph.failed
	res.Failed += ph.reads.failed + ph.failed
	for _, e := range append(ph.reads.errs, ph.errs...) {
		s.logf("  FAILED: %s", e)
	}

	// P4: close, reopen, first answer; then the recovered rows must be
	// exactly the acknowledged ones.
	if err := db.Close(); err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}
	db = nil
	debug.FreeOSMemory()
	t0 = time.Now()
	var err error
	if db, err = openDurable(dir); err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	if _, _, _, err := facadeQuery(db, queryBody{SQL: "SELECT count(*) FROM caser", Strategy: "dirty"}); err != nil {
		return nil, nil, fmt.Errorf("first query after recovery: %w", err)
	}
	s.logf("  recovery_s %.4f s (P4: reopen to first answer, %d rows replayed)", time.Since(t0).Seconds(), db.ResourceStats().Recovery.ReplayedRows)
	res.Attempted++
	if got, err := recovered(db); err != nil {
		return nil, nil, err
	} else if got != *acked {
		res.Correct = false
		res.Failed++
		s.logf("  CORRECTNESS: recovered %d rows (rtime sum %d), acknowledged %d rows (rtime sum %d)", got.rows, got.sum, acked.rows, acked.sum)
	}

	vals["setup_s"] = median(setups)
	if vals["peak_rss_mb"], err = peakRSSMB(0); err != nil {
		return nil, nil, err
	}
	return res, vals, nil
}

// recovered reads back every read the benchmark ingested. It goes through
// the materializing Query on the unindexed reader column: at the parent
// commit an index scan does not see rows ingested since the index was
// built, and the streaming path returns no rows for this predicate.
func recovered(db *repro.DB) (ledger, error) {
	var got ledger
	r, err := db.Query("SELECT rtime FROM caser WHERE reader = '"+ingestReader+"'", repro.WithStrategy(repro.Dirty))
	if err != nil {
		return got, err
	}
	for _, row := range r.Data {
		got.rows++
		got.sum += row[0].TimeUsec()
	}
	return got, nil
}

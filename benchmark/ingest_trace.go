package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/rfidgen"
	"repro/internal/schema"
	"repro/internal/storage"
)

// scratchRoot is the layer-level twin of the facade's durable database: a
// durability root opened through the persist package alone, seeded with
// the same dataset and rules, that receives the identical batches through
// WAL.AppendBatch, WAL.Commit and storage.Table.Append — the three layer
// calls DB.Ingest makes — so the facade's own cost is what is left over.
type scratchRoot struct {
	dir    string
	cat    *catalog.Database
	reg    *core.Registry
	wal    *persist.WAL
	caser  *storage.Table
	fsyncs []float64 // microseconds, as WAL.OnFsync reports them
}

var durableOpts = persist.DurableOpts{Policy: persist.FsyncAlways}

func (r *scratchRoot) open(seed func() (*catalog.Database, *core.Registry, error)) (time.Duration, error) {
	start := time.Now()
	cat, reg, wal, _, err := persist.OpenDurable(r.dir, seed, durableOpts)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	caser, ok := cat.Table("caser")
	if !ok {
		wal.Close()
		return 0, fmt.Errorf("scratch root has no caser table")
	}
	wal.OnFsync = func(d time.Duration) { r.fsyncs = append(r.fsyncs, float64(d.Nanoseconds())/1e3) }
	r.cat, r.reg, r.wal, r.caser = cat, reg, wal, caser
	return took, nil
}

// apply puts one batch through the three layer calls, as spans under
// parent, and returns their wall times in microseconds.
func (r *scratchRoot) apply(tr *tracer, parent, id int, rows []schema.Row) (walAppend, commit, tableAppend float64, err error) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	walAppend = us(tr.time("persist.AppendBatch", parent, id, func() { err = r.wal.AppendBatch("caser", rows) }))
	if err != nil {
		return
	}
	commit = us(tr.time("persist.Commit", parent, id, func() { err = r.wal.Commit() }))
	if err != nil {
		return
	}
	tableAppend = us(tr.time("storage.Append", parent, id, func() {
		// Row by row, as the facade applies a batch.
		for _, row := range rows {
			if err = r.caser.Append(row); err != nil {
				return
			}
		}
	}))
	return
}

// checkpointBytes is the size of the published checkpoint directory.
func (r *scratchRoot) checkpointBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), "wal-") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func toSchemaRows(rows [][]repro.Value) []schema.Row {
	out := make([]schema.Row, len(rows))
	for i, r := range rows {
		out[i] = schema.Row(r)
	}
	return out
}

// readBeside runs lookups through the facade, one after another, until
// stop is closed, and returns their latencies in milliseconds: what a
// reader experiences while the database does something else.
func readBeside(db *repro.DB, reqs []request, stop <-chan struct{}) (lat []float64, err error) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat, err
		default:
		}
		_, total, _, qerr := facadeQuery(db, reqs[i%len(reqs)].body)
		if qerr != nil {
			return lat, qerr
		}
		lat = append(lat, ms(total))
	}
}

// traceIngest is the traced run of ingest_recover: the write path one
// batch at a time through the facade and through its layers, lookups
// replayed between batches, a checkpoint and a short mixed phase with a
// reader beside them, and recovery of both roots.
func traceIngest(ctx context.Context, s *settings, seed int64) (*result, map[string]float64, error) {
	tr := newTracer()
	vals := map[string]float64{}
	res := &result{Correct: true}
	d := generateTraced(tr, s.scale, vals)

	// The facade's database: LoadRFIDWorkload taken apart, so the load is
	// timed on its own and made durable by an explicit checkpoint.
	dir, err := os.MkdirTemp(s.tmp, "durable-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	db, err := openDurable(dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	vals["rfidgen.load_s"] = tr.time("rfidgen.Load", 0, 0, func() { err = d.Load(db.Catalog) }).Seconds()
	if err != nil {
		return nil, nil, err
	}
	db.Workload = d
	db.Catalog.BumpEpoch()
	if err := db.Checkpoint(); err != nil {
		return nil, nil, err
	}
	if _, err := db.DefinePaperRules(); err != nil {
		return nil, nil, err
	}

	scratch := &scratchRoot{}
	if scratch.dir, err = os.MkdirTemp(s.tmp, "scratch-"); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch.dir)
	defer func() {
		if scratch.wal != nil {
			scratch.wal.Close()
		}
	}()
	if _, err := scratch.open(func() (*catalog.Database, *core.Registry, error) { return seedCatalog(d) }); err != nil {
		return nil, nil, err
	}

	f, err := fetchFacts(newHandlerClient(handlerOf(db)))
	if err != nil {
		return nil, nil, err
	}
	m := lookupMix(f, seed)
	reqs := sampleRequests(m, seed)
	b := newBatcher(f, seed)
	acked := &ledger{}

	// Stage 1: batches through the facade and through its layers, with a
	// lookup replayed after every tenth batch — each batch bumped the
	// catalog epoch, so every one of them misses the plan cache.
	var ingestUS, walUS, commitUS, appendUS, selfUS []float64
	var ps []*parts
	walBefore := scratch.wal.Size()
	fsyncsBefore := len(scratch.fsyncs)
	for k := 0; k < s.traceBatches; k++ {
		rows := b.batch(s.batchRows)
		id := 1000 + k
		root := tr.begin("request", 0, id)
		res.Attempted++
		took := tr.time("facade.Ingest", root, id, func() { err = db.Ingest("caser", rows...) })
		if err != nil {
			return nil, nil, fmt.Errorf("ingest: %w", err)
		}
		acked.ack(rows)
		w, c, a, err := scratch.apply(tr, root, id, toSchemaRows(rows))
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("layer replay of a batch: %w", err)
		}
		us := float64(took.Nanoseconds()) / 1e3
		ingestUS, walUS, commitUS, appendUS = append(ingestUS, us), append(walUS, w), append(commitUS, c), append(appendUS, a)
		selfUS = append(selfUS, max(0, us-w-c-a))
		if k%10 == 9 && len(ps) < len(reqs) {
			p := &parts{class: reqs[len(ps)].class, miss: true, ops: map[string]float64{}}
			if err := replay(tr, db, nil, len(ps)+1, reqs[len(ps)], p); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
			ps = append(ps, p)
			res.Attempted++
		}
	}
	if len(ps) == 0 {
		return nil, nil, fmt.Errorf("no lookup was replayed: fewer than ten batches")
	}
	attribute(tr, ps)
	for k, v := range queryMetrics(ps, false, s.logf) {
		vals[k] = v
	}
	batches := float64(s.traceBatches)
	rowsIn := batches * float64(s.batchRows)
	vals["facade.ingest_rows_per_s"] = ratio(1e6*rowsIn, sum(ingestUS))
	vals["facade.ingest_self_us_per_batch"] = median(selfUS)
	vals["persist.wal_append_us_per_batch"] = median(walUS)
	vals["storage.append_us_per_batch"] = median(appendUS)
	vals["persist.fsync_us"] = median(scratch.fsyncs[fsyncsBefore:])
	vals["persist.fsyncs_per_batch"] = float64(len(scratch.fsyncs)-fsyncsBefore) / batches
	vals["persist.wal_bytes_per_row"] = float64(scratch.wal.Size()-walBefore) / rowsIn
	vals["trace.share_persist_storage"] = ratio(sum(walUS)+sum(commitUS)+sum(appendUS), sum(ingestUS))
	s.logf("  %d batches of %d reads; per batch: DB.Ingest %.1f us = wal append %.1f + commit %.1f + table append %.1f + facade %.1f",
		s.traceBatches, s.batchRows, median(ingestUS), median(walUS), median(commitUS), median(appendUS), median(selfUS))

	// Stage 2: one checkpoint of each root; the facade's has a reader beside it.
	stop := make(chan struct{})
	var stall []float64
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stall, readErr = readBeside(db, reqs, stop)
	}()
	vals["facade.checkpoint_s"] = tr.time("facade.Checkpoint", 0, 0, func() { err = db.Checkpoint() }).Seconds()
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if readErr != nil {
		return nil, nil, fmt.Errorf("reader beside the checkpoint: %w", readErr)
	}
	res.Attempted += len(stall)
	took := tr.time("persist.Checkpoint", 0, 0, func() { err = scratch.wal.Checkpoint(scratch.cat, scratch.reg) })
	if err != nil {
		return nil, nil, fmt.Errorf("scratch checkpoint: %w", err)
	}
	ckptBytes, err := scratch.checkpointBytes()
	if err != nil {
		return nil, nil, err
	}
	ckptRows := float64(totalRows(scratch.cat))
	vals["persist.checkpoint_rows_per_s"] = ckptRows / took.Seconds()
	vals["persist.checkpoint_bytes_per_row"] = float64(ckptBytes) / ckptRows

	// Stage 3: a short mixed phase for the figures only contention shows.
	mixed := runMixed(ctx, db, s, m, b, acked, seed, 0, min(s.seconds, 3*time.Second))
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res.Attempted += mixed.reads.attempted + mixed.ingested + mixed.failed
	res.Failed += mixed.reads.failed + mixed.failed
	for _, e := range append(mixed.reads.errs, mixed.errs...) {
		s.logf("  FAILED: %s", e)
	}
	vals["facade.ingest_ack_p95_ms"] = quantile(mixed.ackMS, tailQuantile(len(mixed.ackMS)))
	vals["facade.reader_stall_max_ms"] = max(maxOf(stall), maxOf(mixed.reads.total[0]), maxOf(mixed.reads.total[1]))

	// Stage 4: recovery. The scratch root first, with an empty WAL tail and
	// then with one, so that loading the checkpoint and replaying the log
	// are timed apart; then the facade's root, to its first answer.
	if err := scratch.wal.Close(); err != nil {
		return nil, nil, err
	}
	scratch.wal = nil
	empty, err := scratch.open(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("recover scratch root: %w", err)
	}
	vals["persist.recovery_checkpoint_s"] = empty.Seconds()
	tailBatches := max(1, s.traceBatches/2)
	for k := 0; k < tailBatches; k++ {
		rows := toSchemaRows(b.batch(s.batchRows))
		if err := scratch.wal.AppendBatch("caser", rows); err != nil {
			return nil, nil, err
		}
		if err := scratch.wal.Commit(); err != nil {
			return nil, nil, err
		}
	}
	if err := scratch.wal.Close(); err != nil {
		return nil, nil, err
	}
	scratch.wal = nil
	withTail, err := scratch.open(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("recover scratch root with a tail: %w", err)
	}
	vals["persist.recovery_replay_rows_per_s"] = ratio(float64(tailBatches*s.batchRows), max(0, (withTail-empty).Seconds()))

	if err := db.Close(); err != nil {
		return nil, nil, err
	}
	db = nil
	vals["facade.recovery_s"] = tr.time("facade.OpenDir", 0, 0, func() {
		if db, err = openDurable(dir); err == nil {
			_, _, _, err = facadeQuery(db, queryBody{SQL: "SELECT count(*) FROM caser", Strategy: "dirty"})
		}
	}).Seconds()
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	res.Attempted++
	if got, err := recovered(db); err != nil {
		return nil, nil, err
	} else if got != *acked {
		res.Correct = false
		res.Failed++
		s.logf("  CORRECTNESS: recovered %d rows (rtime sum %d), acknowledged %d rows (rtime sum %d)", got.rows, got.sum, acked.rows, acked.sum)
	}

	storageMetrics(db, vals)
	runtimeMetrics(vals)
	tr.printLayers(s.logf)
	if err := tr.write(s.out, "ingest_recover", seed, s); err != nil {
		return nil, nil, err
	}
	return res, vals, nil
}

// seedCatalog builds the scratch root's initial database: the dataset and
// the paper's rules, as the facade's root holds them.
func seedCatalog(d *rfidgen.Dataset) (*catalog.Database, *core.Registry, error) {
	cat := catalog.NewDatabase()
	if err := d.Load(cat); err != nil {
		return nil, nil, err
	}
	reg := core.NewRegistry(cat)
	for _, src := range d.PaperRules() {
		if _, err := reg.Define(src); err != nil {
			return nil, nil, err
		}
	}
	return cat, reg, nil
}

func totalRows(cat *catalog.Database) int {
	n := 0
	for _, name := range cat.TableNames() {
		if t, ok := cat.Table(name); ok {
			n += t.RowCount()
		}
	}
	return n
}

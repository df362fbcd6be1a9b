package repro_test

// Durability at the facade: WAL-backed OpenDir recovery, crash-fault
// injection, checkpoint triggers, and the stats surfaces. Run with -race:
// ingest, checkpoint timers, and queries share the WAL.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// openDurableDB opens a durable DB over walDir, failing the test on error.
func openDurableDB(t *testing.T, walDir string, opts ...repro.Option) *repro.DB {
	t.Helper()
	db, err := repro.OpenDir("", append([]repro.Option{repro.WithWAL(walDir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mkReads creates the standard test table on a DB.
func mkReads(t *testing.T, db *repro.DB) {
	t.Helper()
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "n", Kind: repro.KindInt},
	); err != nil {
		t.Fatal(err)
	}
}

func ingestN(t *testing.T, db *repro.DB, from, n int) {
	t.Helper()
	rows := make([][]repro.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []repro.Value{
			repro.NewString(fmt.Sprintf("e%d", from+i)),
			repro.NewTime(time.UnixMicro(int64(from+i) * 1e6).UTC()),
			repro.NewInt(int64(from + i)),
		}
	}
	if err := db.Ingest("reads", rows...); err != nil {
		t.Fatal(err)
	}
}

func countReads(t *testing.T, db *repro.DB) int64 {
	t.Helper()
	res, err := db.Query("SELECT count(*) FROM reads", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	return res.Data[0][0].Int()
}

// Every kind of mutation survives a restart: schema, rows, index, view,
// rule — and the recovery stats say what happened.
func TestDurableRestartRecoversEverything(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	ingestN(t, db, 0, 10)
	if err := db.BuildIndex("reads", "rtime"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("recent", "select epc, rtime from reads where n >= 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.epc = B.epc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}
	ws := db.WALStats()
	if !ws.Durable || ws.Dir != wal || ws.Bytes == 0 || ws.Policy != "always" {
		t.Fatalf("WALStats = %+v", ws)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != 10 {
		t.Fatalf("recovered %d rows, want 10", got)
	}
	res, err := db2.Query("SELECT count(*) FROM recent", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatalf("view lost: %v", err)
	}
	if res.Data[0][0].Int() != 5 {
		t.Fatalf("view count = %v", res.Data[0][0])
	}
	if rules := db2.Registry.All(); len(rules) != 1 || rules[0].Rule.Name != "dedup" {
		t.Fatalf("rules lost: %+v", rules)
	}
	rs := db2.ResourceStats().Recovery
	if !rs.Durable || rs.ReplayedRecords == 0 || rs.ReplayedRows != 10 || rs.Seeded {
		t.Fatalf("recovery stats = %+v", rs)
	}
}

// A table needs a column: an append record of zero-column rows could not
// be replayed, so such a table is refused before anything is logged.
func TestCreateTableNeedsAColumn(t *testing.T) {
	db := openDurableDB(t, t.TempDir())
	defer db.Close()
	before := db.WALStats().Bytes
	if err := db.CreateTable("empty"); err == nil {
		t.Fatal("a table with no columns was created")
	}
	if after := db.WALStats().Bytes; after != before {
		t.Fatalf("the refused table was logged: WAL grew from %d to %d bytes", before, after)
	}
}

// Open (no error return) cannot do recovery: WithWAL must panic there and
// point at OpenDir.
func TestOpenPanicsOnWithWAL(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Open(WithWAL) did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "OpenDir") {
			t.Fatalf("panic %v does not point at OpenDir", r)
		}
	}()
	repro.Open(repro.WithWAL(t.TempDir()))
}

// A torn WAL write loses exactly the batch it tore: acked rows survive,
// the torn batch does not, and the WAL refuses further writes until the
// (simulated) process restarts.
func TestTornWriteFault(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	ingestN(t, db, 0, 3)
	db.Close()

	db2 := openDurableDB(t, wal, repro.WithDurabilityFaults(repro.FaultInjection{WALTornWrite: true}))
	err := db2.Ingest("reads", []repro.Value{repro.NewString("torn"), repro.NewTime(time.UnixMicro(0)), repro.NewInt(99)})
	if err == nil {
		t.Fatal("torn write must fail the ingest")
	}
	if err := db2.Ingest("reads", []repro.Value{repro.NewString("after"), repro.NewTime(time.UnixMicro(0)), repro.NewInt(100)}); err == nil {
		t.Fatal("WAL must refuse appends after a torn write")
	}
	if err := db2.Checkpoint(); err == nil {
		t.Fatal("checkpoint must refuse after a torn write")
	}
	db2.Close()

	db3 := openDurableDB(t, wal)
	defer db3.Close()
	if got := countReads(t, db3); got != 3 {
		t.Fatalf("recovered %d rows, want the 3 acked ones", got)
	}
	if rs := db3.ResourceStats().Recovery; rs.TruncatedBytes == 0 {
		t.Errorf("torn tail not reported: %+v", rs)
	}
}

// A failing fsync under FsyncAlways means the batch is never acked.
func TestFsyncErrFault(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	db.Close()

	db2 := openDurableDB(t, wal, repro.WithDurabilityFaults(repro.FaultInjection{WALSyncErr: true}))
	defer db2.Close()
	err := db2.Ingest("reads", []repro.Value{repro.NewString("e"), repro.NewTime(time.UnixMicro(0)), repro.NewInt(1)})
	if err == nil {
		t.Fatal("ingest must fail when the fsync fails")
	}
}

// A crash during checkpoint (complete temp file, no publication) loses
// nothing: the WAL still holds every record.
func TestCheckpointCrashFault(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal, repro.WithDurabilityFaults(repro.FaultInjection{CheckpointCrash: true}))
	mkReads(t, db)
	ingestN(t, db, 0, 7)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("crashed checkpoint must error")
	}
	db.Close()

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != 7 {
		t.Fatalf("recovered %d rows, want 7", got)
	}
	if ws := db2.WALStats(); ws.Seq != 1 {
		t.Errorf("unpublished checkpoint rotated the wal: %+v", ws)
	}
}

// The size trigger checkpoints automatically and bounds the WAL.
func TestCheckpointSizeTrigger(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal, repro.WithCheckpointEvery(4096, 0))
	defer db.Close()
	mkReads(t, db)
	for i := 0; i < 40; i++ {
		ingestN(t, db, i*10, 10)
	}
	ws := db.WALStats()
	if ws.Checkpoints == 0 || ws.Seq < 2 {
		t.Fatalf("size trigger never checkpointed: %+v", ws)
	}
	if ws.Bytes > 64<<10 {
		t.Errorf("wal unbounded despite checkpoints: %d bytes", ws.Bytes)
	}

	db.Close()
	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != 400 {
		t.Fatalf("recovered %d rows, want 400", got)
	}
}

// The interval trigger checkpoints on the timer without any ingest push.
func TestCheckpointIntervalTrigger(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal, repro.WithCheckpointEvery(0, 20*time.Millisecond))
	defer db.Close()
	mkReads(t, db)
	ingestN(t, db, 0, 5)
	deadline := time.Now().Add(5 * time.Second)
	for db.WALStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval trigger never checkpointed: %+v", db.WALStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A snapshot directory seeds a fresh WAL root once; afterwards the WAL is
// the source of truth.
func TestSnapshotSeedsFreshRoot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap")
	src := repro.Open()
	mkReads(t, src)
	if err := src.Insert("reads", []repro.Value{repro.NewString("seeded"), repro.NewTime(time.UnixMicro(1)), repro.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := src.Save(snap); err != nil {
		t.Fatal(err)
	}

	wal := t.TempDir()
	db, err := repro.OpenDir(snap, repro.WithWAL(wal))
	if err != nil {
		t.Fatal(err)
	}
	if rs := db.ResourceStats().Recovery; !rs.Seeded {
		t.Fatalf("not seeded: %+v", rs)
	}
	if ws := db.WALStats(); ws.Checkpoints != 1 {
		t.Fatalf("seed not checkpointed: %+v", ws)
	}
	ingestN(t, db, 10, 2)
	db.Close()

	// Reopen with the same snapshot arg: the WAL wins, the seed does not
	// re-run, and post-seed ingests are still there.
	db2, err := repro.OpenDir(snap, repro.WithWAL(wal))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rs := db2.ResourceStats().Recovery; rs.Seeded {
		t.Fatalf("seed ran twice: %+v", rs)
	}
	if got := countReads(t, db2); got != 3 {
		t.Fatalf("recovered %d rows, want 3", got)
	}
}

// Concurrent ingests group-commit safely and all land durably.
func TestConcurrentIngest(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				if err := db.Ingest("reads", []repro.Value{
					repro.NewString(fmt.Sprintf("e%d", id)),
					repro.NewTime(time.UnixMicro(int64(id)).UTC()),
					repro.NewInt(int64(id)),
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := countReads(t, db); got != workers*per {
		t.Fatalf("live count = %d, want %d", got, workers*per)
	}
	db.Close()

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != workers*per {
		t.Fatalf("recovered %d rows, want %d", got, workers*per)
	}
}

// A kind-mismatched value must be rejected before it is WAL-logged:
// replay decodes by column kind, so a logged mismatch would be a
// checksum-valid record that recovery can never apply — the root would
// refuse to reopen forever. Nulls stay insertable into any column.
func TestIngestRejectsKindMismatch(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	ingestN(t, db, 0, 3)
	// STRING into the INT column: the exact shape that bricks replay.
	err := db.Ingest("reads", []repro.Value{
		repro.NewString("e9"), repro.NewTime(time.UnixMicro(9).UTC()), repro.NewString("not-an-int"),
	})
	if err == nil || !strings.Contains(err.Error(), "INT") {
		t.Fatalf("kind-mismatched ingest = %v, want kind error", err)
	}
	// Insert delegates to Ingest and must be guarded the same way.
	if err := db.Insert("reads", []repro.Value{
		repro.NewInt(1), repro.NewTime(time.UnixMicro(9).UTC()), repro.NewInt(9),
	}); err == nil {
		t.Fatal("kind-mismatched insert must fail")
	}
	// NULLs are valid in every column and must still be accepted.
	if err := db.Ingest("reads", []repro.Value{repro.Null, repro.Null, repro.Null}); err != nil {
		t.Fatalf("null ingest: %v", err)
	}
	if got := countReads(t, db); got != 4 {
		t.Fatalf("live count = %d, want 4", got)
	}
	db.Close()

	// The root must reopen — the rejected batches never reached the WAL.
	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != 4 {
		t.Fatalf("recovered %d rows, want 4", got)
	}
}

// A MODIFY can assign a value of another kind than its column's.
// MaterializeCleansed must refuse to store it: the checkpoint it takes
// would log a value that replay refuses, and the root could never reopen.
func TestMaterializeCleansedRejectsKindChange(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	at := func(sec int64) repro.Value { return repro.NewTime(time.UnixMicro(sec * 1e6).UTC()) }
	if err := db.Ingest("reads",
		[]repro.Value{repro.NewString("e1"), at(1), repro.NewInt(1)},
		[]repro.Value{repro.NewString("e1"), at(2), repro.NewInt(2)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRule(`DEFINE relabel ON reads AS (A, B)
		WHERE A.epc = B.epc AND B.rtime - A.rtime < 5 mins
		ACTION MODIFY A.n = 'one'`); err != nil {
		t.Fatal(err)
	}
	const want = "STRING value for INT column n of table reads_clean"
	if _, err := db.MaterializeCleansed("reads", "reads_clean", "relabel"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("kind-changing MaterializeCleansed = %v, want an error containing %q", err, want)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != 2 {
		t.Fatalf("recovered %d rows, want 2", got)
	}
	if _, err := db2.TableColumns("reads_clean"); !errors.Is(err, repro.ErrNoTable) {
		t.Fatalf("refused table reads_clean: err = %v, want ErrNoTable", err)
	}
}

// Checkpoints racing committers: a rotation must never fail an ingest
// whose rows the just-published checkpoint already contains (the
// "file already closed" double-insert trap), and every acked row must
// survive a restart.
func TestConcurrentIngestWithCheckpoints(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	mkReads(t, db)
	const workers, per = 4, 40
	var ingesters, checkpointer sync.WaitGroup
	errs := make(chan error, workers+1)
	stop := make(chan struct{})
	checkpointer.Add(1)
	go func() {
		defer checkpointer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Checkpoint(); err != nil {
					errs <- fmt.Errorf("checkpoint: %w", err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		ingesters.Add(1)
		go func(w int) {
			defer ingesters.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				if err := db.Ingest("reads", []repro.Value{
					repro.NewString(fmt.Sprintf("e%d", id)),
					repro.NewTime(time.UnixMicro(int64(id)).UTC()),
					repro.NewInt(int64(id)),
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	ingesters.Wait()
	close(stop)
	checkpointer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := countReads(t, db); got != workers*per {
		t.Fatalf("live count = %d, want %d", got, workers*per)
	}
	db.Close()

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	if got := countReads(t, db2); got != workers*per {
		t.Fatalf("recovered %d rows, want %d", got, workers*per)
	}
}

// Ingest without a WAL degrades to Insert; Checkpoint reports
// ErrNotDurable; WALStats is zero.
func TestNonDurableSurfaces(t *testing.T) {
	db := repro.Open()
	mkReads(t, db)
	if err := db.Ingest("reads", []repro.Value{repro.NewString("e"), repro.NewTime(time.UnixMicro(0)), repro.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, repro.ErrNotDurable) {
		t.Fatalf("Checkpoint = %v, want ErrNotDurable", err)
	}
	if ws := db.WALStats(); ws.Durable {
		t.Fatalf("WALStats on non-durable DB = %+v", ws)
	}
	if rs := db.ResourceStats().Recovery; rs.Durable {
		t.Fatalf("Recovery on non-durable DB = %+v", rs)
	}
}

// The WAL metric families register and move.
func TestWALMetrics(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	defer db.Close()
	reg := db.Metrics()
	if reg == nil {
		t.Skip("telemetry disabled by default")
	}
	mkReads(t, db)
	ingestN(t, db, 0, 5)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	found := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, m := range fam.Metrics {
			if m.Value != nil {
				found[fam.Name] = *m.Value
			}
		}
	}
	if _, ok := found["repro_wal_bytes"]; !ok {
		t.Error("repro_wal_bytes not registered")
	}
	if found["repro_checkpoint_total"] != 1 {
		t.Errorf("repro_checkpoint_total = %v, want 1", found["repro_checkpoint_total"])
	}
}

// MaterializeCleansed and LoadRFIDWorkload make their bulk results
// durable via checkpoint rather than row-by-row logging.
func TestBulkLoadsCheckpoint(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if ws := db.WALStats(); ws.Checkpoints == 0 {
		t.Fatalf("workload load did not checkpoint: %+v", ws)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDurableDB(t, wal)
	defer db2.Close()
	got, err := db2.Query("SELECT count(*) FROM caser", repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0][0].Int() != want.Data[0][0].Int() {
		t.Fatalf("caser rows = %v, want %v", got.Data[0][0], want.Data[0][0])
	}
	if rules := db2.Registry.All(); len(rules) == 0 {
		t.Fatal("paper rules not recovered")
	}
}

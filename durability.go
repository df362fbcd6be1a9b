package repro

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/schema"
)

// FsyncPolicy selects when acknowledged ingests are forced to disk; see
// the persist package for the exact guarantees of each policy.
type FsyncPolicy = persist.FsyncPolicy

// Fsync policies for WithFsyncPolicy.
const (
	// FsyncAlways syncs before every ingest acknowledgment (survives
	// power loss; concurrent ingests share fsyncs via group commit).
	FsyncAlways = persist.FsyncAlways
	// FsyncInterval syncs on a background timer (survives process death
	// immediately, power loss after at most the interval).
	FsyncInterval = persist.FsyncInterval
	// FsyncOff leaves syncing to the OS (survives process death only).
	FsyncOff = persist.FsyncOff
)

// ParseFsyncPolicy reads a policy name: always, interval, or off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return persist.ParseFsyncPolicy(s) }

// ErrNotDurable reports an operation that requires a WAL on a DB opened
// without one.
var ErrNotDurable = errors.New("repro: not a durable database (OpenDir with WithWAL)")

// WithWAL makes the database durable: every ingest and catalog mutation
// is written to a checksummed write-ahead log under dir before it is
// acknowledged, checkpoints bound the log, and OpenDir recovers the
// durable prefix after a crash. The option requires OpenDir (recovery can
// fail; Open has no error return) — Open panics on it.
//
// OpenDir("", WithWAL(dir)) opens a pure durable root; a non-empty
// snapshot directory seeds the root on first open only (once the WAL
// holds state, the snapshot argument is ignored in favor of recovery).
func WithWAL(dir string) Option {
	return func(c *dbConfig) { c.walDir = dir }
}

// WithFsyncPolicy selects the WAL's fsync policy (default FsyncAlways).
func WithFsyncPolicy(p FsyncPolicy) Option {
	return func(c *dbConfig) { c.fsyncPolicy = p }
}

// WithFsyncInterval sets the background sync period under FsyncInterval
// (default 100ms). Ignored under other policies.
func WithFsyncInterval(d time.Duration) Option {
	return func(c *dbConfig) { c.fsyncInterval = d }
}

// WithCheckpointEvery triggers automatic checkpoints: whenever the WAL
// grows past bytes (checked after each ingest; 0 disables the size
// trigger), and every interval of wall time when the WAL is non-empty
// (0 disables the timer). Without this option the WAL grows until
// DB.Checkpoint is called explicitly.
func WithCheckpointEvery(bytes int64, interval time.Duration) Option {
	return func(c *dbConfig) { c.checkpointBytes, c.checkpointInterval = bytes, interval }
}

// WithDurabilityFaults arms the crash-fault hooks of a FaultInjection
// (WALTornWrite, WALSyncErr, CheckpointCrash) on the DB's WAL. Query-
// level fields are ignored here — pass those per query via WithFaults.
func WithDurabilityFaults(f FaultInjection) Option {
	return func(c *dbConfig) {
		c.walFaults = &persist.CrashFaults{
			TornWrite:       f.WALTornWrite,
			SyncErr:         f.WALSyncErr,
			CheckpointCrash: f.CheckpointCrash,
		}
	}
}

// durableState is the DB-side durability bookkeeping next to the WAL.
type durableState struct {
	checkpointBytes int64
	checkpoints     atomic.Int64
	recovery        RecoveryStats

	// timer loop (WithCheckpointEvery interval trigger)
	stop chan struct{}
	done chan struct{}
}

// RecoveryStats reports what recovery did at OpenDir, for startup logs
// and ResourceStats.
type RecoveryStats struct {
	// Durable is true when the DB was opened with a WAL.
	Durable bool
	// Checkpoint is the checkpoint file restored ("" if none).
	Checkpoint string
	// ReplayedRecords and ReplayedRows count the WAL tail applied on top
	// of the checkpoint.
	ReplayedRecords int64
	ReplayedRows    int64
	// TruncatedBytes counts WAL bytes discarded past the durable prefix.
	TruncatedBytes int64
	// Seeded is true when an empty root was populated from the snapshot
	// directory and made durable with an initial checkpoint.
	Seeded bool
}

// openDurable is OpenDir's WAL path: recover the durable root (seeding it
// from the snapshot directory when fresh), then assemble the DB around
// the recovered catalog.
func openDurable(dir string, c *dbConfig, opts []Option) (*DB, error) {
	var seed func() (*catalog.Database, *core.Registry, error)
	if dir != "" {
		seed = func() (*catalog.Database, *core.Registry, error) { return persist.Load(dir) }
	}
	recoverStart := time.Now()
	cat, reg, wal, info, err := persist.OpenDurable(c.walDir, seed, persist.DurableOpts{
		Policy:   c.fsyncPolicy,
		Interval: c.fsyncInterval,
		Faults:   c.walFaults,
	})
	if err != nil {
		return nil, err
	}
	db := newDB(cat, reg)
	applyDBOpts(db, opts)
	db.wal = wal
	db.durable = &durableState{
		checkpointBytes: c.checkpointBytes,
		recovery: RecoveryStats{
			Durable:         true,
			Checkpoint:      info.Checkpoint,
			ReplayedRecords: info.ReplayedRecords,
			ReplayedRows:    info.ReplayedRows,
			TruncatedBytes:  info.TruncatedBytes,
			Seeded:          info.Seeded,
		},
	}
	if info.Seeded {
		db.durable.checkpoints.Add(1)
	}
	db.attachWALTelemetry()
	// Startup recovery gets its own exported span, so a fleet's trace
	// store shows how long each restart spent replaying.
	db.tel.exportSpan("recovery", recoverStart, time.Since(recoverStart),
		obs.Attr{Key: "checkpoint", Val: info.Checkpoint},
		obs.Attr{Key: "replayed_records", Val: strconv.FormatInt(info.ReplayedRecords, 10)},
		obs.Attr{Key: "replayed_rows", Val: strconv.FormatInt(info.ReplayedRows, 10)},
		obs.Attr{Key: "truncated_bytes", Val: strconv.FormatInt(info.TruncatedBytes, 10)},
		obs.Attr{Key: "seeded", Val: strconv.FormatBool(info.Seeded)},
	)
	if c.checkpointInterval > 0 {
		db.durable.stop = make(chan struct{})
		db.durable.done = make(chan struct{})
		go db.checkpointLoop(c.checkpointInterval)
	}
	return db, nil
}

// attachWALTelemetry registers the WAL metric families and the recovery
// startup log line. It runs after applyDBOpts (the base registry exists
// by then) and before the DB is returned, so scrapes never race it.
func (db *DB) attachWALTelemetry() {
	rs := db.durable.recovery
	if db.tel != nil {
		r := db.tel.metrics.reg
		r.GaugeFunc("repro_wal_bytes", "Current WAL file size in bytes.", func() float64 {
			return float64(db.wal.Size())
		})
		fsync := r.Histogram("repro_wal_fsync_seconds", "WAL fsync latency.", obs.DefLatencyBuckets)
		db.wal.OnFsync = func(d time.Duration) { fsync.Observe(d.Seconds()) }
		r.CounterFunc("repro_checkpoint_total", "Checkpoints published since Open.", func() float64 {
			return float64(db.durable.checkpoints.Load())
		})
		r.GaugeFunc("repro_recovery_replayed_records", "WAL records replayed by recovery at Open.", func() float64 {
			return float64(rs.ReplayedRecords)
		})
	}
	if db.tel != nil && db.tel.slowLogger != nil {
		db.tel.slowLogger.Info("recovery",
			"wal_dir", db.wal.Dir(),
			"checkpoint", rs.Checkpoint,
			"replayed_records", rs.ReplayedRecords,
			"replayed_rows", rs.ReplayedRows,
			"truncated_bytes", rs.TruncatedBytes,
			"seeded", rs.Seeded,
			"fsync", db.wal.Policy().String(),
		)
	}
}

// checkpointLoop runs the WithCheckpointEvery timer: a checkpoint per
// interval while the WAL holds records.
func (db *DB) checkpointLoop(interval time.Duration) {
	defer close(db.durable.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !db.wal.Empty() {
				_ = db.Checkpoint()
			}
		case <-db.durable.stop:
			return
		}
	}
}

// Ingest durably appends rows of values to a table: the batch is
// WAL-logged, applied, and acknowledged per the fsync policy (on a DB
// without a WAL it behaves exactly like Insert). The batch is atomic
// under recovery — after a crash either every row of it is restored or
// none. It is the batched, durable counterpart of Insert.
func (db *DB) Ingest(table string, rows ...[]Value) error {
	return db.IngestContext(context.Background(), table, rows...)
}

// IngestContext is Ingest governed by a context, checked before the
// append (an append that started is not interrupted — its WAL record and
// fsync complete so the acknowledgment stays truthful).
func (db *DB) IngestContext(ctx context.Context, table string, rows ...[]Value) error {
	if err := ctx.Err(); err != nil {
		return wrapCanceled(err)
	}
	// Like a query, an ingest gets a private cancellation layer and a
	// registry entry holding it, so DB.Kill can stop it while it waits for
	// the write lock. The rest of the statement lifecycle does not fit: an
	// ingest takes the write lock, no admission slot, plan or budget.
	ctx, kill := context.WithCancel(ctx)
	defer kill()
	it := db.startIngest(table, len(rows), kill)
	srows := make([]schema.Row, len(rows))
	for i, r := range rows {
		srows[i] = schema.Row(r)
	}
	if err := db.ingestLocked(ctx, table, srows, it); err != nil {
		it.finish(err)
		return err
	}
	// The fsync happens outside the catalog lock: concurrent ingests
	// group-commit on one disk flush, and queries are never blocked on it.
	it.setPhase("fsync")
	fsyncStart := time.Now()
	err := db.walCommit()
	if db.wal != nil {
		it.span("fsync", fsyncStart, time.Since(fsyncStart))
	}
	it.finish(err)
	if err != nil {
		return err
	}
	db.maybeCheckpoint()
	return nil
}

// checkRows validates rows bound for a table — arity AND value kinds. The
// in-memory append checks arity only, but replay refuses a value its
// column does not admit, so a mismatched value stored anyway would become
// a checksum-valid WAL record or snapshot that recovery can never apply.
func checkRows(table string, s *schema.Schema, rows []schema.Row) error {
	for _, r := range rows {
		if len(r) != s.Len() {
			return fmt.Errorf("repro: row arity %d does not match schema %d for table %s", len(r), s.Len(), table)
		}
		for j, v := range r {
			if c := s.Columns[j]; !c.Admits(v) {
				return fmt.Errorf("repro: %s value for %s column %s of table %s", v.Kind(), c.Kind, c.Name, table)
			}
		}
	}
	return nil
}

// ingestLocked WAL-logs and applies one append batch under the write
// lock. Rows are validated (checkRows) before logging, so a record never
// enters the WAL unless its apply and its replay must succeed.
func (db *DB) ingestLocked(ctx context.Context, table string, rows []schema.Row, it *itel) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Cancellation (a caller hang-up, or DB.Kill) is honored up to the
	// point the batch enters the WAL; past that the apply and fsync
	// complete so the acknowledgment stays truthful.
	if err := ctx.Err(); err != nil {
		return wrapCanceled(err)
	}
	t, ok := db.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	it.setPhase("validate")
	validateStart := time.Now()
	if err := checkRows(table, t.Schema, rows); err != nil {
		return err
	}
	it.span("validate", validateStart, time.Since(validateStart))
	if db.wal != nil {
		it.setPhase("wal_append")
		appendStart := time.Now()
		if err := db.wal.AppendBatch(table, rows); err != nil {
			return err
		}
		it.span("wal_append", appendStart, time.Since(appendStart),
			obs.Attr{Key: "wal_bytes", Val: strconv.FormatInt(db.wal.Size(), 10)})
	}
	it.setPhase("apply")
	applyStart := time.Now()
	if err := t.Append(rows...); err != nil {
		return err
	}
	db.Catalog.BumpEpoch()
	it.span("apply", applyStart, time.Since(applyStart))
	return nil
}

// walCommit makes preceding WAL appends durable per the fsync policy.
// No-op without a WAL.
func (db *DB) walCommit() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Commit()
}

// walDDL logs a DDL record. Callers hold the write lock and have
// validated that applying the DDL cannot fail. No-op without a WAL.
func (db *DB) walDDL(d persist.DDLRecord) error {
	if db.wal == nil {
		return nil
	}
	if err := db.wal.AppendDDL(d); err != nil {
		return err
	}
	return db.wal.Commit()
}

// walRule logs a rule-create record after the registry accepted the rule.
// No-op without a WAL.
func (db *DB) walRule(src string) error {
	if db.wal == nil {
		return nil
	}
	if err := db.wal.AppendRule(src); err != nil {
		return err
	}
	return db.wal.Commit()
}

// walCheckpointLocked checkpoints under an already-held write lock; bulk
// loads use it to make their result durable in one snapshot instead of
// logging every generated row. No-op without a WAL.
func (db *DB) walCheckpointLocked() error {
	if db.wal == nil {
		return nil
	}
	start := time.Now()
	if err := db.wal.Checkpoint(db.Catalog, db.Registry); err != nil {
		return err
	}
	db.durable.checkpoints.Add(1)
	db.tel.exportSpan("checkpoint", start, time.Since(start),
		obs.Attr{Key: "wal_seq", Val: strconv.FormatUint(db.wal.Seq(), 10)},
		obs.Attr{Key: "checkpoints", Val: strconv.FormatInt(db.durable.checkpoints.Load(), 10)},
	)
	return nil
}

// Checkpoint snapshots the database into the durability root and rotates
// the WAL, bounding what a future recovery must replay. It requires a
// WAL (ErrNotDurable otherwise); WithCheckpointEvery calls it
// automatically.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.walCheckpointLocked()
}

// maybeCheckpoint fires the size-triggered checkpoint after an ingest.
// Failures are left for the next explicit Checkpoint to surface: the
// ingest that tripped the threshold is already durable in the WAL.
func (db *DB) maybeCheckpoint() {
	if db.wal == nil || db.durable.checkpointBytes <= 0 {
		return
	}
	if db.wal.Size() >= db.durable.checkpointBytes {
		_ = db.Checkpoint()
	}
}

// WALStats reports the live WAL's position, or zeros without one.
type WALStats struct {
	// Durable is true when the DB has a WAL.
	Durable bool
	// Dir is the durability root.
	Dir string
	// Seq is the current WAL file's sequence number, Bytes its size.
	Seq   uint64
	Bytes int64
	// Checkpoints counts checkpoints published since Open (including the
	// seed checkpoint of a snapshot-initialized root).
	Checkpoints int64
	// Policy is the configured fsync policy's name.
	Policy string
}

// WALStats snapshots the DB's durability state.
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return WALStats{
		Durable:     true,
		Dir:         db.wal.Dir(),
		Seq:         db.wal.Seq(),
		Bytes:       db.wal.Size(),
		Checkpoints: db.durable.checkpoints.Load(),
		Policy:      db.wal.Policy().String(),
	}
}

// closeDurability stops the checkpoint timer and closes the WAL (with a
// final sync unless the policy is off). Part of DB.Close.
func (db *DB) closeDurability() error {
	if db.durable != nil && db.durable.stop != nil {
		close(db.durable.stop)
		<-db.durable.done
		db.durable.stop = nil
	}
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

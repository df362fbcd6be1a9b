// Recovery: opening a durability root after a clean exit or a crash.
//
// OpenDurable reconstructs the database as of the durable prefix — the
// last published checkpoint plus every intact WAL record after it — and
// returns a WAL positioned to append at the first byte past that prefix.
// The invariants:
//
//   - A record is replayed iff it is entirely on disk with a valid
//     checksum AND every record before it (across file rotations) is too.
//     The first torn or corrupt frame ends the durable prefix; the tail
//     is truncated away and later files deleted.
//   - A checkpoint is used iff CURRENT names it, and only whole; tmp-*
//     leftovers from checkpoints that died mid-write are swept unread.
//   - The checkpoint and the WAL tail are one replay into one catalog,
//     ended by one finish: each index is built, and each table analyzed,
//     once, exactly as Load does for a snapshot.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// DurableOpts configure the WAL returned by OpenDurable.
type DurableOpts struct {
	Policy FsyncPolicy
	// Interval is the fsync period under FsyncInterval (default 100ms).
	Interval time.Duration
	// Faults, when non-nil, arms crash-fault injection on the live WAL.
	Faults *CrashFaults
}

// RecoveryInfo reports what OpenDurable did, for operators' startup logs
// and db.ResourceStats().
type RecoveryInfo struct {
	// Checkpoint is the checkpoint file restored, "" if none.
	Checkpoint string
	// ReplayedRecords and ReplayedRows count the WAL tail applied on top
	// of the checkpoint (rows counts append-batch rows only).
	ReplayedRecords int64
	ReplayedRows    int64
	// TruncatedBytes counts WAL bytes discarded past the durable prefix —
	// torn frames, corrupt records, and any files after them.
	TruncatedBytes int64
	// Seeded reports that the root was empty and the seed callback
	// populated it (followed by an initial checkpoint).
	Seeded bool
}

// OpenDurable opens dir as a durability root: recover the durable prefix,
// position the WAL for appending, and return the live catalog. When the
// root is empty (no checkpoint, no WAL) and seed is non-nil, seed supplies
// the initial database, which is made durable with an immediate
// checkpoint before OpenDurable returns.
func OpenDurable(dir string, seed func() (*catalog.Database, *core.Registry, error), o DurableOpts) (*catalog.Database, *core.Registry, *WAL, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, info, err
	}
	sweepTmp(dir)

	current, err := readCurrent(dir)
	if err != nil {
		return nil, nil, nil, info, err
	}
	rp := newReplayer()
	fromSeq := uint64(1)
	if current != "" {
		path := filepath.Join(dir, current)
		if err := oldSnapshot(path); err != nil {
			return nil, nil, nil, info, err
		}
		// The snapshot header's sequence is the first WAL file it lacks.
		if fromSeq, _, _, err = replayFile(path, true, rp.apply); err != nil {
			return nil, nil, nil, info, fmt.Errorf("persist: checkpoint %s: %w", current, err)
		}
		info.Checkpoint = current
		sweepCheckpoints(dir, current)
	}
	checkpointRows := rp.rows

	// WAL files below the checkpoint's sequence are fully contained in it.
	seqs, err := walFiles(dir)
	if err != nil {
		return nil, nil, nil, info, err
	}
	var live []uint64
	for _, s := range seqs {
		if s < fromSeq {
			_ = os.Remove(filepath.Join(dir, walFileName(s)))
			continue
		}
		live = append(live, s)
	}

	if current == "" && len(live) == 0 {
		// Fresh root.
		db, reg := rp.db, rp.reg
		if seed != nil {
			if db, reg, err = seed(); err != nil {
				return nil, nil, nil, info, err
			}
			info.Seeded = true
		}
		f, err := createWALFile(dir, 1)
		if err != nil {
			return nil, nil, nil, info, err
		}
		w := &WAL{dir: dir, policy: o.Policy, interval: o.Interval, faults: o.Faults, f: f, seq: 1}
		w.start(walHeaderSize)
		if info.Seeded {
			if err := w.Checkpoint(db, reg); err != nil {
				w.Close()
				return nil, nil, nil, info, fmt.Errorf("persist: seed checkpoint: %w", err)
			}
		}
		return db, reg, w, info, nil
	}

	liveSeq, liveEnd := fromSeq, int64(walHeaderSize)
	stop := false
	for i, s := range live {
		if stop || (i > 0 && s != live[i-1]+1) {
			// Past the durable prefix (earlier truncation or a sequence
			// gap): these records must not be replayed.
			if st, err := os.Stat(filepath.Join(dir, walFileName(s))); err == nil {
				info.TruncatedBytes += st.Size()
			}
			_ = os.Remove(filepath.Join(dir, walFileName(s)))
			continue
		}
		path := filepath.Join(dir, walFileName(s))
		_, goodEnd, n, err := replayFile(path, false, rp.apply)
		if err != nil {
			return nil, nil, nil, info, fmt.Errorf("persist: replay %s: %w", walFileName(s), err)
		}
		info.ReplayedRecords += n
		liveSeq, liveEnd = s, goodEnd
		if st, err := os.Stat(path); err == nil && goodEnd < st.Size() {
			info.TruncatedBytes += st.Size() - goodEnd
			stop = true
		}
	}
	if err := rp.finish(); err != nil {
		return nil, nil, nil, info, err
	}
	info.ReplayedRows = rp.rows - checkpointRows

	var f *os.File
	if liveEnd < walHeaderSize {
		// The live file is torn inside its own header: recreate it.
		if f, err = createWALFile(dir, liveSeq); err != nil {
			return nil, nil, nil, info, err
		}
		liveEnd = walHeaderSize
	} else if len(live) == 0 {
		// Checkpoint published but the crash beat the rotation: start the
		// file the checkpoint expects.
		if f, err = createWALFile(dir, liveSeq); err != nil {
			return nil, nil, nil, info, err
		}
	} else {
		if f, err = openWALAt(dir, liveSeq, liveEnd); err != nil {
			return nil, nil, nil, info, err
		}
	}
	w := &WAL{dir: dir, policy: o.Policy, interval: o.Interval, faults: o.Faults, f: f, seq: liveSeq}
	w.start(liveEnd)
	return rp.db, rp.reg, w, info, nil
}

// replayer applies log records, in order, to a catalog it builds from
// empty: a snapshot's records, then for OpenDurable the WAL tail's.
type replayer struct {
	db   *catalog.Database
	reg  *core.Registry
	rows int64 // append-batch rows applied
	// indexes defers build_index records to finish, which builds each
	// index once over every replayed row (appends do not maintain
	// indexes). Keyed by table name.
	indexes map[string][]string
}

func newReplayer() *replayer {
	db := catalog.NewDatabase()
	return &replayer{db: db, reg: core.NewRegistry(db), indexes: map[string][]string{}}
}

func (rp *replayer) apply(rec Record) error {
	switch rec.Type {
	case recAppend:
		return rp.appendBatch(rec.Payload)
	case recDDL:
		var d DDLRecord
		if err := json.Unmarshal(rec.Payload, &d); err != nil {
			return fmt.Errorf("ddl record: %w", err)
		}
		return rp.applyDDL(d)
	case recRule:
		if _, err := rp.reg.Define(string(rec.Payload)); err != nil {
			return fmt.Errorf("rule record: %w", err)
		}
		return nil
	}
	return fmt.Errorf("unexpected record type %d", rec.Type)
}

// appendBatch decodes an append-batch payload and appends its rows,
// checking each value's kind against its column (NULL fits any).
func (rp *replayer) appendBatch(p []byte) error {
	name, n, err := types.ReadValue(p)
	if err != nil || name.Kind() != types.KindString {
		return fmt.Errorf("append record: no table name")
	}
	t, ok := rp.db.Table(name.Str())
	if !ok {
		return fmt.Errorf("append record: no table %q", name.Str())
	}
	p = p[n:]
	nrows, n := binary.Uvarint(p)
	ncols := t.Schema.Len()
	// Every value takes at least one byte, so the payload bounds the
	// allocation below. Tables have at least one column (applyDDL).
	if n <= 0 || nrows > uint64(len(p)-n)/uint64(ncols) {
		return fmt.Errorf("append record: table %s: bad row count", t.Name)
	}
	p = p[n:]
	vals := make([]types.Value, int(nrows)*ncols)
	rows := make([]schema.Row, nrows)
	for i := range rows {
		rows[i] = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for j, c := range t.Schema.Columns {
			v, n, err := types.ReadValue(p)
			if err != nil {
				return fmt.Errorf("append record: table %s column %s: %w", t.Name, c.Name, err)
			}
			if !c.Admits(v) {
				return fmt.Errorf("append record: %w", kindError(t.Name, c, v))
			}
			rows[i][j], p = v, p[n:]
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("append record: table %s: %d bytes after the last row", t.Name, len(p))
	}
	rp.rows += int64(nrows)
	return t.Append(rows...)
}

// kindError describes a value its column does not admit. The snapshot
// writer refuses to log one and replay refuses to apply one, so a snapshot
// that was written can always be read back.
func kindError(table string, c schema.Column, v types.Value) error {
	return fmt.Errorf("table %s column %s: %s value in a %s column", table, c.Name, v.Kind(), c.Kind)
}

func (rp *replayer) applyDDL(d DDLRecord) error {
	switch d.Op {
	case DDLCreateTable:
		if len(d.Columns) == 0 {
			return fmt.Errorf("ddl record: table %s has no columns", d.Name)
		}
		s := &schema.Schema{}
		for _, c := range d.Columns {
			k, err := kindOf(c.Kind)
			if err != nil {
				return fmt.Errorf("ddl record: table %s: %w", d.Name, err)
			}
			s.Columns = append(s.Columns, schema.Col(d.Name, c.Name, k))
		}
		return rp.db.AddTable(storage.NewTable(d.Name, s))
	case DDLCreateView:
		stmt, err := sqlparser.Parse(d.SQL)
		if err != nil {
			return fmt.Errorf("ddl record: view %s: %w", d.Name, err)
		}
		return rp.db.AddView(d.Name, stmt)
	case DDLBuildIndex:
		t, ok := rp.db.Table(d.Table)
		if !ok {
			return fmt.Errorf("ddl record: index on unknown table %q", d.Table)
		}
		if !slices.Contains(rp.indexes[t.Name], d.Column) {
			rp.indexes[t.Name] = append(rp.indexes[t.Name], d.Column)
		}
		return nil
	}
	return fmt.Errorf("unknown ddl op %q", d.Op)
}

// finish builds every deferred index and analyzes every table, once each.
func (rp *replayer) finish() error {
	for _, name := range rp.db.TableNames() {
		t, _ := rp.db.Table(name)
		for _, col := range rp.indexes[name] {
			if err := t.BuildIndex(col); err != nil {
				return fmt.Errorf("persist: replay: %w", err)
			}
		}
		t.Analyze()
	}
	return nil
}

func kindOf(name string) (types.Kind, error) {
	for _, k := range []types.Kind{
		types.KindBool, types.KindInt, types.KindFloat,
		types.KindString, types.KindTime, types.KindInterval,
	} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", name)
}

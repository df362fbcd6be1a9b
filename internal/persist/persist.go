// Package persist saves and restores a deferred-cleansing database — base
// tables, views, and the rules catalog — and makes live ingest durable.
//
// Everything on disk is one record format, the log (wal.go). A snapshot
// is a compacted log: a create_table record per table followed by
// append-batch records holding its rows and a build_index record per
// index, then the views and the rules, then an end record. Save writes one
// into a directory; a checkpoint is one inside a WAL root (checkpoint.go).
// Loading a snapshot and recovering a root are the same replay
// (durable.go): the log's records are applied in order to an empty
// catalog, and indexes and statistics are built once at the end.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// snapshotFile is the snapshot's name inside a Save directory.
const snapshotFile = "snapshot.log"

// snapshotFrameBytes caps a snapshot's append-batch frames, so writing and
// replaying a table streams through bounded buffers.
const snapshotFrameBytes = 1 << 20

// Save writes the database (and, when reg is non-nil, its rules) to dir as
// a snapshot. The file is written beside its final name, fsynced, and
// renamed over it, so a crash mid-Save leaves the previous snapshot whole;
// tmp files such a crash leaves behind are swept here.
func Save(db *catalog.Database, reg *core.Registry, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweepTmp(dir)
	return writeSnapshotFile(dir, snapshotFile, db, reg, 0, nil)
}

// Load restores a database and rules catalog from a directory written by
// Save, with indexes rebuilt and statistics re-analyzed. A snapshot that
// is not complete — cut short, corrupt, or missing its end record — is an
// error.
func Load(dir string) (*catalog.Database, *core.Registry, error) {
	rp := newReplayer()
	if _, _, _, err := replayFile(filepath.Join(dir, snapshotFile), true, rp.apply); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if old := oldSnapshot(dir); old != nil {
				return nil, nil, old
			}
		}
		return nil, nil, err
	}
	if err := rp.finish(); err != nil {
		return nil, nil, err
	}
	return rp.db, rp.reg, nil
}

// oldSnapshot reports a directory in the manifest.json + CSV snapshot
// layout of earlier versions, which this one does not read.
func oldSnapshot(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		return nil
	}
	return fmt.Errorf("persist: %s is a manifest.json + CSV snapshot from an earlier version; this build reads only log-format snapshots", dir)
}

// writeSnapshotFile writes a snapshot with header sequence seq to a tmp
// file in dir, fsyncs it, renames it to name and fsyncs dir, so name holds
// either its previous contents or the complete snapshot. An armed
// CheckpointCrash fault fails it between the fsync and the rename.
func writeSnapshotFile(dir, name string, db *catalog.Database, reg *core.Registry, seq uint64, faults *CrashFaults) error {
	f, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	err = writeSnapshot(f, db, reg, seq)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if faults != nil && faults.CheckpointCrash {
		// Die after the complete tmp write, before publication.
		faults.CheckpointCrash = false
		return fmt.Errorf("%w: kill during checkpoint", ErrInjectedCrash)
	}
	if err := os.Rename(f.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeSnapshot streams the database as a log to out. Rows are read a cell
// at a time from the segments (never boxed for the whole table), and
// append-batch frames are cut at snapshotFrameBytes, so no table makes an
// oversized record. A value its column does not admit is an error, as it
// is on replay. The output is deterministic: tables, their indexes and
// views in name order, rules in creation order.
func writeSnapshot(out io.Writer, db *catalog.Database, reg *core.Registry, seq uint64) error {
	w := bufio.NewWriterSize(out, 64<<10)
	if _, err := w.Write(logHeader(seq)); err != nil {
		return err
	}
	put := func(frame []byte, typ byte) error {
		if err := sealFrame(frame, typ); err != nil {
			return err
		}
		_, err := w.Write(frame)
		return err
	}
	ddl := func(d DDLRecord) error {
		frame, err := ddlFrame(d)
		if err != nil {
			return err
		}
		return put(frame, recDDL)
	}
	// Half the record limit leaves the batch head ample room.
	limit := min(snapshotFrameBytes, maxRecordBytes/2)
	var vals, row []byte
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		if err := ddl(NewTableDDL(name, t.Schema)); err != nil {
			return err
		}
		frame, rows := newFrame(), 0
		flush := func() error {
			frame = append(appendBatchHead(frame[:recHeaderSize], name, rows), vals...)
			vals, rows = vals[:0], 0
			return put(frame, recAppend)
		}
		for _, seg := range t.Segments() {
			for i := 0; i < seg.Len(); i++ {
				row = row[:0]
				for ord, c := range t.Schema.Columns {
					v := seg.Value(ord, i)
					if !c.Admits(v) {
						return fmt.Errorf("persist: %w", kindError(name, c, v))
					}
					row = types.AppendValue(row, v)
				}
				if rows > 0 && len(vals)+len(row) > limit {
					if err := flush(); err != nil {
						return fmt.Errorf("persist: table %s: %w", name, err)
					}
				}
				vals, rows = append(vals, row...), rows+1
			}
		}
		if rows > 0 {
			if err := flush(); err != nil {
				return fmt.Errorf("persist: table %s: %w", name, err)
			}
		}
		for ord, c := range t.Schema.Columns {
			if t.HasIndex(ord) {
				if err := ddl(DDLRecord{Op: DDLBuildIndex, Table: name, Column: c.Name}); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range db.ViewNames() {
		v, _ := db.View(name)
		if err := ddl(DDLRecord{Op: DDLCreateView, Name: name, SQL: sqlast.SQL(v)}); err != nil {
			return err
		}
	}
	if reg != nil {
		for _, r := range reg.All() {
			if err := put(append(newFrame(), r.Rule.String()...), recRule); err != nil {
				return err
			}
		}
	}
	if err := put(newFrame(), recEnd); err != nil {
		return err
	}
	return w.Flush()
}

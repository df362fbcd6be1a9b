// Atomic checkpoints for the WAL-backed durability root.
//
// A checkpoint is a snapshot file, checkpoint-%06d, whose header sequence
// number is the first WAL file it does not contain. It is written to a
// tmp-* file, fsynced, renamed to its name, and published by rewriting the
// CURRENT pointer file — the same tmp-write → fsync → rename discipline at
// every step, so recovery always finds either the old checkpoint or the
// complete new one, never a partial mix.
//
// The covered-WAL bookkeeping uses whole files, not offsets: Checkpoint
// runs with the engine's catalog write lock held (no append can race
// it), so after the snapshot lands it rotates the WAL to a fresh file
// with the next sequence number, the one the snapshot's header carries.
// Recovery replays exactly the files with seq >= that number.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
)

const (
	currentFile = "CURRENT"
	tmpPrefix   = "tmp-"
	ckptNameFmt = "checkpoint-%06d"
)

// Checkpoint snapshots the database into the WAL's durability root and
// rotates the log, bounding recovery to the records appended afterwards.
// The caller must hold the engine's catalog write lock: the snapshot and
// the rotation must see one consistent state.
func (w *WAL) Checkpoint(db *catalog.Database, reg *core.Registry) error {
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return fmt.Errorf("persist: wal unusable after earlier failure: %w", err)
	}
	next := w.seq + 1
	w.mu.Unlock()

	// A leftover checkpoint-<next> from an attempt that failed before
	// publication is unpublished by definition; the rename replaces it.
	name := fmt.Sprintf(ckptNameFmt, next)
	if err := writeSnapshotFile(w.dir, name, db, reg, next, w.faults); err != nil {
		if errors.Is(err, ErrInjectedCrash) {
			// The previous checkpoint plus the full WAL must still recover
			// the DB, and the orphaned tmp file is swept on reopen.
			w.mu.Lock()
			w.broken = ErrInjectedCrash
			w.mu.Unlock()
		}
		return fmt.Errorf("persist: checkpoint snapshot: %w", err)
	}
	if err := setCurrent(w.dir, name); err != nil {
		// Ambiguous publication: CURRENT may or may not name the new
		// checkpoint (setCurrent's rename can land without its dir fsync).
		// If it does, the snapshot claims replay starts at wal seq `next`,
		// but appends still target the un-rotated old file — any further
		// acked record would be silently dropped by recovery. Refuse all
		// further WAL use; reopening resolves either CURRENT state to the
		// full acked set.
		w.mu.Lock()
		if w.broken == nil {
			w.broken = err
		}
		w.mu.Unlock()
		return err
	}
	// Published. Everything from here is cleanup: rotate appends onto
	// wal-<next> and drop files the checkpoint contains; a crash at any
	// point leaves extra files that recovery deletes.
	if err := w.rotate(next - 1); err != nil {
		return err
	}
	sweepCheckpoints(w.dir, name)
	return nil
}

// setCurrent atomically points CURRENT at a checkpoint file name.
func setCurrent(dir, name string) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	if err := writeFileSync(tmp, []byte(name+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeFileSync writes path and fsyncs it before closing.
func writeFileSync(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCurrent returns the checkpoint file CURRENT names, or "" when the
// root has no published checkpoint yet.
func readCurrent(dir string) (string, error) {
	blob, err := os.ReadFile(filepath.Join(dir, currentFile))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(blob))
	if _, ok := seqOf(name, ckptNameFmt); !ok {
		return "", fmt.Errorf("persist: CURRENT names %q, not a checkpoint", name)
	}
	return name, nil
}

// sweepCheckpoints deletes checkpoint files other than keep. Best effort:
// a leftover file wastes disk, nothing else.
func sweepCheckpoints(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if _, ok := seqOf(e.Name(), ckptNameFmt); ok && e.Name() != keep {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// sweepTmp deletes tmp-* leftovers of snapshot writes that died before
// their rename.
func sweepTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

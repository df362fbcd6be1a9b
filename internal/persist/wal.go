// Write-ahead log for the deferred-cleansing engine's ingest path.
//
// The paper defers cleansing to query time so ingest can accept raw RFID
// reads cheaply and continuously; this file makes that ingest durable. A
// log file — a WAL file, or a snapshot (persist.go) — is a 16-byte header
// (magic, version, sequence number) followed by frames:
//
//	uint32 payload length (LE)
//	uint32 CRC32C over (type byte ‖ payload)
//	uint8  record type
//	payload
//
// An append-batch payload is the table name, a uvarint row count, then
// every row's values in the types value codec; replay checks each value's
// kind against the column it lands in. A DDL payload is a small JSON op,
// a rule payload the raw extended SQL-TS source.
//
// Torn writes are the expected failure: recovery reads records until the
// first short, oversized, or checksum-failing frame, truncates the file
// there, and resumes appending at the cut. A record is therefore durable
// iff it is entirely on disk with a valid checksum — there is no partial
// replay of a batch. For the same reason a payload over maxRecordBytes is
// refused before any of it is written: replay would read its frame as the
// end of the log and drop every record after it.
package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schema"
	"repro/internal/types"
)

// FsyncPolicy selects when acknowledged WAL writes are forced to disk.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every append acknowledgment: an acked batch
	// survives power loss. Concurrent committers share one fsync (group
	// commit).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer: an acked batch survives process
	// death immediately, and power loss after at most the sync interval.
	FsyncInterval
	// FsyncOff never syncs: the OS flushes at its leisure. Acked batches
	// survive process death (the write hit the page cache) but not
	// necessarily power loss.
	FsyncOff
)

// String renders the policy the way flags and docs spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy reads a policy name: always, interval, or off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or off)", s)
}

// CrashFaults injects durability failures for tests and the soak suite.
// The zero value injects nothing. The facade maps govern.Inject's WAL
// fields onto this so persist stays decoupled from the governance layer.
type CrashFaults struct {
	// TornWrite makes the next WAL append write only a prefix of its frame
	// and then fail as if the process died mid-write: the append reports
	// ErrInjectedCrash, and the WAL refuses further appends. Reopening the
	// directory must recover exactly the previously acknowledged records.
	TornWrite bool
	// SyncErr makes every fsync fail. Under FsyncAlways the append that
	// asked for the sync fails; the batch must not be acknowledged.
	SyncErr bool
	// CheckpointCrash makes Checkpoint write its complete temp file and
	// then fail before publishing it — the crash window in which the
	// previous checkpoint plus the full WAL must still recover the DB.
	CheckpointCrash bool
}

// ErrInjectedCrash reports a failure forced by CrashFaults.
var ErrInjectedCrash = errors.New("persist: injected crash fault")

// Record types.
const (
	recAppend byte = 1 // table name, row count, values
	recDDL    byte = 2 // DDLRecord JSON
	recRule   byte = 3 // raw extended SQL-TS source
	recEnd    byte = 4 // empty; the last record of a snapshot
)

const (
	walMagic      = "RWAL"
	walVersion    = 2
	walHeaderSize = 16
	recHeaderSize = 9
)

// maxRecordBytes bounds a single record's payload; a length prefix beyond
// it is treated as corruption, not an allocation request. A variable only
// so tests can lower it.
var maxRecordBytes = 1 << 28

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DDLRecord is the JSON payload of a DDL record.
type DDLRecord struct {
	// Op: create_table, create_view, or build_index.
	Op    string `json:"op"`
	Name  string `json:"name,omitempty"`
	Table string `json:"table,omitempty"`
	// Columns describe create_table schemas (kind names as Kind.String
	// renders them).
	Columns []colDef `json:"columns,omitempty"`
	// SQL is a create_view definition.
	SQL string `json:"sql,omitempty"`
	// Column is a build_index target.
	Column string `json:"column,omitempty"`
}

// DDL op names.
const (
	DDLCreateTable = "create_table"
	DDLCreateView  = "create_view"
	DDLBuildIndex  = "build_index"
)

type colDef struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// NewTableDDL builds a create_table record from a schema.
func NewTableDDL(name string, s *schema.Schema) DDLRecord {
	d := DDLRecord{Op: DDLCreateTable, Name: name}
	for _, c := range s.Columns {
		d.Columns = append(d.Columns, colDef{Name: c.Name, Kind: c.Kind.String()})
	}
	return d
}

// WAL is one open write-ahead log file inside a durability root. Appends
// are serialized by the caller (the engine holds its catalog write lock
// across every mutation); Sync coalesces concurrent committers into a
// shared fsync.
type WAL struct {
	dir      string
	policy   FsyncPolicy
	interval time.Duration
	faults   *CrashFaults
	// OnFsync, when set, observes each fsync's duration (metrics).
	OnFsync func(time.Duration)

	mu     sync.Mutex // guards f, seq, broken, rotation
	f      *os.File
	seq    uint64
	size   atomic.Int64 // end offset of the current file
	broken error        // sticky: set after a torn write or failed rotation

	syncMu sync.Mutex
	synced int64 // offset known durable in the current file

	tickStop chan struct{}
	tickDone chan struct{}
}

const walNameFmt = "wal-%06d.log"

// walFileName renders the canonical wal file name for a sequence number.
func walFileName(seq uint64) string { return fmt.Sprintf(walNameFmt, seq) }

// seqOf parses a file name rendered from format and a sequence number. ok
// is false unless name is exactly that rendering, so a stray copy such as
// "wal-000001.log~" is never taken for the file it copies.
func seqOf(name, format string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, format, &seq); err != nil || fmt.Sprintf(format, seq) != name {
		return 0, false
	}
	return seq, true
}

// logHeader renders a log file's header.
func logHeader(seq uint64) []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	return hdr
}

// createWALFile writes a fresh wal file (header only) and syncs it and
// its directory, so the file survives a crash immediately after rotation.
func createWALFile(dir string, seq uint64) (*os.File, error) {
	path := filepath.Join(dir, walFileName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(logHeader(seq)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openWALAt opens an existing wal file for appending at offset end (the
// recovery-determined good end), truncating anything after it.
func openWALAt(dir string, seq uint64, end int64) (*os.File, error) {
	path := filepath.Join(dir, walFileName(seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	// Persist the cut: a torn record must not reappear after another crash.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// start finishes WAL construction: interval ticker, size bookkeeping.
func (w *WAL) start(end int64) {
	w.size.Store(end)
	w.synced = end
	if w.policy == FsyncInterval {
		if w.interval <= 0 {
			w.interval = 100 * time.Millisecond
		}
		w.tickStop = make(chan struct{})
		w.tickDone = make(chan struct{})
		go func() {
			defer close(w.tickDone)
			t := time.NewTicker(w.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := w.Sync(); err != nil && w.brokenErr() != nil {
						// A real fsync failure broke the WAL: appends and
						// commits now refuse, so keep the failure loud by
						// not retrying a sync the kernel may falsely
						// report as clean.
						return
					}
				case <-w.tickStop:
					return
				}
			}
		}()
	}
}

// Size reports the current wal file's end offset in bytes.
func (w *WAL) Size() int64 { return w.size.Load() }

// Seq reports the current wal file's sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Dir reports the durability root the WAL lives in.
func (w *WAL) Dir() string { return w.dir }

// Policy reports the WAL's fsync policy.
func (w *WAL) Policy() FsyncPolicy { return w.policy }

// Empty reports whether the current wal file holds no records.
func (w *WAL) Empty() bool { return w.size.Load() <= walHeaderSize }

// brokenErr reports the sticky failure that made the WAL unusable, nil
// while it is healthy.
func (w *WAL) brokenErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// newFrame returns an empty record frame: header room, after which the
// caller appends the payload before sealFrame fills the header in.
func newFrame() []byte { return make([]byte, recHeaderSize, 4<<10) }

// sealFrame fills in the header of frame, a record of type typ whose
// payload is everything after the header room. It refuses a payload over
// maxRecordBytes.
func sealFrame(frame []byte, typ byte) error {
	n := len(frame) - recHeaderSize
	if n > maxRecordBytes {
		return fmt.Errorf("persist: %d-byte record exceeds the %d-byte limit", n, maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	frame[8] = typ
	// The type byte and the payload are contiguous, so one pass covers both.
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crcTable))
	return nil
}

// appendBatchHead appends the head of an append-batch payload to frame:
// the table name, then the row count. The rows' values follow it.
func appendBatchHead(frame []byte, table string, rows int) []byte {
	return binary.AppendUvarint(types.AppendValue(frame, types.NewString(table)), uint64(rows))
}

// ddlFrame encodes a DDL record as an unsealed frame.
func ddlFrame(d DDLRecord) ([]byte, error) {
	blob, err := json.Marshal(d)
	return append(newFrame(), blob...), err
}

// append seals and writes one record frame. The caller serializes appends
// (the engine's catalog write lock); durability is Sync's job. An
// oversized record is refused with the WAL left usable.
func (w *WAL) append(typ byte, frame []byte) error {
	if err := sealFrame(frame, typ); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("persist: wal unusable after earlier failure: %w", w.broken)
	}
	if w.faults != nil && w.faults.TornWrite {
		w.faults.TornWrite = false
		// Simulate dying mid-write: half the frame reaches the file, the
		// rest never will. The record must not be acknowledged and must be
		// truncated away on recovery.
		torn := frame[:recHeaderSize+(len(frame)-recHeaderSize)/2]
		if _, err := w.f.Write(torn); err == nil {
			_ = w.f.Sync()
		}
		w.size.Add(int64(len(torn)))
		w.broken = ErrInjectedCrash
		return fmt.Errorf("%w: torn wal write", ErrInjectedCrash)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.broken = err
		return fmt.Errorf("persist: wal append: %w", err)
	}
	w.size.Add(int64(len(frame)))
	return nil
}

// AppendBatch logs one append-batch record. The batch is one record, so
// recovery replays it entirely or not at all.
func (w *WAL) AppendBatch(table string, rows []schema.Row) error {
	frame := appendBatchHead(newFrame(), table, len(rows))
	for _, r := range rows {
		for _, v := range r {
			frame = types.AppendValue(frame, v)
		}
	}
	return w.append(recAppend, frame)
}

// AppendDDL logs one DDL record.
func (w *WAL) AppendDDL(d DDLRecord) error {
	frame, err := ddlFrame(d)
	if err != nil {
		return err
	}
	return w.append(recDDL, frame)
}

// AppendRule logs one rule-create record (the raw extended SQL-TS source).
func (w *WAL) AppendRule(src string) error {
	return w.append(recRule, append(newFrame(), src...))
}

// Sync forces everything appended so far to disk. Concurrent callers
// coalesce: a committer whose record a neighbor's fsync already covered
// returns without touching the disk (group commit).
//
// If the target offset was already covered when Sync is entered the call
// succeeds without touching the file, even if the file has since been
// rotated away by a checkpoint: the rotation only happens after the
// checkpoint containing those records was published, so they are durable
// regardless. This is what keeps a committer's Commit truthful when a
// concurrent Checkpoint rotates the WAL between its append and its fsync.
//
// A real fsync failure is unrecoverable: the kernel may have dropped the
// dirty pages and cleared the error, so a later "successful" fsync would
// acknowledge records sitting after a hole that never reached disk. Sync
// therefore marks the WAL broken, and every subsequent append, commit,
// and sync refuses until the root is reopened (recovery truncates to the
// verified durable prefix).
func (w *WAL) Sync() error {
	target := w.size.Load()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= target {
		return nil
	}
	w.mu.Lock()
	f, broken := w.f, w.broken
	w.mu.Unlock()
	if broken != nil {
		return fmt.Errorf("persist: wal unusable after earlier failure: %w", broken)
	}
	if f == nil {
		return errors.New("persist: wal closed")
	}
	// The injected fault is a transient fsync error (nothing claims the
	// pages were dropped), so it does not break the WAL — tests clear the
	// fault and retry the same commit.
	if w.faults != nil && w.faults.SyncErr {
		return fmt.Errorf("%w: wal fsync error", ErrInjectedCrash)
	}
	// Capture the end before syncing: the fsync covers at least this much.
	cur := w.size.Load()
	start := time.Now()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		if w.broken == nil {
			w.broken = err
		}
		w.mu.Unlock()
		return fmt.Errorf("persist: wal fsync: %w", err)
	}
	if w.OnFsync != nil {
		w.OnFsync(time.Since(start))
	}
	if cur > w.synced {
		w.synced = cur
	}
	return nil
}

// Commit makes the preceding appends as durable as the configured policy
// promises: a blocking fsync under always, nothing under interval (the
// ticker owns syncing) or off.
func (w *WAL) Commit() error {
	if w.policy == FsyncAlways {
		return w.Sync()
	}
	return nil
}

// rotate switches appends to a fresh wal file with the next sequence
// number and deletes files at or below covered (they are fully contained
// in a published checkpoint). Called by Checkpoint with the engine's
// write lock held, so no append races the switch; syncMu is held for the
// whole swap so an in-flight committer's Sync either finishes on the old
// file before it is closed or starts on the new one — never in between.
// (Lock order is syncMu before mu everywhere, matching Sync.)
func (w *WAL) rotate(covered uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	next := w.seq + 1
	nf, err := createWALFile(w.dir, next)
	if err != nil {
		w.broken = err
		return fmt.Errorf("persist: wal rotate: %w", err)
	}
	old := w.f
	w.f = nf
	w.seq = next
	w.size.Store(walHeaderSize)
	w.synced = walHeaderSize
	if old != nil {
		_ = old.Close()
	}
	names, err := os.ReadDir(w.dir)
	if err == nil {
		for _, e := range names {
			if seq, ok := seqOf(e.Name(), walNameFmt); ok && seq <= covered {
				_ = os.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
	}
	return nil
}

// Close stops the interval ticker, makes a best-effort final sync, and
// closes the file. The WAL is unusable afterwards.
func (w *WAL) Close() error {
	if w.tickStop != nil {
		close(w.tickStop)
		<-w.tickDone
		w.tickStop = nil
	}
	var syncErr error
	if w.policy != FsyncOff {
		syncErr = w.Sync()
	}
	// syncMu excludes any straggling committer's fsync from racing the
	// close (same order as Sync and rotate: syncMu before mu).
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return syncErr
	}
	err := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return syncErr
	}
	return err
}

// Record is one decoded log record, handed to replay callbacks.
type Record struct {
	Type byte
	// Payload aliases the read buffer; callbacks must not retain it.
	Payload []byte
}

// replayFile reads the records of a log file, calling fn for each intact
// one, and returns the header's sequence number, the offset just past the
// last intact record (the good end), and the number of records fn saw.
//
// A WAL file is read tolerantly: a torn or corrupt frame is the expected
// crash signature and silently ends the durable prefix (a file torn inside
// its header has good end 0). A snapshot is read strictly: every frame
// must be intact and the last must be the end record, which fn does not
// see; anything else is an error, never a loaded prefix. In both modes
// I/O failures and fn's errors are returned.
func replayFile(path string, strict bool, fn func(Record) error) (seq uint64, good, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	// bad reports damage at the good end: the end of the log, or under
	// strict an error.
	bad := func(what string) error {
		if !strict {
			return nil
		}
		return fmt.Errorf("persist: %s: %s at offset %d", path, what, good)
	}
	hdr := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, bad("torn header")
	}
	if string(hdr[:4]) != walMagic {
		return 0, 0, 0, fmt.Errorf("persist: %s: not a log file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != walVersion {
		return 0, 0, 0, fmt.Errorf("persist: %s: log format version %d, this build reads version %d only (version 1 was the JSON/CSV format)", path, v, walVersion)
	}
	seq, good = binary.LittleEndian.Uint64(hdr[8:]), walHeaderSize
	ended := false
	var payload []byte
	for good < size {
		if ended {
			return seq, good, n, bad("data after the end record")
		}
		if _, err := io.ReadFull(r, hdr[:recHeaderSize]); err != nil {
			return seq, good, n, bad("torn record header")
		}
		plen := int64(binary.LittleEndian.Uint32(hdr))
		if plen > int64(maxRecordBytes) || size-good-recHeaderSize < plen {
			return seq, good, n, bad("torn or oversized record")
		}
		payload = slices.Grow(payload[:0], int(plen))[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return seq, good, n, bad("torn record")
		}
		typ := hdr[8]
		crc := crc32.Update(crc32.Update(0, crcTable, hdr[8:9]), crcTable, payload)
		if crc != binary.LittleEndian.Uint32(hdr[4:]) {
			return seq, good, n, bad("checksum mismatch")
		}
		if strict && typ == recEnd {
			ended = true
		} else if err := fn(Record{Type: typ, Payload: payload}); err != nil {
			return seq, good, n, err
		} else {
			n++
		}
		good += recHeaderSize + plen
	}
	if strict && !ended {
		return seq, good, n, bad("no end record")
	}
	return seq, good, n, nil
}

// walFiles lists the root's wal files by ascending sequence number.
func walFiles(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := seqOf(e.Name(), walNameFmt); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and file creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

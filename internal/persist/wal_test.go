package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colvec"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// walOp is one engine mutation in a randomized durability workload. Each
// op is applied to the live catalog and logged to the WAL, mirroring the
// facade's write path; the test then corrupts the log and checks that
// recovery reproduces exactly the ops whose records survived.
type walOp struct {
	kind   string // create, append, index, view, rule, checkpoint
	table  string
	column string
	kinds  []types.Kind // create: the table's column kinds
	rows   []schema.Row
	src    string // rule source or view SQL
	name   string // view / rule name

	// Bookkeeping stamped at log time.
	seq uint64 // wal file the op's record landed in
	end int64  // file offset just past the op's record
}

// opKinds the generator draws from, weighted toward appends.
var opKinds = []string{"append", "append", "append", "append", "create", "index", "view", "rule", "checkpoint"}

// genOps builds a random mutation script. The first op always creates a
// base table so appends have somewhere to go.
func genOps(rng *rand.Rand, n int) []walOp {
	tables := []string{}
	cols := map[string][]types.Kind{}
	allKinds := []types.Kind{
		types.KindBool, types.KindInt, types.KindFloat,
		types.KindString, types.KindTime, types.KindInterval,
	}
	newTable := func() walOp {
		name := fmt.Sprintf("t%d", len(tables))
		// epc/rtime first: rules need the cluster/sequence key columns.
		kinds := []types.Kind{types.KindString, types.KindTime}
		for i := 0; i < 1+rng.Intn(4); i++ {
			kinds = append(kinds, allKinds[rng.Intn(len(allKinds))])
		}
		tables = append(tables, name)
		cols[name] = kinds
		return walOp{kind: "create", table: name, kinds: kinds}
	}
	ops := []walOp{newTable()}
	views, rules := 0, 0
	for len(ops) < n {
		switch k := opKinds[rng.Intn(len(opKinds))]; k {
		case "create":
			ops = append(ops, newTable())
		case "append":
			tbl := tables[rng.Intn(len(tables))]
			rows := make([]schema.Row, 1+rng.Intn(8))
			for i := range rows {
				row := make(schema.Row, len(cols[tbl]))
				for j, kind := range cols[tbl] {
					row[j] = randValue(rng, kind)
				}
				rows[i] = row
			}
			ops = append(ops, walOp{kind: "append", table: tbl, rows: rows})
		case "index":
			tbl := tables[rng.Intn(len(tables))]
			ord := rng.Intn(len(cols[tbl]))
			ops = append(ops, walOp{kind: "index", table: tbl, column: colName(ord)})
		case "view":
			tbl := tables[rng.Intn(len(tables))]
			name := fmt.Sprintf("v%d", views)
			views++
			ops = append(ops, walOp{kind: "view", table: tbl, name: name,
				src: fmt.Sprintf("select epc from %s where epc is not null", tbl)})
		case "rule":
			tbl := tables[rng.Intn(len(tables))]
			name := fmt.Sprintf("r%d", rules)
			rules++
			ops = append(ops, walOp{kind: "rule", name: name,
				src: fmt.Sprintf("DEFINE %s ON %s AS (A, B) WHERE A.epc = B.epc AND B.rtime - A.rtime < 5 mins ACTION DELETE B", name, tbl)})
		case "checkpoint":
			ops = append(ops, walOp{kind: "checkpoint"})
		}
	}
	return ops
}

func randValue(rng *rand.Rand, k types.Kind) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null
	}
	switch k {
	case types.KindBool:
		return types.NewBool(rng.Intn(2) == 0)
	case types.KindInt:
		return types.NewInt(rng.Int63() - rng.Int63())
	case types.KindFloat:
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case types.KindString:
		switch rng.Intn(5) {
		case 0:
			return types.NewString("")
		case 1:
			return types.NewString(`\N`) // looks like the null marker
		case 2:
			return types.NewString("comma, \"quote\"\nline")
		default:
			return types.NewString(fmt.Sprintf("epc-%d", rng.Intn(1000)))
		}
	case types.KindTime:
		return types.NewTime(rng.Int63n(1 << 40))
	case types.KindInterval:
		return types.NewInterval(rng.Int63n(1 << 30))
	}
	return types.Null
}

// applyRef applies one op to a reference catalog without any WAL.
func applyRef(t *testing.T, db *catalog.Database, reg *core.Registry, op walOp, schemas map[string]*schema.Schema) {
	t.Helper()
	switch op.kind {
	case "create":
		if err := db.AddTable(storage.NewTable(op.table, schemas[op.table])); err != nil {
			t.Fatal(err)
		}
	case "append":
		tab, _ := db.Table(op.table)
		for _, r := range op.rows {
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	case "index":
		tab, _ := db.Table(op.table)
		if err := tab.BuildIndex(op.column); err != nil {
			t.Fatal(err)
		}
	case "view":
		stmt, err := sqlparser.Parse(op.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddView(op.name, stmt); err != nil {
			t.Fatal(err)
		}
	case "rule":
		if _, err := reg.Define(op.src); err != nil {
			t.Fatal(err)
		}
	case "checkpoint":
		// No catalog effect.
	}
}

// applyLive applies one op to the durable catalog AND logs it, mirroring
// the facade's order (log, then apply), then stamps the op with its WAL
// position.
func applyLive(t *testing.T, db *catalog.Database, reg *core.Registry, w *WAL, op *walOp, schemas map[string]*schema.Schema) {
	t.Helper()
	switch op.kind {
	case "create":
		if err := w.AppendDDL(NewTableDDL(op.table, schemas[op.table])); err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(storage.NewTable(op.table, schemas[op.table])); err != nil {
			t.Fatal(err)
		}
	case "append":
		if err := w.AppendBatch(op.table, op.rows); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(op.table)
		for _, r := range op.rows {
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	case "index":
		if err := w.AppendDDL(DDLRecord{Op: DDLBuildIndex, Table: op.table, Column: op.column}); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(op.table)
		if err := tab.BuildIndex(op.column); err != nil {
			t.Fatal(err)
		}
	case "view":
		if err := w.AppendDDL(DDLRecord{Op: DDLCreateView, Name: op.name, SQL: op.src}); err != nil {
			t.Fatal(err)
		}
		stmt, err := sqlparser.Parse(op.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddView(op.name, stmt); err != nil {
			t.Fatal(err)
		}
	case "rule":
		if _, err := reg.Define(op.src); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendRule(op.src); err != nil {
			t.Fatal(err)
		}
	case "checkpoint":
		if err := w.Checkpoint(db, reg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	op.seq, op.end = w.Seq(), w.Size()
}

// colName names the generator's columns: the rule-key pair then c2, c3...
func colName(j int) string {
	switch j {
	case 0:
		return "epc"
	case 1:
		return "rtime"
	}
	return fmt.Sprintf("c%d", j)
}

// buildSchemas materializes the schema each create op declared, so live
// and reference replays agree byte for byte.
func buildSchemas(ops []walOp) map[string]*schema.Schema {
	schemas := map[string]*schema.Schema{}
	for _, op := range ops {
		if op.kind != "create" {
			continue
		}
		s := &schema.Schema{}
		for j, kind := range op.kinds {
			s.Columns = append(s.Columns, schema.Col(op.table, colName(j), kind))
		}
		schemas[op.table] = s
	}
	return schemas
}

// snapshotBytes renders a catalog+registry with the deterministic
// snapshot writer, for byte-level comparison of recovered vs reference DBs.
func snapshotBytes(t *testing.T, db *catalog.Database, reg *core.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, db, reg, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareSnapshots(t *testing.T, got, want []byte, ctx string) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s: recovered snapshot (%d bytes) differs from the reference (%d bytes) at offset %d", ctx, len(got), len(want), i)
}

// TestRecoveryAtEveryFaultPoint is the durability property test: a random
// mutation script is logged and applied, the process "dies" (the log is
// truncated at a random byte, or a random byte is flipped), and reopening
// the root must yield a catalog byte-identical to a reference DB that
// applied exactly the ops whose records survived in the durable prefix.
func TestRecoveryAtEveryFaultPoint(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			ops := genOps(rng, 12+rng.Intn(20))
			schemas := buildSchemas(ops)

			dir := t.TempDir()
			db, reg, w, info, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			if info.Checkpoint != "" || info.ReplayedRecords != 0 {
				t.Fatalf("fresh root recovered something: %+v", info)
			}
			for i := range ops {
				applyLive(t, db, reg, w, &ops[i], schemas)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Corrupt the live (highest-seq) wal file at a random point.
			maxSeq := ops[len(ops)-1].seq
			path := filepath.Join(dir, walFileName(maxSeq))
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			size := st.Size()
			cut := walHeaderSize + rng.Int63n(size-walHeaderSize+1)
			mode := "truncate"
			if rng.Intn(2) == 0 && cut < size {
				mode = "bitflip"
				flipByte(t, path, cut)
			} else {
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			}

			// Reference: exactly the ops whose records are inside the
			// durable prefix — earlier wal files (checkpointed) entirely,
			// and the live file up to the cut.
			refDB := catalog.NewDatabase()
			refReg := core.NewRegistry(refDB)
			survived := 0
			for _, op := range ops {
				if op.seq < maxSeq || op.end <= cut {
					applyRef(t, refDB, refReg, op, schemas)
					survived++
				}
			}

			db2, reg2, w2, info2, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncOff})
			if err != nil {
				t.Fatalf("recovery failed (%s at %d/%d): %v", mode, cut, size, err)
			}
			defer w2.Close()
			ctx := fmt.Sprintf("seed %d, %s at %d/%d, %d/%d ops survive",
				seed, mode, cut, size, survived, len(ops))
			compareSnapshots(t, snapshotBytes(t, db2, reg2), snapshotBytes(t, refDB, refReg), ctx)
			if cut < size && info2.TruncatedBytes == 0 && mode == "truncate" && cut != lastGoodEnd(ops, maxSeq, cut) {
				t.Errorf("%s: truncation not reported: %+v", ctx, info2)
			}

			// The recovered WAL must accept and persist new appends.
			if tab, ok := db2.Table("t0"); ok {
				row := make(schema.Row, tab.Schema.Len())
				for j := range row {
					row[j] = types.Null
				}
				if err := w2.AppendBatch("t0", []schema.Row{row}); err != nil {
					t.Fatal(err)
				}
				if err := tab.Append(row); err != nil {
					t.Fatal(err)
				}
				want := tab.RowCount()
				if err := w2.Close(); err != nil {
					t.Fatal(err)
				}
				db3, _, w3, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				defer w3.Close()
				tab3, _ := db3.Table("t0")
				if tab3.RowCount() != want {
					t.Errorf("%s: append after recovery lost: %d rows, want %d", ctx, tab3.RowCount(), want)
				}
			}
		})
	}
}

// lastGoodEnd finds the largest op end at or below cut in file seq.
func lastGoodEnd(ops []walOp, seq uint64, cut int64) int64 {
	end := int64(walHeaderSize)
	for _, op := range ops {
		if op.seq == seq && op.end <= cut && op.end > end {
			end = op.end
		}
	}
	return end
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestTornWriteFaultRecovers injects a torn append mid-stream: the failed
// batch must not survive recovery, everything acked before it must.
func TestTornWriteFaultRecovers(t *testing.T) {
	dir := t.TempDir()
	faults := &CrashFaults{}
	db, reg, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	s := schema.New(schema.Col("r", "epc", types.KindString))
	if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(storage.NewTable("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch("r", []schema.Row{{types.NewString("acked")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	faults.TornWrite = true
	err = w.AppendBatch("r", []schema.Row{{types.NewString("torn-away")}})
	if err == nil {
		t.Fatal("torn write must fail the append")
	}
	// The WAL is now unusable: later appends must refuse too.
	if err := w.AppendBatch("r", []schema.Row{{types.NewString("after")}}); err == nil {
		t.Fatal("append after torn write must fail")
	}
	if err := w.Checkpoint(db, reg); err == nil {
		t.Fatal("checkpoint after torn write must fail")
	}
	w.Close()

	db2, _, w2, info, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.TruncatedBytes == 0 {
		t.Errorf("torn tail not counted: %+v", info)
	}
	tab, _ := db2.Table("r")
	if tab.RowCount() != 1 {
		t.Fatalf("recovered %d rows, want the 1 acked row", tab.RowCount())
	}
	if got := tab.AllRows()[0][0].Str(); got != "acked" {
		t.Fatalf("recovered row = %q", got)
	}
}

// TestSyncErrFaultFailsCommit: under FsyncAlways a failing fsync must
// surface on Commit so the engine never acknowledges the batch.
func TestSyncErrFaultFailsCommit(t *testing.T) {
	dir := t.TempDir()
	faults := &CrashFaults{SyncErr: true}
	_, _, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendRule("DEFINE x ON t AS (A, B) WHERE A.c = B.c ACTION DELETE B"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("commit with failing fsync must error")
	}
	faults.SyncErr = false
	if err := w.Commit(); err != nil {
		t.Fatalf("commit after fault cleared: %v", err)
	}
}

// TestCheckpointCrashRecoversFromPrevious kills a checkpoint after its
// temp file is complete but before publication: recovery must use the
// previous checkpoint plus the full WAL, and sweep the orphaned tmp file.
func TestCheckpointCrashRecoversFromPrevious(t *testing.T) {
	dir := t.TempDir()
	faults := &CrashFaults{}
	db, reg, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	s := schema.New(schema.Col("r", "n", types.KindInt))
	if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(storage.NewTable("r", s)); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("r")
	append1 := func(n int64) {
		t.Helper()
		if err := w.AppendBatch("r", []schema.Row{{types.NewInt(n)}}); err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(schema.Row{types.NewInt(n)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	append1(1)
	if err := w.Checkpoint(db, reg); err != nil { // good checkpoint
		t.Fatal(err)
	}
	append1(2)

	faults.CheckpointCrash = true
	if err := w.Checkpoint(db, reg); err == nil {
		t.Fatal("crashed checkpoint must error")
	}
	w.Close()

	db2, _, w2, info, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Checkpoint == "" {
		t.Error("previous checkpoint not used")
	}
	tab2, _ := db2.Table("r")
	if tab2.RowCount() != 2 {
		t.Fatalf("recovered %d rows, want 2 (checkpoint row + replayed row)", tab2.RowCount())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("orphaned %s not swept", e.Name())
		}
	}
}

// TestCheckpointOverLeftoverDir: a checkpoint-N file left by an attempt
// that failed before publication must not wedge the next checkpoint — it
// is unpublished, so the new snapshot replaces it.
func TestCheckpointOverLeftoverDir(t *testing.T) {
	dir := t.TempDir()
	db, reg, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := schema.New(schema.Col("r", "n", types.KindInt))
	if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(storage.NewTable("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Plant the wreck of a failed earlier attempt: the name the next
	// checkpoint will want, holding stale bytes.
	stale := filepath.Join(dir, fmt.Sprintf(ckptNameFmt, w.Seq()+1))
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(db, reg); err != nil {
		t.Fatalf("checkpoint over leftover file: %v", err)
	}
	if _, _, _, err := replayFile(stale, true, func(Record) error { return nil }); err != nil {
		t.Errorf("republished checkpoint is not a whole snapshot: %v", err)
	}
	db2, _, w2, info, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Checkpoint == "" {
		t.Error("republished checkpoint not used by recovery")
	}
	tab, _ := db2.Table("r")
	if tab == nil {
		t.Fatal("table lost across the republished checkpoint")
	}
}

// TestCheckpointBoundsReplay: records before a checkpoint are not
// replayed (their files are gone), records after are.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	db, reg, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s := schema.New(schema.Col("r", "n", types.KindInt))
	if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(storage.NewTable("r", s)); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("r")
	for i := 0; i < 10; i++ {
		if err := w.AppendBatch("r", []schema.Row{{types.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
		tab.Append(schema.Row{types.NewInt(int64(i))})
		if i == 4 {
			if err := w.Checkpoint(db, reg); err != nil {
				t.Fatal(err)
			}
			if w.Seq() != 2 {
				t.Fatalf("seq after checkpoint = %d, want 2", w.Seq())
			}
			if _, err := os.Stat(filepath.Join(dir, walFileName(1))); !os.IsNotExist(err) {
				t.Error("covered wal file not deleted")
			}
		}
	}
	w.Close()

	db2, _, w2, info, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Checkpoint == "" || info.ReplayedRecords != 5 || info.ReplayedRows != 5 {
		t.Fatalf("recovery info = %+v, want checkpoint + 5 replayed records", info)
	}
	tab2, _ := db2.Table("r")
	if tab2.RowCount() != 10 {
		t.Fatalf("recovered %d rows, want 10", tab2.RowCount())
	}
}

// TestSeedCheckpointsImmediately: a fresh root with a seed callback is
// checkpointed before OpenDurable returns, so a crash right after open
// loses nothing.
func TestSeedCheckpointsImmediately(t *testing.T) {
	dir := t.TempDir()
	seed := func() (*catalog.Database, *core.Registry, error) {
		db, reg := buildSampleDB(t)
		return db, reg, nil
	}
	db, _, w, info, err := OpenDurable(dir, seed, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Seeded {
		t.Error("seed not reported")
	}
	tab, _ := db.Table("reads")
	want := tab.RowCount()
	w.Close()

	// Reopen with a seed that must NOT run again.
	db2, _, w2, info2, err := OpenDurable(dir, func() (*catalog.Database, *core.Registry, error) {
		t.Fatal("seed ran on a non-empty root")
		return nil, nil, nil
	}, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info2.Seeded || info2.Checkpoint == "" {
		t.Fatalf("second open info = %+v", info2)
	}
	tab2, _ := db2.Table("reads")
	if tab2.RowCount() != want {
		t.Fatalf("seeded rows lost: %d, want %d", tab2.RowCount(), want)
	}
}

// TestAtomicSaveKeepsPreviousSnapshot: Save over an existing snapshot
// must leave either the old or the new state, and the tmp file a crashed
// Save leaves beside a good snapshot is ignored by Load and swept by the
// next Save.
func TestAtomicSaveKeepsPreviousSnapshot(t *testing.T) {
	db, reg := buildSampleDB(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	// Grow and save again over the same directory.
	tab, _ := db.Table("reads")
	tab.Append(schema.Row{types.NewString("e9"), types.NewTime(9000), types.NewString("dock"),
		types.NewInt(1), types.NewFloat(1), types.NewBool(true), types.NewInterval(1)})
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := db2.Table("reads")
	if t2.RowCount() != tab.RowCount() {
		t.Fatalf("second save lost rows: %d vs %d", t2.RowCount(), tab.RowCount())
	}

	// Crash signature: a Save died after writing part of its tmp file.
	good, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, tmpPrefix+"crashed")
	if err := os.WriteFile(leftover, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	db3, _, err := Load(dir)
	if err != nil {
		t.Fatalf("load beside a leftover tmp file: %v", err)
	}
	t3, _ := db3.Table("reads")
	if t3.RowCount() != tab.RowCount() {
		t.Fatalf("load beside a leftover tmp file: %d rows, want %d", t3.RowCount(), tab.RowCount())
	}
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("leftover tmp file not swept by the next Save: %v", err)
	}
}

// TestTinySegmentRoundTrip persists a table sealed into many tiny
// segments and replays an equivalent WAL, checking both paths reproduce
// every row at segment boundaries.
func TestTinySegmentRoundTrip(t *testing.T) {
	old := storage.DefaultSegmentRows
	storage.DefaultSegmentRows = 64
	t.Cleanup(func() { storage.DefaultSegmentRows = old })

	s := schema.New(
		schema.Col("tiny", "n", types.KindInt),
		schema.Col("tiny", "s", types.KindString),
	)
	const rows = 64*3 + 17 // three sealed segments plus a live tail
	mk := func() *storage.Table {
		tab := storage.NewTable("tiny", s)
		for i := 0; i < rows; i++ {
			tab.Append(schema.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("s%d", i%7))})
		}
		return tab
	}

	// Snapshot path.
	db := catalog.NewDatabase()
	db.AddTable(mk())
	dir := t.TempDir()
	if err := Save(db, nil, dir); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkTiny := func(db *catalog.Database, path string) {
		t.Helper()
		tab, _ := db.Table("tiny")
		if tab.RowCount() != rows {
			t.Fatalf("%s: %d rows, want %d", path, tab.RowCount(), rows)
		}
		for i, r := range tab.AllRows() {
			if r[0].Int() != int64(i) {
				t.Fatalf("%s: row %d = %v", path, i, r[0])
			}
		}
	}
	checkTiny(db2, "snapshot")

	// WAL replay path: log the same rows in uneven batches.
	wdir := t.TempDir()
	db3, _, w, _, err := OpenDurable(wdir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDDL(NewTableDDL("tiny", s)); err != nil {
		t.Fatal(err)
	}
	db3.AddTable(storage.NewTable("tiny", s))
	tab3, _ := db3.Table("tiny")
	for i := 0; i < rows; {
		batch := 29
		if i+batch > rows {
			batch = rows - i
		}
		var rs []schema.Row
		for j := 0; j < batch; j++ {
			row := schema.Row{types.NewInt(int64(i + j)), types.NewString(fmt.Sprintf("s%d", (i+j)%7))}
			rs = append(rs, row)
			tab3.Append(row)
		}
		if err := w.AppendBatch("tiny", rs); err != nil {
			t.Fatal(err)
		}
		i += batch
	}
	w.Close()
	db4, _, w4, _, err := OpenDurable(wdir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w4.Close()
	checkTiny(db4, "wal replay")
}

// TestDictOverflowRoundTrip persists a string column with more distinct
// values than the dictionary cap, forcing the raw (non-dict) encoding,
// and checks both the snapshot and WAL-replay paths reproduce it.
func TestDictOverflowRoundTrip(t *testing.T) {
	n := colvec.DictMaxCard + 512
	if n > storage.DefaultSegmentRows {
		t.Skipf("segment rows %d too small for dict overflow in one segment", storage.DefaultSegmentRows)
	}
	s := schema.New(schema.Col("wide", "s", types.KindString))
	db := catalog.NewDatabase()
	tab := storage.NewTable("wide", s)
	for i := 0; i < n; i++ {
		tab.Append(schema.Row{types.NewString(fmt.Sprintf("unique-value-%06d", i))})
	}
	db.AddTable(tab)

	dir := t.TempDir()
	if err := Save(db, nil, dir); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := db2.Table("wide")
	if tab2.RowCount() != n {
		t.Fatalf("snapshot: %d rows, want %d", tab2.RowCount(), n)
	}
	for i, r := range tab2.AllRows() {
		if want := fmt.Sprintf("unique-value-%06d", i); r[0].Str() != want {
			t.Fatalf("snapshot row %d = %q, want %q", i, r[0].Str(), want)
		}
	}

	// WAL replay of the same overflowing column.
	wdir := t.TempDir()
	db3, _, w, _, err := OpenDurable(wdir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDDL(NewTableDDL("wide", s)); err != nil {
		t.Fatal(err)
	}
	db3.AddTable(storage.NewTable("wide", s))
	tab3, _ := db3.Table("wide")
	var rs []schema.Row
	for i := 0; i < n; i++ {
		row := schema.Row{types.NewString(fmt.Sprintf("unique-value-%06d", i))}
		rs = append(rs, row)
		tab3.Append(row)
	}
	if err := w.AppendBatch("wide", rs); err != nil {
		t.Fatal(err)
	}
	w.Close()
	db4, _, w4, _, err := OpenDurable(wdir, nil, DurableOpts{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w4.Close()
	tab4, _ := db4.Table("wide")
	if tab4.RowCount() != n {
		t.Fatalf("wal replay: %d rows, want %d", tab4.RowCount(), n)
	}
	for i, r := range tab4.AllRows() {
		if want := fmt.Sprintf("unique-value-%06d", i); r[0].Str() != want {
			t.Fatalf("wal replay row %d = %q, want %q", i, r[0].Str(), want)
		}
	}
}

// TestFsyncPolicyStrings pins the flag spellings.
func TestFsyncPolicyStrings(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy must fail")
	}
}

// TestStrayLogNamesAreIgnored: a file named like a WAL file but not
// exactly one — an editor backup, a .bak copy, an unpadded number — is no
// part of the log. Recovery must neither replay it nor, taking it for a
// duplicate of the real file, delete the real file.
func TestStrayLogNamesAreIgnored(t *testing.T) {
	for _, stray := range []string{"wal-000001.log~", "wal-000001.log.bak", "wal-1.log"} {
		dir := t.TempDir()
		db, _, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		s := schema.New(schema.Col("r", "n", types.KindInt))
		if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(storage.NewTable("r", s)); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch("r", []schema.Row{{types.NewInt(1)}, {types.NewInt(2)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		blob, err := os.ReadFile(filepath.Join(dir, walFileName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stray), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		// Reopen beside the stray file, then again once it is gone.
		for _, phase := range []string{"beside " + stray, "after removing " + stray} {
			db2, _, w2, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
			if err != nil {
				t.Fatalf("reopen %s: %v", phase, err)
			}
			tab, ok := db2.Table("r")
			if !ok || tab.RowCount() != 2 {
				t.Fatalf("reopen %s: table %v, want the 2 acked rows", phase, tab)
			}
			w2.Close()
			os.Remove(filepath.Join(dir, stray))
		}
	}
}

// TestOversizedBatchIsRefused: a batch whose record would exceed the
// record limit is refused before anything is written, rather than acked
// and then read by recovery as the end of the log. The WAL stays usable,
// recovery returns exactly the acked batches, and a checkpoint of them
// splits the table into frames under the limit.
func TestOversizedBatchIsRefused(t *testing.T) {
	old := maxRecordBytes
	maxRecordBytes = 4 << 10
	t.Cleanup(func() { maxRecordBytes = old })

	dir := t.TempDir()
	db, _, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s := schema.New(schema.Col("r", "n", types.KindInt), schema.Col("r", "s", types.KindString))
	if err := w.AppendDDL(NewTableDDL("r", s)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(storage.NewTable("r", s)); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("r")
	next := int64(0)
	batch := func(n int) []schema.Row {
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = schema.Row{types.NewInt(next), types.NewString(strings.Repeat("x", 60))}
			next++
		}
		return rows
	}
	var acked []schema.Row
	ingest := func(rows []schema.Row) error {
		if err := w.AppendBatch("r", rows); err != nil {
			return err
		}
		if err := w.Commit(); err != nil {
			return err
		}
		acked = append(acked, rows...)
		return tab.Append(rows...)
	}
	for i := 0; i < 30; i++ {
		if err := ingest(batch(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingest(batch(100)); err == nil {
		t.Fatal("a batch over the record limit was acked")
	}
	if err := ingest(batch(1)); err != nil {
		t.Fatalf("append after the refused batch: %v", err)
	}
	w.Close()

	check := func(phase string) (*catalog.Database, *core.Registry, *WAL) {
		t.Helper()
		db, reg, w, _, err := OpenDurable(dir, nil, DurableOpts{Policy: FsyncAlways})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		tab, _ := db.Table("r")
		got := tab.AllRows()
		if len(got) != len(acked) {
			t.Fatalf("%s: recovered %d rows, acked %d", phase, len(got), len(acked))
		}
		for i := range acked {
			if !got[i][0].Equal(acked[i][0]) {
				t.Fatalf("%s: row %d = %v, acked %v", phase, i, got[i][0], acked[i][0])
			}
		}
		return db, reg, w
	}
	db, reg, w := check("replay")
	if err := w.Checkpoint(db, reg); err != nil {
		t.Fatalf("checkpoint of a table larger than one record: %v", err)
	}
	w.Close()
	_, _, w = check("checkpoint")
	w.Close()
}

// FuzzReplay feeds arbitrary bytes after a valid log header through both
// readers, tolerant WAL replay and strict snapshot Load, as they are and
// with every whole frame's checksum made valid, so that mutations also
// reach the record decoders. Neither reader may panic, and Load must
// refuse anything but a complete file: every frame intact, and the last
// one, and only it, the end record.
func FuzzReplay(f *testing.F) {
	db, reg := buildSampleDB(f)
	var snap bytes.Buffer
	if err := writeSnapshot(&snap, db, reg, 0); err != nil {
		f.Fatal(err)
	}
	body := snap.Bytes()[walHeaderSize:]
	f.Add(body)
	f.Add(body[:len(body)-recHeaderSize])
	f.Fuzz(func(t *testing.T, body []byte) {
		resealed := bytes.Clone(body)
		for off := 0; len(resealed)-off >= recHeaderSize; {
			end := off + recHeaderSize + int(binary.LittleEndian.Uint32(resealed[off:]))
			if end > len(resealed) {
				break
			}
			sealFrame(resealed[off:end], resealed[off+8])
			off = end
		}
		for _, body := range [][]byte{body, resealed} {
			dir := t.TempDir()
			path := filepath.Join(dir, snapshotFile)
			if err := os.WriteFile(path, append(logHeader(0), body...), 0o644); err != nil {
				t.Fatal(err)
			}
			var typs []byte
			_, good, _, err := replayFile(path, false, func(r Record) error {
				typs = append(typs, r.Type)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			complete := good == int64(walHeaderSize+len(body)) &&
				len(typs) > 0 && bytes.IndexByte(typs, recEnd) == len(typs)-1

			rp := newReplayer()
			if _, _, _, err := replayFile(path, false, rp.apply); err == nil {
				_ = rp.finish()
			}
			if _, _, err := Load(dir); err == nil && !complete {
				t.Fatalf("Load accepted an incomplete log: record types %v, %d of %d bytes intact", typs, good, walHeaderSize+len(body))
			}
		}
	})
}

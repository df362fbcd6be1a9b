package persist

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rfidgen"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

func buildSampleDB(t testing.TB) (*catalog.Database, *core.Registry) {
	t.Helper()
	db := catalog.NewDatabase()
	tab := storage.NewTable("reads", schema.New(
		schema.Col("reads", "epc", types.KindString),
		schema.Col("reads", "rtime", types.KindTime),
		schema.Col("reads", "biz_loc", types.KindString),
		schema.Col("reads", "n", types.KindInt),
		schema.Col("reads", "f", types.KindFloat),
		schema.Col("reads", "b", types.KindBool),
		schema.Col("reads", "iv", types.KindInterval),
	))
	rows := []schema.Row{
		{types.NewString("e1"), types.NewTime(1000), types.NewString("dock"), types.NewInt(-7), types.NewFloat(1.5), types.NewBool(true), types.NewInterval(60)},
		{types.NewString(`\N`), types.NewTime(2000), types.NewString(`weird "loc", with commas`), types.Null, types.Null, types.Null, types.Null},
		{types.NewString(`\\escaped`), types.NewTime(3000), types.NewString(""), types.NewInt(0), types.NewFloat(0), types.NewBool(false), types.NewInterval(0)},
	}
	for _, r := range rows {
		if err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	tab.BuildIndex("rtime")
	tab.BuildIndex("epc")
	tab.Analyze()
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	view, err := sqlparser.Parse("select epc, rtime from reads where n is not null")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView("valid_reads", view); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry(db)
	if _, err := reg.Define(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}
	return db, reg
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, reg := buildSampleDB(t)
	dir := t.TempDir()
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	db2, reg2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Table("reads")
	t2, ok := db2.Table("reads")
	if !ok || t2.RowCount() != t1.RowCount() {
		t.Fatalf("reloaded rows = %v", t2)
	}
	rows1, rows2 := t1.AllRows(), t2.AllRows()
	for i, row := range rows1 {
		for j, v := range row {
			if !v.Equal(rows2[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, v, rows2[i][j])
			}
		}
	}
	// Indexes rebuilt.
	if t2.IndexOn("rtime") == nil || t2.IndexOn("epc") == nil {
		t.Error("indexes not rebuilt")
	}
	// Stats refreshed.
	if t2.Stats(0) == nil {
		t.Error("stats not analyzed")
	}
	// View restored and usable.
	node, err := plan.New(db2).PlanSQL("select count(*) from valid_reads")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(exec.NewCtx(), node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("view count = %v", res.Rows[0][0])
	}
	// Rules restored in order with compiled templates.
	rules := reg2.All()
	if len(rules) != 1 || rules[0].Rule.Name != "dedup" || !strings.Contains(rules[0].TemplateSQL, "$input") {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir must fail")
	}
	old := t.TempDir()
	os.WriteFile(filepath.Join(old, "manifest.json"), []byte(`{"version": 1}`), 0o644)
	if _, _, err := Load(old); err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Errorf("parent-format dir: err = %v, want one naming manifest.json", err)
	}

	db, reg := buildSampleDB(t)
	dir := t.TempDir()
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loads := func(blob []byte) bool {
		t.Helper()
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(dir)
		return err == nil
	}
	future := bytes.Clone(good)
	binary.LittleEndian.PutUint32(future[4:], walVersion+1)
	if loads(future) {
		t.Error("future version must fail")
	}
	// Every cut — at each frame boundary (the last of which leaves only
	// the end record missing) and inside every frame — must fail.
	for cut := 0; cut < len(good); cut++ {
		if loads(good[:cut]) {
			t.Fatalf("snapshot cut to %d of %d bytes loaded", cut, len(good))
		}
	}
	// So must a flipped bit anywhere in the frames.
	for off := walHeaderSize; off < len(good); off++ {
		flipped := bytes.Clone(good)
		flipped[off] ^= 0x10
		if loads(flipped) {
			t.Fatalf("snapshot with a bit flipped at offset %d loaded", off)
		}
	}
	if !loads(good) {
		t.Fatal("the intact snapshot must load")
	}
}

// Storage checks row arity only, so a table can hold a value of another
// kind than its column's. Replay refuses such a value; the writer must
// refuse it first, naming the table and column, and publish nothing — or
// a Save or checkpoint would succeed and leave a root that cannot reopen.
func TestSnapshotRefusesKindMismatch(t *testing.T) {
	db, reg := buildSampleDB(t)
	saveDir, walDir := t.TempDir(), t.TempDir()
	if err := Save(db, reg, saveDir); err != nil {
		t.Fatal(err)
	}
	_, _, w, _, err := OpenDurable(walDir, nil, DurableOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(db, reg); err != nil {
		t.Fatal(err)
	}
	published, _ := readCurrent(walDir)

	tab, _ := db.Table("reads")
	if err := tab.Append(schema.Row{types.NewString("e4"), types.NewTime(4000), types.NewInt(5),
		types.Null, types.Null, types.Null, types.Null}); err != nil {
		t.Fatal(err)
	}
	const want = "table reads column biz_loc: INT value in a STRING column"
	if err := Save(db, reg, saveDir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Save = %v, want an error containing %q", err, want)
	}
	if err := w.Checkpoint(db, reg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Checkpoint = %v, want an error containing %q", err, want)
	}
	if cur, _ := readCurrent(walDir); cur != published {
		t.Fatalf("CURRENT = %q after the refused checkpoint, want %q", cur, published)
	}
	for _, dir := range []string{saveDir, walDir} {
		if tmps, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*")); len(tmps) != 0 {
			t.Fatalf("refused snapshot left %v", tmps)
		}
	}

	// Both roots still hold the earlier, readable state.
	db2, _, err := Load(saveDir)
	if err != nil {
		t.Fatal(err)
	}
	if t2, _ := db2.Table("reads"); t2.RowCount() != 3 {
		t.Fatalf("Load after the refused Save: %d rows, want 3", t2.RowCount())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db3, _, w3, _, err := OpenDurable(walDir, nil, DurableOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if t3, _ := db3.Table("reads"); t3.RowCount() != 3 {
		t.Fatalf("reopen after the refused checkpoint: %d rows, want 3", t3.RowCount())
	}
}

// TestValueEncodingRoundTripsEdgeCases saves and reloads a snapshot whose
// cells are the values a text encoding would mangle: strings that look
// like NULL or escapes, line breaks and quotes, -0, large negatives, and
// NULL in every column. Each comes back with its kind and exact bits.
func TestValueEncodingRoundTripsEdgeCases(t *testing.T) {
	s := schema.New(
		schema.Col("edge", "s", types.KindString),
		schema.Col("edge", "f", types.KindFloat),
		schema.Col("edge", "n", types.KindInt),
		schema.Col("edge", "tm", types.KindTime),
		schema.Col("edge", "iv", types.KindInterval),
	)
	rows := []schema.Row{
		{types.NewString(`\N`), types.NewFloat(math.Copysign(0, -1)), types.NewInt(-1 << 62), types.NewTime(0), types.NewInterval(-5)},
		{types.NewString(`\`), types.NewFloat(math.NaN()), types.NewInt(math.MinInt64), types.NewTime(-1), types.NewInterval(math.MaxInt64)},
		{types.NewString(`\\N`), types.NewFloat(math.Inf(-1)), types.NewInt(0), types.NewTime(math.MaxInt64), types.NewInterval(0)},
		{types.NewString("line\nbreak"), types.NewFloat(1.0 / 3.0), types.NewInt(-1), types.NewTime(1), types.NewInterval(1)},
		{types.NewString("comma, quote\""), types.NewFloat(0), types.NewInt(1), types.NewTime(2), types.NewInterval(2)},
		{types.NewString(""), types.Null, types.Null, types.Null, types.Null},
		{types.Null, types.NewFloat(1), types.NewInt(2), types.NewTime(3), types.NewInterval(4)},
	}
	tab := storage.NewTable("edge", s)
	for _, r := range rows {
		if err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	db := catalog.NewDatabase()
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(db, core.NewRegistry(db), dir); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	t2, ok := db2.Table("edge")
	if !ok || t2.RowCount() != len(rows) {
		t.Fatalf("reloaded table = %v", t2)
	}
	for i, row := range t2.AllRows() {
		for j, got := range row {
			want := rows[i][j]
			same := got.Kind() == want.Kind() && got.Raw() == want.Raw()
			switch want.Kind() {
			case types.KindFloat:
				same = same && math.Float64bits(got.Float()) == math.Float64bits(want.Float())
			case types.KindString:
				same = same && got.Str() == want.Str()
			}
			if !same {
				t.Errorf("row %d col %d: %s %v reloaded as %s %v", i, j, want.Kind(), want, got.Kind(), got)
			}
		}
	}
}

// Persisting a full generated workload round-trips and still answers
// cleansed queries identically.
func TestWorkloadPersistence(t *testing.T) {
	d := rfidgen.Generate(rfidgen.Config{Scale: 1, AnomalyPct: 20, Seed: 3})
	db := catalog.NewDatabase()
	if err := d.Load(db); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry(db)
	for _, src := range d.PaperRules() {
		if _, err := reg.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	count := func(db *catalog.Database, reg *core.Registry) int64 {
		rw := core.NewRewriter(db, reg)
		res, err := rw.RewriteSQL("select count(*) from caser", nil, core.StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(exec.NewCtx(), res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		return out.Rows[0][0].Int()
	}
	want := count(db, reg)

	dir := t.TempDir()
	if err := Save(db, reg, dir); err != nil {
		t.Fatal(err)
	}
	db2, reg2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(db2, reg2); got != want {
		t.Errorf("cleansed count after reload = %d, want %d", got, want)
	}
}

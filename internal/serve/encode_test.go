package serve

// Byte-identity proof for the append encoder: everything it writes must
// be what the pipeline it replaced wrote — every cell boxed into an any
// by oldEncodeValue, every chunk marshalled by encoding/json through
// oldStreamChunk. Those two survive here as the oracle.

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/types"
)

// oldEncodeValue is the value mapping the server used before the append
// encoder: the natural Go value of each kind, for encoding/json to render.
func oldEncodeValue(v repro.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindTime:
		return time.UnixMicro(v.TimeUsec()).UTC().Format(time.RFC3339Nano)
	case types.KindInterval:
		return v.IntervalUsec()
	default:
		return v.String()
	}
}

// oldStreamChunk is the chunk object the server used to marshal.
type oldStreamChunk struct {
	Rows [][]any `json:"rows"`
}

// oldChunkLine renders rows the old way, newline included.
func oldChunkLine(t testing.TB, rows [][]repro.Value) []byte {
	t.Helper()
	chunk := oldStreamChunk{Rows: make([][]any, 0, len(rows))}
	for _, row := range rows {
		enc := make([]any, len(row))
		for i, v := range row {
			enc[i] = oldEncodeValue(v)
		}
		chunk.Rows = append(chunk.Rows, enc)
	}
	b, err := json.Marshal(chunk)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// everyKind is one value per interesting point of every types.Kind.
func everyKind() map[string]repro.Value {
	at := func(s string) repro.Value {
		ts, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			panic(err)
		}
		return repro.NewTime(ts)
	}
	return map[string]repro.Value{
		"null":       {},
		"bool/true":  repro.NewBool(true),
		"bool/false": repro.NewBool(false),

		"int/zero": repro.NewInt(0),
		"int/neg":  repro.NewInt(-42),
		"int/min":  repro.NewInt(math.MinInt64),
		"int/max":  repro.NewInt(math.MaxInt64),

		"float/zero":       repro.NewFloat(0),
		"float/negzero":    repro.NewFloat(math.Copysign(0, -1)),
		"float/integral":   repro.NewFloat(3),
		"float/fraction":   repro.NewFloat(-2.5),
		"float/third":      repro.NewFloat(1.0 / 3.0),
		"float/1e21":       repro.NewFloat(1e21),
		"float/below-1e21": repro.NewFloat(999999999999999900000),
		"float/1e-6":       repro.NewFloat(1e-6),
		"float/1e-7":       repro.NewFloat(1e-7),
		"float/-1e-7":      repro.NewFloat(-1e-7),
		"float/1e-10":      repro.NewFloat(1e-10),
		"float/1e100":      repro.NewFloat(1e100),
		"float/max":        repro.NewFloat(math.MaxFloat64),
		"float/subnormal":  repro.NewFloat(math.SmallestNonzeroFloat64),
		"float/subnormal2": repro.NewFloat(2.2250738585072009e-308),

		"string/empty":      repro.NewString(""),
		"string/ascii":      repro.NewString("rdr-0000000000394"),
		"string/quote":      repro.NewString(`say "hi"`),
		"string/backslash":  repro.NewString(`a\b\\c`),
		"string/controls":   repro.NewString("\x00\x01\b\t\n\f\r\x1b\x1f"),
		"string/del":        repro.NewString("a\x7fb"),
		"string/html":       repro.NewString("<script>a&b</script>"),
		"string/utf8":       repro.NewString("dock-é-日本-😀"),
		"string/u2028":      repro.NewString("line\u2028sep\u2029end"),
		"string/invalid":    repro.NewString("bad\xffbyte\xc3"),
		"string/truncated":  repro.NewString("\xe2\x80"),
		"string/surrogate":  repro.NewString("\xed\xa0\x80"),
		"string/late-quote": repro.NewString(strings.Repeat("x", 100) + `"`),

		"time/usec":          at("2006-01-02T15:04:05.123456Z"),
		"time/msec":          at("2006-01-02T15:04:05.12Z"),
		"time/zero-fraction": at("2006-01-02T15:04:05Z"),
		"time/epoch":         types.NewTime(0),
		"time/pre-epoch":     types.NewTime(-1),
		"time/1900":          at("1900-03-04T05:06:07.000008Z"),
		"time/year-9999":     at("9999-12-31T23:59:59.999999Z"),
		"time/year-10000":    types.NewTime(253402300800_000000),

		"interval/zero": repro.NewInterval(0),
		"interval/10m":  repro.NewInterval(10 * time.Minute),
		"interval/neg":  repro.NewInterval(-time.Microsecond),
		"interval/max":  types.NewInterval(math.MaxInt64),
	}
}

func TestAppendValueMatchesEncodingJSON(t *testing.T) {
	kinds := map[types.Kind]bool{}
	for name, v := range everyKind() {
		kinds[v.Kind()] = true
		want, err := json.Marshal(oldEncodeValue(v))
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		// A dirty prefix proves the encoder appends and never rewrites.
		got := appendValue([]byte("prefix"), v)
		if string(got) != "prefix"+string(want) {
			t.Errorf("%s: appendValue = %s, encoding/json = %s", name, got[len("prefix"):], want)
		}
	}
	for k := types.KindNull; k <= types.KindInterval; k++ {
		if !kinds[k] {
			t.Errorf("no case covers kind %s", k)
		}
	}
}

// TestAppendFloatNonFinite pins the one place the encoder departs from
// encoding/json, which has no rendering for these at all.
func TestAppendFloatNonFinite(t *testing.T) {
	for want, f := range map[string]float64{
		`"NaN"`: math.NaN(), `"+Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1),
	} {
		if got := string(appendValue(nil, repro.NewFloat(f))); got != want {
			t.Errorf("appendValue(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestAppendChunkMatchesOldMarshalling(t *testing.T) {
	var rows [][]repro.Value
	var row []repro.Value
	for _, v := range everyKind() {
		row = append(row, v)
		if len(row) == 5 {
			rows, row = append(rows, row), nil
		}
	}
	rows = append(rows, row, []repro.Value{})
	for _, n := range []int{0, 1, len(rows)} {
		got := appendChunk(nil, rows[:n])
		if want := oldChunkLine(t, rows[:n]); !bytes.Equal(got, want) {
			t.Errorf("%d rows:\n got %s\nwant %s", n, got, want)
		}
	}
}

// TestStreamedResponseMatchesOldMarshalling is the whole-response golden:
// a table holding every kind is streamed through /v1/query in small
// chunks, and every line between header and footer must equal what the
// old pipeline marshalled for the same rows.
func TestStreamedResponseMatchesOldMarshalling(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("k",
		repro.ColumnDef{Name: "id", Kind: repro.KindInt},
		repro.ColumnDef{Name: "b", Kind: repro.KindBool},
		repro.ColumnDef{Name: "f", Kind: repro.KindFloat},
		repro.ColumnDef{Name: "s", Kind: repro.KindString},
		repro.ColumnDef{Name: "ts", Kind: repro.KindTime},
		repro.ColumnDef{Name: "iv", Kind: repro.KindInterval},
	); err != nil {
		t.Fatal(err)
	}
	byKind := map[types.Kind][]repro.Value{}
	for _, v := range everyKind() {
		byKind[v.Kind()] = append(byKind[v.Kind()], v)
	}
	pick := func(k types.Kind, i int) repro.Value {
		if i%7 == 6 {
			return repro.Value{} // a NULL now and then, in every column
		}
		return byKind[k][i%len(byKind[k])]
	}
	const n = 45
	data := make([][]repro.Value, n)
	for i := range data {
		data[i] = []repro.Value{
			repro.NewInt(int64(i)), pick(types.KindBool, i+1), pick(types.KindFloat, i+2),
			pick(types.KindString, i+3), pick(types.KindTime, i+4), pick(types.KindInterval, i+5),
		}
	}
	if err := db.Insert("k", data...); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, b, f, s, ts, iv FROM k ORDER BY id"
	eager, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	const chunkRows = 8
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = chunkRows })
	resp, payload := post(t, hs.URL+"/v1/query", map[string]any{"sql": q})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	lines := bytes.SplitAfter(payload, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if want := 1 + (n+chunkRows-1)/chunkRows + 1; len(lines) != want {
		t.Fatalf("stream has %d lines, want %d", len(lines), want)
	}
	for i, line := range lines[1 : len(lines)-1] {
		lo := i * chunkRows
		want := oldChunkLine(t, eager.Data[lo:min(lo+chunkRows, n)])
		if !bytes.Equal(line, want) {
			t.Errorf("chunk %d:\n got %s\nwant %s", i, line, want)
		}
	}
	var foot streamFooter
	if err := json.Unmarshal(lines[len(lines)-1], &foot); err != nil || foot.Status != "ok" || foot.RowCount != n {
		t.Fatalf("footer %s: %+v, err %v", lines[len(lines)-1], foot, err)
	}
}

// TestEncodeRowAllocatesNothing holds the encoder to its name: a chunk of
// rows of every kind, appended into a buffer that already has the room.
func TestEncodeRowAllocatesNothing(t *testing.T) {
	var row []repro.Value
	for _, v := range everyKind() {
		row = append(row, v)
	}
	rows := [][]repro.Value{row, row, row}
	buf := appendChunk(nil, rows)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendChunk(buf[:0], rows) }); allocs != 0 {
		t.Fatalf("encoding %d rows allocated %.0f times, want 0", len(rows), allocs)
	}
}

func FuzzAppendString(f *testing.F) {
	for _, v := range everyKind() {
		if v.Kind() == types.KindString {
			f.Add(v.Str())
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json = %s", s, got, want)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range everyKind() {
		if v.Kind() == types.KindFloat {
			f.Add(math.Float64bits(v.Float()))
		}
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got := appendFloat(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if got[0] != '"' || !json.Valid(got) {
				t.Fatalf("appendFloat(%v) = %s, want a JSON string", v, got)
			}
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json = %s", v, got, want)
		}
	})
}

// TestOncePerResponseLinesMatchEncodingJSON pins the header, footer and
// error lines to encoding/json's bytes, for query IDs, strategies and
// messages carrying quotes, control bytes, HTML characters, invalid
// UTF-8 and non-ASCII text.
func TestOncePerResponseLinesMatchEncodingJSON(t *testing.T) {
	texts := []string{"", "q-00000007", "join-back", `say "hi"`, "tab\tnew\nline\x01\x1f", "<a & b>", "bad \xff utf8", "naïve ✓ \u2028 日本", `back\slash`}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, s := range texts {
		for _, cols := range [][]string{nil, {}, {s, "c"}} {
			h := streamHeader{QueryID: s, Columns: cols}
			if got, want := appendHeader(nil, h), marshal(h); !bytes.Equal(got, want) {
				t.Errorf("header %+v:\n got %q\nwant %q", h, got, want)
			}
		}
		for _, f := range []streamFooter{
			{Status: "ok", RowCount: 3, Strategy: s, CacheHit: true, ElapsedMS: 4.21},
			{Status: s, RowCount: -1, ElapsedMS: 1e-7},
		} {
			if got, want := appendFooter(nil, f), marshal(f); !bytes.Equal(got, want) {
				t.Errorf("footer %+v:\n got %q\nwant %q", f, got, want)
			}
		}
		for _, e := range []errorBody{
			{Status: "error", Code: "invalid", Error: s, QueryID: s},
			{Status: "error", Code: s, Error: s},
		} {
			if got, want := appendError(nil, e), marshal(e); !bytes.Equal(got, want) {
				t.Errorf("error %+v:\n got %q\nwant %q", e, got, want)
			}
		}
	}
}

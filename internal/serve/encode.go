package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro"
	"repro/internal/types"
)

// The row-chunk encoder. Result rows go from engine values to NDJSON
// bytes with no intermediate representation: appendValue switches on the
// value kind and appends into a pooled per-response buffer, so encoding a
// row allocates nothing. The bytes are exactly what encoding/json
// produces for the natural Go value of each kind (docs/WIRE.md,
// "Encoding", pins the formats; encode_test.go holds the differential
// proof), with one extension: non-finite floats, which encoding/json
// rejects, are the strings "NaN", "+Inf" and "-Inf".

// appendValue appends one engine value's JSON form to dst: NULL→null,
// BOOL→true/false, INT→number, FLOAT→number, STRING→string,
// TIME→RFC3339Nano string (UTC), INTERVAL→microseconds as a number.
func appendValue(dst []byte, v repro.Value) []byte {
	switch v.Kind() {
	case types.KindNull:
		return append(dst, "null"...)
	case types.KindBool:
		return strconv.AppendBool(dst, v.Bool())
	case types.KindInt, types.KindInterval:
		return strconv.AppendInt(dst, v.Raw(), 10)
	case types.KindFloat:
		return appendFloat(dst, v.Float())
	case types.KindString:
		return appendString(dst, v.Str())
	case types.KindTime:
		// RFC3339Nano renders digits and "-:.TZ+" only: nothing to escape.
		dst = append(dst, '"')
		dst = time.UnixMicro(v.TimeUsec()).UTC().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"')
	default:
		return appendString(dst, v.String())
	}
}

// appendFloat appends f in encoding/json's number format: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up
// (the ES6 cutoffs), with a one-digit negative exponent unpadded (1e-7,
// not 1e-07). JSON has no non-finite numbers; those become strings.
func appendFloat(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// jsonSafe marks the bytes a JSON string carries verbatim under
// encoding/json's HTML-escaping rules: printable ASCII except the quote,
// the backslash, and '<', '>', '&'. Everything else — control bytes and
// every byte of a multi-byte sequence — takes appendEscaped.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string. Reader names, EPCs and
// locations are plain ASCII, so the common case is one scan and one
// append; the first byte that needs attention hands the rest of the
// string to appendEscaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if !jsonSafe[s[i]] {
			dst = append(dst, s[:i]...)
			return append(appendEscaped(dst, s[i:]), '"')
		}
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEscaped appends s with encoding/json's escaping: \" \\ \b \f \n
// \r \t, \u00XX for the other control bytes and for '<' '>' '&',
// \u2028 and \u2029 for the line and paragraph separators, and \ufffd
// for each byte of invalid UTF-8. Valid multi-byte runes pass through.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// appendChunk appends one NDJSON row-chunk line, {"rows":[[...],...]}\n.
func appendChunk(dst []byte, rows [][]repro.Value) []byte {
	dst = append(dst, `{"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendValue(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// appendHeader appends the stream header line, byte-identical to
// encoding/json's rendering of streamHeader.
func appendHeader(dst []byte, h streamHeader) []byte {
	dst = append(dst, `{"query_id":`...)
	dst = appendString(dst, h.QueryID)
	dst = append(dst, `,"columns":`...)
	if h.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range h.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendFooter appends the stream footer line, as encoding/json renders
// streamFooter.
func appendFooter(dst []byte, f streamFooter) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendString(dst, f.Status)
	dst = append(dst, `,"row_count":`...)
	dst = strconv.AppendInt(dst, int64(f.RowCount), 10)
	dst = append(dst, `,"strategy":`...)
	dst = appendString(dst, f.Strategy)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, f.CacheHit)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = appendFloat(dst, f.ElapsedMS)
	return append(dst, "}\n"...)
}

// appendError appends an error body line, as encoding/json renders
// errorBody (query_id omitted when empty).
func appendError(dst []byte, e errorBody) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendString(dst, e.Status)
	dst = append(dst, `,"code":`...)
	dst = appendString(dst, e.Code)
	dst = append(dst, `,"error":`...)
	dst = appendString(dst, e.Error)
	if e.QueryID != "" {
		dst = append(dst, `,"query_id":`...)
		dst = appendString(dst, e.QueryID)
	}
	return append(dst, "}\n"...)
}

// writeLine sends one once-per-response line — header, footer or error —
// built by build into the encoder's buffer, and flushes it.
func (e *chunkEncoder) writeLine(w http.ResponseWriter, build func([]byte) []byte) error {
	e.buf = build(e.buf[:0])
	_, err := w.Write(e.buf)
	if f, ok := w.(http.Flusher); ok && err == nil {
		f.Flush()
	}
	return err
}

// chunkEncoder is one response's encoding state: the rows of the chunk
// being gathered, the buffer they are encoded into, and the account of
// what has gone out. Rows and buffer are reused chunk after chunk, and
// the whole encoder response after response.
type chunkEncoder struct {
	rows [][]repro.Value
	buf  []byte

	count, bytes, chunks int           // rows, chunk-line bytes and chunks written
	busy                 time.Duration // spent encoding and writing them
	span                 *repro.Span   // the trace's encode span; nil when untraced
}

var chunkEncoders = sync.Pool{New: func() any { return new(chunkEncoder) }}

// flush encodes the gathered rows as one chunk line and sends it: one
// Write, one Flush, and the only two clock reads the chunk costs. No
// gathered rows, no chunk.
func (e *chunkEncoder) flush(w http.ResponseWriter, f http.Flusher) error {
	if len(e.rows) == 0 {
		return nil
	}
	t0 := time.Now()
	e.buf = appendChunk(e.buf[:0], e.rows)
	_, err := w.Write(e.buf)
	if err == nil && f != nil {
		f.Flush()
	}
	e.busy += time.Since(t0)
	e.count += len(e.rows)
	e.bytes += len(e.buf)
	e.chunks++
	e.rows = e.rows[:0]
	return err
}

// settle publishes the response's account — a repro_http_encode_seconds
// sample and the encode span's duration and attributes — and returns the
// number of rows written. m is nil when telemetry is off.
func (e *chunkEncoder) settle(m *httpMetrics) int {
	if m != nil && e.chunks > 0 {
		m.encode.Observe(e.busy.Seconds())
	}
	if e.span != nil {
		e.span.Dur = e.busy
		e.span.SetAttr("rows", strconv.Itoa(e.count))
		e.span.SetAttr("bytes", strconv.Itoa(e.bytes))
		e.span.SetAttr("chunks", strconv.Itoa(e.chunks))
	}
	return e.count
}

// release returns the encoder to the pool with its buffers kept and
// everything else dropped, so a parked encoder pins no result memory.
func (e *chunkEncoder) release() {
	clear(e.rows[:cap(e.rows)])
	*e = chunkEncoder{rows: e.rows[:0], buf: e.buf[:0]}
	chunkEncoders.Put(e)
}

package types

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// codecCases covers every kind and the payloads a text or lossy encoding
// would mangle.
var codecCases = []Value{
	Null,
	NewBool(true),
	NewBool(false),
	NewInt(0),
	NewInt(-1),
	NewInt(math.MaxInt64),
	NewInt(math.MinInt64),
	NewFloat(0),
	NewFloat(math.Copysign(0, -1)),
	NewFloat(math.NaN()),
	NewFloat(math.Float64frombits(0x7ff0000000000001)), // signalling NaN payload
	NewFloat(math.Float64frombits(0xfff8000000000abc)), // negative NaN, custom payload
	NewFloat(math.Inf(1)),
	NewFloat(math.Inf(-1)),
	NewFloat(1.0 / 3.0),
	NewString(""),
	NewString("hello"),
	NewString("naïve ⊕ spill"),
	NewString("\xff\xfe invalid utf-8 \xc3"),
	NewString(`\N`),
	NewString(`\\N`),
	NewString(`\`),
	NewString("comma, \"quote\"\nline"),
	NewTime(1136214245000000),
	NewTime(math.MinInt64),
	NewInterval(-600000000),
	NewInterval(math.MaxInt64),
}

// sameValue is bit-level identity: kind and every payload field, floats
// by their bits.
func sameValue(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

func TestValueCodecRoundTrip(t *testing.T) {
	var stream []byte
	for _, want := range codecCases {
		enc := AppendValue(nil, want)
		got, n, err := ReadValue(enc)
		if err != nil || n != len(enc) || !sameValue(got, want) {
			t.Errorf("%s %v: decoded %v (%d of %d bytes, err %v)", want.Kind(), want, got, n, len(enc), err)
		}
		// Every proper prefix is a truncated value, never a shorter one.
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := ReadValue(enc[:cut]); err == nil {
				t.Errorf("%s %v: %d-byte prefix of %d decoded", want.Kind(), want, cut, len(enc))
			}
		}
		stream = AppendValue(stream, want)
	}
	// Values concatenate: a stream decodes back in order with nothing left.
	for i, want := range codecCases {
		got, n, err := ReadValue(stream)
		if err != nil || !sameValue(got, want) {
			t.Fatalf("stream value %d: %v, %v; want %v", i, got, err, want)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the stream", len(stream))
	}
}

// FuzzReadValue: arbitrary bytes never panic the decoder nor make it
// allocate more than the input holds, and whatever decodes re-encodes to
// exactly the bytes it was read from.
func FuzzReadValue(f *testing.F) {
	for _, v := range codecCases {
		f.Add(AppendValue(nil, v))
	}
	// Non-canonical and truncated forms: one that decoded would not
	// re-encode to itself.
	for _, b := range [][]byte{
		{0x7f},                               // unknown kind
		{byte(KindInt), 0x80, 0x00},          // overlong varint
		{byte(KindString), 0x81, 0x00, 'a'},  // overlong length
		{byte(KindString), 0xff, 0xff, 0x0f}, // length past the end
		{byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // overflow
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, n, err := ReadValue(b)
		runtime.ReadMemStats(&after)
		// Slack for size-class and page rounding of the one string.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(b))*9/8+8<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		if enc := AppendValue(nil, v); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("%x decoded to %s %v, which encodes as %x", b[:n], v.Kind(), v, enc)
		}
	})
}

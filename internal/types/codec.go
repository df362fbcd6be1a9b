package types

import (
	"encoding/binary"
	"errors"
	"math"
)

// The binary value codec: the one encoding a Value has outside memory —
// in WAL and snapshot append records and in spill files. A value is its
// kind byte followed by a payload: nothing for NULL, a zigzag varint for
// the int64-backed kinds (BOOL, INT, TIME, INTERVAL), the 8 little-endian
// IEEE bytes for FLOAT (NaN payloads and -0 round-trip exactly), and a
// uvarint length then the bytes for STRING. The encoding is canonical:
// ReadValue accepts exactly what AppendValue produces.

var errCorrupt = errors.New("types: truncated or corrupt value encoding")

// AppendValue appends v's encoding to b and returns the extended slice.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.f))
	case KindString:
		b = binary.AppendUvarint(b, uint64(len(v.s)))
		b = append(b, v.s...)
	default:
		b = binary.AppendVarint(b, v.i)
	}
	return b
}

// ReadValue decodes the value AppendValue wrote at the front of b and
// reports how many bytes it took. It allocates only a STRING's bytes, and
// only after checking that b holds them.
func ReadValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, errCorrupt
	}
	k := Kind(b[0])
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindFloat:
		if len(b) < 9 {
			return Null, 0, errCorrupt
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case KindString:
		n, m := binary.Uvarint(b[1:])
		if !minimalVarint(b, m) || n > uint64(len(b)-1-m) {
			return Null, 0, errCorrupt
		}
		end := 1 + m + int(n)
		return NewString(string(b[1+m : end])), end, nil
	case KindBool, KindInt, KindTime, KindInterval:
		i, m := binary.Varint(b[1:])
		if !minimalVarint(b, m) || k == KindBool && i != 0 && i != 1 {
			return Null, 0, errCorrupt
		}
		return Value{kind: k, i: i}, 1 + m, nil
	}
	return Null, 0, errCorrupt
}

// minimalVarint reports whether the m-byte varint after b's kind byte
// decoded cleanly in its shortest form: only a one-byte varint may end in
// a zero byte.
func minimalVarint(b []byte, m int) bool {
	return m == 1 || m > 1 && b[m] != 0
}

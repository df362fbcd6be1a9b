package types

import (
	"cmp"
	"encoding/binary"
	"math"
	"strings"
)

// The sort key: a byte string per value whose bytes.Compare order is
// ORDER BY's order, so sorts, merges and index builds compare bytes
// instead of boxed values. A value is a class tag, in Kind order with
// NULL lowest (NULLS FIRST), then a payload:
//
//   - INT and FLOAT share the numeric class: the float64 image, sign-flipped
//     to big-endian order (−0 folds into +0; every NaN is one NaN, above
//     +Inf), then a residual — i − int64(float64(i)) for an INT, 0 for a
//     FLOAT — as a sign-flipped big-endian int16. INT order stays exact
//     beyond 2^53, and INT 1 ties with FLOAT 1.0.
//   - BOOL, TIME and INTERVAL: the int64 payload, sign-flipped big-endian.
//   - STRING: the bytes with each 0x00 escaped as 0x00 0xFF, ended by
//     0x00 0x01, so no key is a prefix of another.
//
// Keys are prefix-free, so a tuple's keys appended one after another
// compare column by column; a DESC column's bytes are complemented.

// sortClass is the tag of a value's sort class: its kind, FLOAT folded
// into INT.
func sortClass(k Kind) byte {
	if k == KindFloat {
		return byte(KindInt)
	}
	return byte(k)
}

// AppendSortKey appends v's sort key to b, complemented when desc, and
// returns the extended slice.
func AppendSortKey(b []byte, v Value, desc bool) []byte {
	start := len(b)
	b = append(b, sortClass(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		b = appendNumber(b, float64(v.i), intResidual(v.i))
	case KindFloat:
		b = appendNumber(b, v.f, 0)
	case KindString:
		s := v.s
		for i := strings.IndexByte(s, 0); i >= 0; i = strings.IndexByte(s, 0) {
			b = append(append(b, s[:i]...), 0x00, 0xFF)
			s = s[i+1:]
		}
		b = append(append(b, s...), 0x00, 0x01)
	default:
		b = binary.BigEndian.AppendUint64(b, uint64(v.i)^1<<63)
	}
	if desc {
		for i := start; i < len(b); i++ {
			b[i] = ^b[i]
		}
	}
	return b
}

// CompareSortKey compares a and b in sort-key order without encoding
// them: its sign is that of bytes.Compare of their ascending keys. An
// index run compares with it per step of a sort, merge or search.
func CompareSortKey(a, b Value) int {
	if a.kind == b.kind { // the common case, one column of one kind
		switch a.kind {
		case KindString:
			return strings.Compare(a.s, b.s)
		case KindBool, KindInt, KindTime, KindInterval:
			return cmp.Compare(a.i, b.i)
		}
	}
	if c := CompareSortClass(a, b); c != 0 {
		return c
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		af, ar := numberImage(a)
		bf, br := numberImage(b)
		switch an, bn := af != af, bf != bf; {
		case an || bn: // one NaN, above +Inf
			return cmp.Compare(b2i(an), b2i(bn))
		case af < bf:
			return -1
		case af > bf: // −0 and +0 fall through as equal
			return 1
		}
		return cmp.Compare(ar, br)
	case KindString:
		return strings.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i)
}

// CompareSortClass compares the sort classes of a and b: the first byte
// of their sort keys.
func CompareSortClass(a, b Value) int { return cmp.Compare(sortClass(a.kind), sortClass(b.kind)) }

// numberImage is a number's sort-key payload before encoding: its
// float64 image and the residual.
func numberImage(v Value) (float64, int16) {
	if v.kind == KindInt {
		return float64(v.i), intResidual(v.i)
	}
	return v.f, 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendNumber appends a numeric payload: f's order-preserving image and
// the residual r.
func appendNumber(b []byte, f float64, r int16) []byte {
	var u uint64
	switch {
	case f != f:
		u = 0xFFF8 << 48 // one NaN, above +Inf's image
	case f == 0:
		u = 1 << 63 // −0 and +0
	default:
		u = math.Float64bits(f)
		if u>>63 == 0 {
			u |= 1 << 63
		} else {
			u = ^u
		}
	}
	b = binary.BigEndian.AppendUint64(b, u)
	return binary.BigEndian.AppendUint16(b, uint16(r)^1<<15)
}

// intResidual is i − float64(i), exactly: what rounding i to a float64
// dropped. Rounding to nearest keeps it within ±2^9.
func intResidual(i int64) int16 {
	f := float64(i)
	if f >= 1<<63 { // i rounded up past MaxInt64
		return int16(i - math.MaxInt64 - 1)
	}
	return int16(i - int64(f))
}

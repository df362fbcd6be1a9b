package types

import (
	"bytes"
	"cmp"
	"math"
	"math/big"
	"strings"
	"testing"
)

// sortOracle is ORDER BY's order on two values, spelled out value by
// value: NULL first, then the kinds in Kind order with INT and FLOAT one
// numeric class, compared exactly (no float64 rounding), −0 equal to +0
// and NaN equal only to NaN, above +Inf. Strings compare bytewise,
// BOOL, TIME and INTERVAL by payload.
func sortOracle(a, b Value) int {
	if ca, cb := sortClass(a.kind), sortClass(b.kind); ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		if an, bn := isNaN(a), isNaN(b); an || bn {
			return cmp.Compare(b2i(an), b2i(bn))
		}
		return exactNumber(a).Cmp(exactNumber(b))
	case KindString:
		return strings.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i)
}

func isNaN(v Value) bool { return v.kind == KindFloat && math.IsNaN(v.f) }

func exactNumber(v Value) *big.Float {
	if v.kind == KindInt {
		return new(big.Float).SetInt64(v.i)
	}
	return new(big.Float).SetFloat64(v.f)
}

// tupleOracle compares two key tuples column by column, each column
// reversed when its direction is desc.
func tupleOracle(a, b []Value, desc []bool) int {
	for j := range a {
		c := sortOracle(a[j], b[j])
		if desc[j] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func tupleKey(vs []Value, desc []bool) []byte {
	var b []byte
	for j, v := range vs {
		b = AppendSortKey(b, v, desc[j])
	}
	return b
}

// sortKeyCases covers every kind and the edges an encoding could get
// wrong: ±0, NaN payloads, ±Inf, the int64 extremes, integers on both
// sides of 2^53 as INT and FLOAT, and strings with 0x00 bytes or that are
// prefixes of one another.
var sortKeyCases = []Value{
	Null,
	NewBool(false), NewBool(true),
	NewInt(0), NewInt(1), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1),
	NewInt(math.MinInt64), NewInt(math.MinInt64 + 1),
	NewInt(1<<53 - 1), NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(-(1<<53 + 1)),
	NewInt(1<<62 + 512), NewInt(1<<62 + 513),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-1), NewFloat(0.5),
	NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xFFF8000000000001)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewFloat(1 << 53), NewFloat(1<<53 + 2), NewFloat(-(1 << 53)), NewFloat(1 << 63), NewFloat(-(1 << 63)),
	NewFloat(math.MaxFloat64), NewFloat(math.SmallestNonzeroFloat64), NewFloat(-math.SmallestNonzeroFloat64),
	NewString(""), NewString("\x00"), NewString("\x00\x00"), NewString("\x00\x01"), NewString("\x01"),
	NewString("a"), NewString("a\x00"), NewString("a\x00b"), NewString("ab"), NewString("b"), NewString("\xff"),
	NewTime(0), NewTime(-1), NewTime(1136214245000000), NewTime(math.MinInt64), NewTime(math.MaxInt64),
	NewInterval(0), NewInterval(-600000000), NewInterval(math.MaxInt64),
}

// TestSortKeyMatchesCompare: over every pair of cases, in both
// directions, bytes.Compare of the sort keys agrees in sign with the
// oracle, as does CompareSortKey ascending; so does every two-column tuple under every direction pair.
func TestSortKeyMatchesCompare(t *testing.T) {
	for _, a := range sortKeyCases {
		for _, b := range sortKeyCases {
			for _, desc := range []bool{false, true} {
				want := sortOracle(a, b)
				if desc {
					want = -want
				}
				got := bytes.Compare(AppendSortKey(nil, a, desc), AppendSortKey(nil, b, desc))
				if got != want {
					t.Fatalf("%s %v vs %s %v (desc %v): keys compare %d, want %d", a.kind, a, b.kind, b, desc, got, want)
				}
				if !desc && CompareSortKey(a, b) != want {
					t.Fatalf("%s %v vs %s %v: CompareSortKey %d, want %d", a.kind, a, b.kind, b, CompareSortKey(a, b), want)
				}
			}
		}
	}
	dirs := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	for _, a0 := range sortKeyCases {
		for _, b0 := range sortKeyCases {
			for _, a1 := range []Value{Null, NewInt(1), NewFloat(math.NaN()), NewString(""), NewString("a\x00")} {
				for _, b1 := range []Value{Null, NewFloat(1), NewString("a")} {
					for _, desc := range dirs {
						a, b := []Value{a0, a1}, []Value{b0, b1}
						if got, want := bytes.Compare(tupleKey(a, desc), tupleKey(b, desc)), tupleOracle(a, b, desc); got != want {
							t.Fatalf("%v vs %v (desc %v): keys compare %d, want %d", a, b, desc, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzSortKey checks the sort key against the oracle on two values given
// in the value codec (inputs it refuses are skipped): singly in the
// fuzzed direction, by CompareSortKey ascending, and as the tuples (a, b)
// and (b, a) in opposite directions. Seeds are in testdata/fuzz/FuzzSortKey.
func FuzzSortKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, ea, eb []byte, desc bool) {
		a, _, err := ReadValue(ea)
		if err != nil {
			return
		}
		b, _, err := ReadValue(eb)
		if err != nil {
			return
		}
		want := sortOracle(a, b)
		if desc {
			want = -want
		}
		if got := bytes.Compare(AppendSortKey(nil, a, desc), AppendSortKey(nil, b, desc)); got != want {
			t.Fatalf("%s %v vs %s %v (desc %v): keys compare %d, want %d", a.kind, a, b.kind, b, desc, got, want)
		}
		if got := CompareSortKey(a, b); got != sortOracle(a, b) {
			t.Fatalf("%s %v vs %s %v: CompareSortKey %d, want %d", a.kind, a, b.kind, b, got, sortOracle(a, b))
		}
		ta, tb, dirs := []Value{a, b}, []Value{b, a}, []bool{desc, !desc}
		if got, want := bytes.Compare(tupleKey(ta, dirs), tupleKey(tb, dirs)), tupleOracle(ta, tb, dirs); got != want {
			t.Fatalf("%v vs %v (desc %v): keys compare %d, want %d", ta, tb, dirs, got, want)
		}
	})
}

// Package colvec provides immutable typed column vectors — the in-memory
// format of sealed storage segments. A Vec stores one column of one
// segment as a homogeneous typed array (int64 payloads for INT/TIME/
// INTERVAL/BOOL, float64 for FLOAT, dictionary-encoded or plain strings)
// plus a null bitmap, falling back to boxed values only when a column
// mixes kinds. Vector kernels read the typed arrays in place, so a scan
// touches 8 bytes per value instead of a 48-byte tagged union, and
// Value(i) reconstructs the exact boxed value bit-for-bit when a row must
// be materialized.
package colvec

import "repro/internal/types"

// Enc enumerates a Vec's physical encoding.
type Enc uint8

// Physical encodings. EncAny is the escape hatch for columns whose values
// mix kinds at runtime (the schema declares kinds but the store never
// enforced them); everything else is a typed array.
const (
	EncAny   Enc = iota // boxed values, mixed kinds
	EncInt64            // INT / TIME / INTERVAL / BOOL payloads
	EncFloat            // FLOAT payloads
	EncDict             // strings via a per-vector dictionary
	EncStr              // plain strings (dictionary overflowed)
)

// DictMaxCard is the dictionary cardinality ceiling: a string column whose
// segment holds more distinct values than this is stored as plain strings
// instead. Beyond this point the dictionary stops paying for itself (codes
// plus a large dict cost more than the string headers they replace).
const DictMaxCard = 1024

// Vec is one immutable column vector. The zero Vec is empty. Vecs are
// built once (Builder) and never mutated, so they are safe for concurrent
// readers with no synchronization.
type Vec struct {
	enc  Enc
	kind types.Kind // element kind for typed encodings; KindNull for EncAny
	n    int

	nulls []uint64 // null bitmap, 1 = NULL; nil when the column has no nulls

	ints   []int64
	floats []float64
	codes  []int32
	dict   []string
	strs   []string
	vals   []types.Value
}

// Len returns the number of elements.
func (v *Vec) Len() int { return v.n }

// Encoding reports the physical encoding.
func (v *Vec) Encoding() Enc { return v.enc }

// Kind reports the element kind for typed encodings (KindNull for EncAny).
func (v *Vec) Kind() types.Kind { return v.kind }

// Null reports whether element i is SQL NULL.
func (v *Vec) Null(i int) bool {
	return v.nulls != nil && v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any element is NULL.
func (v *Vec) HasNulls() bool { return v.nulls != nil }

// Int64s returns the raw int64 payload array (valid for EncInt64; null
// positions hold 0). Tight kernel loops index it directly after checking
// Encoding and the null bitmap.
func (v *Vec) Int64s() []int64 { return v.ints }

// Floats returns the raw float64 payload array (valid for EncFloat; null
// positions hold 0).
func (v *Vec) Floats() []float64 { return v.floats }

// Codes returns the dictionary codes (valid for EncDict; null positions
// hold -1).
func (v *Vec) Codes() []int32 { return v.codes }

// Dict returns the dictionary (valid for EncDict), indexed by code.
func (v *Vec) Dict() []string { return v.dict }

// Value reconstructs element i as a boxed value, bit-identical to the
// value that was appended.
func (v *Vec) Value(i int) types.Value {
	if v.Null(i) {
		return types.Null
	}
	switch v.enc {
	case EncInt64:
		switch v.kind {
		case types.KindInt:
			return types.NewInt(v.ints[i])
		case types.KindTime:
			return types.NewTime(v.ints[i])
		case types.KindInterval:
			return types.NewInterval(v.ints[i])
		default: // KindBool
			return types.NewBool(v.ints[i] != 0)
		}
	case EncFloat:
		return types.NewFloat(v.floats[i])
	case EncDict:
		return types.NewString(v.dict[v.codes[i]])
	case EncStr:
		return types.NewString(v.strs[i])
	}
	return v.vals[i]
}

// MemBytes estimates the vector's heap footprint, for storage accounting.
func (v *Vec) MemBytes() int64 {
	b := int64(len(v.nulls)) * 8
	b += int64(len(v.ints)) * 8
	b += int64(len(v.floats)) * 8
	b += int64(len(v.codes)) * 4
	for _, s := range v.dict {
		b += int64(len(s)) + 16
	}
	for _, s := range v.strs {
		b += int64(len(s)) + 16
	}
	b += int64(len(v.vals)) * 48
	return b
}

// Builder accumulates one column's values and produces an immutable Vec.
// The encoding is decided from what was actually appended: a homogeneous
// ordered/string kind gets its typed array, anything mixed degrades to
// boxed values, and string dictionaries overflow to plain strings past
// DictMaxCard distinct values.
type Builder struct {
	vals []types.Value
}

// NewBuilder returns a builder with capacity for n values.
func NewBuilder(n int) *Builder {
	return &Builder{vals: make([]types.Value, 0, n)}
}

// Append adds one value.
func (b *Builder) Append(v types.Value) { b.vals = append(b.vals, v) }

// Build finalizes the vector. The builder must not be reused after.
func (b *Builder) Build() *Vec {
	vals := b.vals
	n := len(vals)
	v := &Vec{n: n}

	// One pass to find the element kind: homogeneous non-null kind, or
	// KindNull meaning all-null / mixed.
	kind := types.KindNull
	mixed := false
	hasNull := false
	for _, x := range vals {
		if x.IsNull() {
			hasNull = true
			continue
		}
		if kind == types.KindNull {
			kind = x.Kind()
		} else if x.Kind() != kind {
			mixed = true
			break
		}
	}
	if hasNull || kind == types.KindNull {
		v.nulls = make([]uint64, (n+63)/64)
		for i, x := range vals {
			if x.IsNull() {
				v.nulls[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	if mixed {
		v.enc, v.vals = EncAny, vals
		return v
	}
	switch kind {
	case types.KindInt, types.KindTime, types.KindInterval, types.KindBool:
		v.enc, v.kind = EncInt64, kind
		v.ints = make([]int64, n)
		for i, x := range vals {
			if !x.IsNull() {
				v.ints[i] = x.Raw()
			}
		}
	case types.KindFloat:
		v.enc, v.kind = EncFloat, kind
		v.floats = make([]float64, n)
		for i, x := range vals {
			if !x.IsNull() {
				v.floats[i] = x.Float()
			}
		}
	case types.KindString:
		b.buildString(v, kind)
	default:
		// All-null column: a null bitmap is the whole story.
		v.enc, v.kind = EncInt64, types.KindInt
		v.ints = make([]int64, n)
	}
	return v
}

func (b *Builder) buildString(v *Vec, kind types.Kind) {
	vals := b.vals
	n := len(vals)
	index := make(map[string]int32, 64)
	codes := make([]int32, n)
	var dict []string
	for i, x := range vals {
		if x.IsNull() {
			codes[i] = -1
			continue
		}
		s := x.Str()
		c, ok := index[s]
		if !ok {
			if len(dict) >= DictMaxCard {
				// Overflow: too many distinct strings for a dictionary.
				v.enc, v.kind = EncStr, kind
				v.strs = make([]string, n)
				for j, y := range vals {
					if !y.IsNull() {
						v.strs[j] = y.Str()
					}
				}
				return
			}
			c = int32(len(dict))
			dict = append(dict, s)
			index[s] = c
		}
		codes[i] = c
	}
	v.enc, v.kind = EncDict, kind
	v.codes, v.dict = codes, dict
}

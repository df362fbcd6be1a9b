// Package types defines the scalar value model shared by the storage,
// expression, and execution layers: a compact tagged union with SQL
// three-valued logic, plus comparison and arithmetic rules for the type
// combinations the RFID workload needs (notably TIME ± INTERVAL and
// TIME − TIME → INTERVAL).
package types

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. Time values are absolute instants stored as microseconds
// since the Unix epoch; Interval values are durations stored as
// microseconds. The paper's rules use windows such as "RANGE BETWEEN 1
// MICROSECOND FOLLOWING AND 10 MINUTE FOLLOWING", so microsecond
// resolution is load-bearing.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindInterval
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindTime:
		return "TIME"
	case KindInterval:
		return "INTERVAL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a scalar SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // Bool (0/1), Int, Time (µs since epoch), Interval (µs)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewTime returns a TIME value from microseconds since the Unix epoch.
func NewTime(usec int64) Value { return Value{kind: KindTime, i: usec} }

// NewTimeFrom returns a TIME value from a time.Time.
func NewTimeFrom(t time.Time) Value { return NewTime(t.UnixMicro()) }

// NewInterval returns an INTERVAL value from a duration in microseconds.
func NewInterval(usec int64) Value { return Value{kind: KindInterval, i: usec} }

// NewIntervalFrom returns an INTERVAL value from a time.Duration.
func NewIntervalFrom(d time.Duration) Value { return NewInterval(d.Microseconds()) }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics unless v is a BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("types: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// Int returns the integer payload. It panics unless v is an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("types: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload, widening INT. It panics otherwise.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic("types: Float() on " + v.kind.String())
}

// Str returns the string payload. It panics unless v is a STRING.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("types: Str() on " + v.kind.String())
	}
	return v.s
}

// TimeUsec returns the TIME payload in microseconds since the epoch.
func (v Value) TimeUsec() int64 {
	if v.kind != KindTime {
		panic("types: TimeUsec() on " + v.kind.String())
	}
	return v.i
}

// IntervalUsec returns the INTERVAL payload in microseconds.
func (v Value) IntervalUsec() int64 {
	if v.kind != KindInterval {
		panic("types: IntervalUsec() on " + v.kind.String())
	}
	return v.i
}

// Raw returns the integer payload for ordered kinds (BOOL, INT, TIME,
// INTERVAL) without checking which one; used by tight executor loops that
// have already validated kinds against the schema.
func (v Value) Raw() int64 { return v.i }

// String renders v for diagnostics and result printing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return time.UnixMicro(v.i).UTC().Format("2006-01-02 15:04:05.000000")
	case KindInterval:
		return (time.Duration(v.i) * time.Microsecond).String()
	}
	return "?"
}

// SQL renders v as a SQL literal accepted by the parser.
func (v Value) SQL() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		// No exponent: the lexer reads digits and one decimal point, and
		// a float keeps its point so it reads back as a float.
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		if !strings.ContainsAny(s, ".NI") {
			s += ".0"
		}
		return s
	case KindString:
		return quoteSQLString(v.s)
	case KindTime:
		return "TIMESTAMP '" + time.UnixMicro(v.i).UTC().Format("2006-01-02 15:04:05.000000") + "'"
	case KindInterval:
		return "INTERVAL '" + strconv.FormatInt(v.i, 10) + "' MICROSECOND"
	}
	return "NULL"
}

func quoteSQLString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(append(out, '\''))
}

// Equal reports strict equality of kind and payload. NULLs are equal to
// each other here (Go-level identity, not SQL semantics); use Compare for
// SQL comparison semantics.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	default:
		return v.i == o.i
	}
}

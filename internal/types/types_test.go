package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Errorf("NewBool(true) = %v", v)
	}
	if v := NewInt(-42); v.Int() != -42 {
		t.Errorf("NewInt = %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 {
		t.Errorf("NewFloat = %v", v)
	}
	if v := NewString("abc"); v.Str() != "abc" {
		t.Errorf("NewString = %v", v)
	}
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if v := NewTimeFrom(ts); v.TimeUsec() != ts.UnixMicro() {
		t.Errorf("NewTimeFrom = %v", v)
	}
	if v := NewIntervalFrom(5 * time.Minute); v.IntervalUsec() != 5*60*1_000_000 {
		t.Errorf("NewIntervalFrom = %v", v)
	}
}

func TestIntWidensToFloat(t *testing.T) {
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("Int.Float() = %v", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewTime(10), NewTime(20), -1},
		{NewInterval(100), NewInterval(100), 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	bad := [][2]Value{
		{Null, NewInt(1)},
		{NewInt(1), Null},
		{NewString("x"), NewInt(1)},
		{NewTime(1), NewInterval(1)},
		{NewBool(true), NewInt(1)},
	}
	for _, p := range bad {
		if _, err := Compare(p[0], p[1]); err == nil {
			t.Errorf("Compare(%v,%v) should error", p[0], p[1])
		}
	}
}

func TestArithIntFloat(t *testing.T) {
	mustInt := func(v Value, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	if got := mustInt(Arith(OpAdd, NewInt(2), NewInt(3))); got != 5 {
		t.Errorf("2+3 = %d", got)
	}
	if got := mustInt(Arith(OpSub, NewInt(2), NewInt(3))); got != -1 {
		t.Errorf("2-3 = %d", got)
	}
	if got := mustInt(Arith(OpMul, NewInt(2), NewInt(3))); got != 6 {
		t.Errorf("2*3 = %d", got)
	}
	if got := mustInt(Arith(OpDiv, NewInt(7), NewInt(2))); got != 3 {
		t.Errorf("7/2 = %d", got)
	}
	v, err := Arith(OpDiv, NewFloat(1), NewInt(4))
	if err != nil || v.Float() != 0.25 {
		t.Errorf("1.0/4 = %v, %v", v, err)
	}
	if _, err := Arith(OpDiv, NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Arith(OpDiv, NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should error")
	}
}

func TestArithTimeInterval(t *testing.T) {
	t0 := NewTime(1_000_000)
	t1 := NewTime(4_000_000)
	iv := NewInterval(3_000_000)

	if v, err := Arith(OpSub, t1, t0); err != nil || v.Kind() != KindInterval || v.IntervalUsec() != 3_000_000 {
		t.Errorf("time-time = %v, %v", v, err)
	}
	if v, err := Arith(OpAdd, t0, iv); err != nil || v.Kind() != KindTime || v.TimeUsec() != 4_000_000 {
		t.Errorf("time+interval = %v, %v", v, err)
	}
	if v, err := Arith(OpSub, t1, iv); err != nil || v.TimeUsec() != 1_000_000 {
		t.Errorf("time-interval = %v, %v", v, err)
	}
	if v, err := Arith(OpAdd, iv, t0); err != nil || v.Kind() != KindTime {
		t.Errorf("interval+time = %v, %v", v, err)
	}
	if v, err := Arith(OpAdd, iv, iv); err != nil || v.IntervalUsec() != 6_000_000 {
		t.Errorf("interval+interval = %v, %v", v, err)
	}
	if v, err := Arith(OpMul, iv, NewInt(2)); err != nil || v.IntervalUsec() != 6_000_000 {
		t.Errorf("interval*int = %v, %v", v, err)
	}
	if v, err := Arith(OpMul, NewInt(2), iv); err != nil || v.IntervalUsec() != 6_000_000 {
		t.Errorf("int*interval = %v, %v", v, err)
	}
	if v, err := Arith(OpDiv, iv, NewInt(3)); err != nil || v.IntervalUsec() != 1_000_000 {
		t.Errorf("interval/int = %v, %v", v, err)
	}
	if _, err := Arith(OpAdd, t0, t1); err == nil {
		t.Error("time+time should error")
	}
	if _, err := Arith(OpMul, t0, iv); err == nil {
		t.Error("time*interval should error")
	}
}

func TestArithNullPropagation(t *testing.T) {
	for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv} {
		if v, err := Arith(op, Null, NewInt(1)); err != nil || !v.IsNull() {
			t.Errorf("NULL %s 1 = %v, %v", op, v, err)
		}
		if v, err := Arith(op, NewInt(1), Null); err != nil || !v.IsNull() {
			t.Errorf("1 %s NULL = %v, %v", op, v, err)
		}
	}
}

func TestTristateTables(t *testing.T) {
	vals := []Tristate{False, True, Unknown}
	andWant := [3][3]Tristate{
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	orWant := [3][3]Tristate{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	notWant := [3]Tristate{True, False, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := And(a, b); got != andWant[i][j] {
				t.Errorf("And(%v,%v) = %v, want %v", a, b, got, andWant[i][j])
			}
			if got := Or(a, b); got != orWant[i][j] {
				t.Errorf("Or(%v,%v) = %v, want %v", a, b, got, orWant[i][j])
			}
		}
		if got := Not(a); got != notWant[i] {
			t.Errorf("Not(%v) = %v, want %v", a, got, notWant[i])
		}
	}
}

func TestTruthOfAndBack(t *testing.T) {
	if tr, err := TruthOf(Null); err != nil || tr != Unknown {
		t.Errorf("TruthOf(NULL) = %v, %v", tr, err)
	}
	if tr, err := TruthOf(NewBool(true)); err != nil || tr != True {
		t.Errorf("TruthOf(true) = %v, %v", tr, err)
	}
	if _, err := TruthOf(NewInt(1)); err == nil {
		t.Error("TruthOf(INT) should error")
	}
	if v := ValueOfTristate(Unknown); !v.IsNull() {
		t.Errorf("ValueOfTristate(Unknown) = %v", v)
	}
	if v := ValueOfTristate(False); v.Bool() {
		t.Errorf("ValueOfTristate(False) = %v", v)
	}
}

// groupKey is v's hash key — its ascending sort key — as a map key:
// every hash path (joins, grouping, DISTINCT, set operations, IN sets,
// COUNT(DISTINCT), ANALYZE's distinct count) keys values this way.
func groupKey(v Value) string { return string(AppendSortKey(nil, v, false)) }

// Hash keys keep kinds apart, except that INT and FLOAT are one numeric
// class; −0 keys as +0 and every NaN as one NaN.
func TestGroupKeyDistinguishesKindsAndValues(t *testing.T) {
	vals := []Value{
		Null, NewBool(false), NewBool(true), NewInt(0), NewInt(1),
		NewFloat(1.5), NewString(""), NewString("0"),
		NewString("abc"), NewString("abc\x00def"),
		NewTime(0), NewTime(1), NewInterval(0), NewInterval(1),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := groupKey(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("group key collision between %v (%s) and %v (%s)", prev, prev.Kind(), v, v.Kind())
		}
		seen[k] = v
	}
	for _, same := range [][2]Value{
		{NewInt(1), NewFloat(1)},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(-math.NaN())},
		{Null, Null},
	} {
		if groupKey(same[0]) != groupKey(same[1]) {
			t.Errorf("%v (%s) and %v (%s) must share a group key", same[0], same[0].Kind(), same[1], same[1].Kind())
		}
	}
	// A tuple's keys concatenate unambiguously: no separator is needed.
	tuple := func(vs ...Value) string {
		var b []byte
		for _, v := range vs {
			b = AppendSortKey(b, v, false)
		}
		return string(b)
	}
	if tuple(NewString("x\x1f\x00sy"), NewString("z")) == tuple(NewString("x"), NewString("y\x1f\x00sz")) {
		t.Error("distinct string tuples share a composite key")
	}
}

// Two non-NULL values share a hash key exactly when WHERE's = holds
// (Compare returns 0), with two exceptions: a NaN, which Compare finds
// equal to every number but which keys only with NaN, and an INT past
// 2^53 against the FLOAT it rounds to, which Compare finds equal through
// the rounding but which keys apart, exactly.
func TestGroupKeyMatchesEqualProperty(t *testing.T) {
	agrees := func(a, b Value) bool {
		c, err := Compare(a, b)
		return (groupKey(a) == groupKey(b)) == (err == nil && c == 0)
	}
	if err := quick.Check(func(a, b int64) bool { return agrees(NewInt(a), NewInt(b)) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b string) bool { return agrees(NewString(a), NewString(b)) }, nil); err != nil {
		t.Error(err)
	}
	finite := func(f float64) bool { return !math.IsNaN(f) }
	if err := quick.Check(func(a, b float64) bool {
		return !finite(a) || !finite(b) || agrees(NewFloat(a), NewFloat(b))
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a int32, b float64) bool {
		return !finite(b) || agrees(NewInt(int64(a)), NewFloat(b)) && agrees(NewInt(int64(a)), NewFloat(float64(a)))
	}, nil); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		a, b Value
	}{
		{NewFloat(math.NaN()), NewFloat(1)},
		{NewFloat(math.NaN()), NewInt(1)},
		{NewInt(1<<53 + 1), NewFloat(1 << 53)},
	} {
		if agrees(c.a, c.b) {
			t.Errorf("%v (%s) vs %v (%s): key equality agrees with =; the documented exception is gone", c.a, c.a.Kind(), c.b, c.b.Kind())
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := Compare(NewTime(a), NewTime(b))
		y, _ := Compare(NewTime(b), NewTime(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSQLLiteralRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(7), "7"},
		{NewString("o'neil"), "'o''neil'"},
		{NewInterval(1_000_000), "INTERVAL '1000000' MICROSECOND"},
	}
	for _, c := range cases {
		if got := c.v.SQL(); got != c.want {
			t.Errorf("SQL(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if got := NewInterval(90_000_000).String(); got != "1m30s" {
		t.Errorf("interval String = %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("null String = %q", got)
	}
	if got := NewBool(false).String(); got != "false" {
		t.Errorf("bool String = %q", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	v := NewString("x")
	expectPanic("Bool on string", func() { v.Bool() })
	expectPanic("Int on string", func() { v.Int() })
	expectPanic("Float on string", func() { v.Float() })
	expectPanic("TimeUsec on string", func() { v.TimeUsec() })
	expectPanic("IntervalUsec on string", func() { v.IntervalUsec() })
	expectPanic("Str on int", func() { NewInt(1).Str() })
}

func TestKindStringNames(t *testing.T) {
	want := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "STRING", KindTime: "TIME", KindInterval: "INTERVAL",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render something")
	}
}

func TestTimestampSQLRendering(t *testing.T) {
	v := NewTime(90_061_000_001) // 1970-01-01 01:01:30.000001 - wait: 90061s = 25h1m1s
	got := v.SQL()
	if got != "TIMESTAMP '1970-01-02 01:01:01.000001'" {
		t.Errorf("time SQL = %q", got)
	}
}

package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// exprGen emits random expression source over testSchema (a INT, b INT,
// s STRING, ts TIME), typed so that most expressions evaluate cleanly but
// runtime errors stay reachable (a/b divides by zero whenever b lands on
// 0, substr sees negative starts) — error parity is part of the contract.
type exprGen struct{ r *rand.Rand }

func (g *exprGen) intExpr(d int) string {
	if d <= 0 {
		switch g.r.Intn(5) {
		case 0:
			return "a"
		case 1:
			return "b"
		case 2:
			return "null"
		default:
			return fmt.Sprintf("%d", g.r.Intn(7)-3)
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 3:
		return fmt.Sprintf("(%s / %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 4:
		return fmt.Sprintf("(- %s)", g.intExpr(d-1))
	case 5:
		return fmt.Sprintf("abs(%s)", g.intExpr(d-1))
	case 6:
		return fmt.Sprintf("length(%s)", g.strExpr(d-1))
	default:
		return fmt.Sprintf("case when %s then %s when %s then %s else %s end",
			g.boolExpr(d-1), g.intExpr(d-1), g.boolExpr(d-1), g.intExpr(d-1), g.intExpr(d-1))
	}
}

func (g *exprGen) strExpr(d int) string {
	if d <= 0 {
		switch g.r.Intn(4) {
		case 0:
			return "s"
		case 1:
			return "null"
		default:
			return fmt.Sprintf("'%s'", []string{"", "x", "ab", "abc", "ZZ"}[g.r.Intn(5)])
		}
	}
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("upper(%s)", g.strExpr(d-1))
	case 1:
		return fmt.Sprintf("lower(%s)", g.strExpr(d-1))
	case 2:
		return fmt.Sprintf("substr(%s, %s)", g.strExpr(d-1), g.intExpr(d-1))
	case 3:
		return fmt.Sprintf("substr(%s, %s, %s)", g.strExpr(d-1), g.intExpr(d-1), g.intExpr(d-1))
	default:
		return fmt.Sprintf("coalesce(%s, %s)", g.strExpr(d-1), g.strExpr(d-1))
	}
}

func (g *exprGen) boolExpr(d int) string {
	if d <= 0 {
		op := []string{"=", "<>", "<", "<=", ">", ">="}[g.r.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.intExpr(0), op, g.intExpr(0))
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s and %s)", g.boolExpr(d-1), g.boolExpr(d-1))
	case 1:
		return fmt.Sprintf("(%s or %s)", g.boolExpr(d-1), g.boolExpr(d-1))
	case 2:
		return fmt.Sprintf("(not %s)", g.boolExpr(d-1))
	case 3:
		return fmt.Sprintf("(%s is null)", g.intExpr(d-1))
	case 4:
		return fmt.Sprintf("(%s is not null)", g.strExpr(d-1))
	case 5:
		return fmt.Sprintf("(%s in (%s, %s, %s))", g.intExpr(d-1), g.intExpr(0), g.intExpr(0), g.intExpr(0))
	case 6:
		return fmt.Sprintf("(%s like '%s')", g.strExpr(d-1), []string{"a%", "%b", "_b%", "%", "ab"}[g.r.Intn(5)])
	default:
		op := []string{"=", "<>", "<", ">"}[g.r.Intn(4)]
		return fmt.Sprintf("(%s %s %s)", g.intExpr(d-1), op, g.intExpr(d-1))
	}
}

func (g *exprGen) randRow() schema.Row {
	iv := func() types.Value {
		if g.r.Intn(100) < 15 {
			return types.Null
		}
		return types.NewInt(int64(g.r.Intn(9) - 4))
	}
	sv := types.Null
	if g.r.Intn(100) >= 15 {
		sv = types.NewString([]string{"", "x", "ab", "abc", "aZ", "bbb"}[g.r.Intn(6)])
	}
	return schema.Row{iv(), iv(), sv, types.NewTime(int64(g.r.Intn(1000)))}
}

func sameValue(a, b types.Value) bool {
	return a.Kind() == b.Kind() && string(types.AppendSortKey(nil, a, false)) == string(types.AppendSortKey(nil, b, false))
}

// TestBatchMatchesRowProperty cross-checks EvalBatch against the row path
// on randomly generated nested expressions (CASE, IN, LIKE, arithmetic,
// comparisons, boolean logic, scalar functions) over rows with NULLs:
// byte-identical values and identical errors, for full and partial
// selection vectors. Run with -race this also exercises the shared
// scratch pools from concurrent evaluations.
func TestBatchMatchesRowProperty(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(7))}
	const exprs = 400
	const nrows = 96
	for n := 0; n < exprs; n++ {
		var src string
		if n%2 == 0 {
			src = g.intExpr(3)
		} else {
			src = g.boolExpr(3)
		}
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(e, &Env{Schema: testSchema})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		rows := make([]schema.Row, nrows)
		for i := range rows {
			rows[i] = g.randRow()
		}
		// Full selection and a random sparse selection.
		sels := [][]int{nil}
		var sparse []int
		for i := 0; i < nrows; i++ {
			if g.r.Intn(3) == 0 {
				sparse = append(sparse, i)
			}
		}
		sels = append(sels, sparse)
		for _, sel := range sels {
			idx := sel
			if idx == nil {
				idx = make([]int, nrows)
				for i := range idx {
					idx[i] = i
				}
			}
			// Row path: first error in selection order wins.
			want := make([]types.Value, nrows)
			var wantErr error
			for _, i := range idx {
				v, err := c.Eval(rows[i])
				if err != nil {
					wantErr = err
					break
				}
				want[i] = v
			}
			out := make([]types.Value, nrows)
			gotErr := c.EvalBatch(rows, out, sel)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%q: row err %v, batch err %v", src, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%q: row err %q, batch err %q", src, wantErr, gotErr)
				}
				continue
			}
			for _, i := range idx {
				if !sameValue(want[i], out[i]) {
					t.Fatalf("%q row %d (%v): row path %v, batch %v", src, i, rows[i], want[i], out[i])
				}
			}
		}
	}
}

// TestBatchKernelsExist pins vectorization coverage: the expression shapes
// the executor's hot paths rely on (rule-flag CASE payloads, IN lists,
// LIKE, arithmetic over columns) must compile to batch kernels, not fall
// back to the row closure.
func TestBatchKernelsExist(t *testing.T) {
	for _, src := range []string{
		"a",
		"a + b * 2",
		"a >= 3 and b < 2 or not (s = 'x')",
		"case when a > 0 then 1 when a < 0 then -1 else 0 end",
		"a in (1, 2, 3)",
		"s like 'ab%'",
		"upper(s)",
		"substr(s, 1, 2)",
		"coalesce(a, b, 0)",
		"abs(a - b)",
		"length(s)",
		"a is not null",
		"ts + interval '1' minute",
	} {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(e, &Env{Schema: testSchema})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if !c.Vectorized() {
			t.Errorf("%q: no batch kernel", src)
		}
	}
}

// TestEvalPredicateBatchMatchesRow checks the selection-vector output of
// the batched predicate entry point against per-row EvalPredicate.
func TestEvalPredicateBatchMatchesRow(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(11))}
	for n := 0; n < 200; n++ {
		src := g.boolExpr(3)
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(e, &Env{Schema: testSchema})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		rows := make([]schema.Row, 64)
		for i := range rows {
			rows[i] = g.randRow()
		}
		var want []int
		var wantErr error
		for i, r := range rows {
			ok, err := EvalPredicate(c, r)
			if err != nil {
				wantErr = err
				break
			}
			if ok {
				want = append(want, i)
			}
		}
		got, gotErr := EvalPredicateBatch(c, rows, nil, nil)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%q: row err %v, batch err %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%q: row kept %v, batch kept %v", src, want, got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: row kept %v, batch kept %v", src, want, got)
			}
		}
	}
}

// TestConstantFolding verifies literal-only subexpressions fold at compile
// time — the "1000 * 60" in every sliding-window rule used to compile to
// a per-row multiplication.
func TestConstantFolding(t *testing.T) {
	folds := map[string]types.Value{
		"1000 * 60":                             types.NewInt(60000),
		"(2 + 3) * 4":                           types.NewInt(20),
		"- (5 - 7)":                             types.NewInt(2),
		"case when 1 < 2 then 'x' else 'y' end": types.NewString("x"),
		"'ab' like 'a%'":                        types.NewBool(true),
		"3 in (1, 2, 3)":                        types.NewBool(true),
		"upper('ab')":                           types.NewString("AB"),
		"length(substr('abcdef', 2, 3))":        types.NewInt(3),
		"coalesce(null, 42)":                    types.NewInt(42),
		"1 = 1 and 2 > 1":                       types.NewBool(true),
		"null is null":                          types.NewBool(true),
		"interval '1' minute + interval '2' second": types.NewInterval(62_000_000),
	}
	for src, want := range folds {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(e, &Env{Schema: testSchema})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		v, ok := c.ConstValue()
		if !ok {
			t.Errorf("%q: not folded to a constant", src)
			continue
		}
		if !sameValue(v, want) {
			t.Errorf("%q folded to %v, want %v", src, v, want)
		}
		// A folded expression still evaluates normally (nil row: no column
		// references remain by construction).
		got, err := c.Eval(nil)
		if err != nil || !sameValue(got, want) {
			t.Errorf("%q Eval = %v, %v; want %v", src, got, err, want)
		}
	}

	// Column references block folding.
	for _, src := range []string{"a + 1", "case when a > 0 then 1 else 0 end", "s like 'a%'"} {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(e, &Env{Schema: testSchema})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, ok := c.ConstValue(); ok {
			t.Errorf("%q: folded despite column reference", src)
		}
	}

	// Erroring literal expressions stay unfolded and fail at run time with
	// the row path's message.
	e, err := sqlparser.ParseExpr("1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(e, &Env{Schema: testSchema})
	if err != nil {
		t.Fatalf("compile 1/0: %v (must defer the error to run time)", err)
	}
	if _, ok := c.ConstValue(); ok {
		t.Error("1/0 folded to a constant")
	}
	if _, err := c.Eval(nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("1/0 eval err = %v, want division by zero", err)
	}
}

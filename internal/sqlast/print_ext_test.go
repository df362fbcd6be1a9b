package sqlast_test

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Hand-built ASTs covering printer branches the parser tests reach only
// incidentally. Every printed form must reparse to the same text.
func TestPrinterBranchCoverage(t *testing.T) {
	i := func(n int64) sqlast.Expr { return sqlast.Lit(types.NewInt(n)) }
	stmts := []sqlast.Stmt{
		// Qualified star + DISTINCT + HAVING + OFFSET.
		&sqlast.SelectStmt{
			Distinct: true,
			Items:    []sqlast.SelectItem{{Star: true, StarTable: "t"}},
			From:     []sqlast.TableExpr{&sqlast.TableName{Name: "r", Alias: "t"}},
			GroupBy:  []sqlast.Expr{sqlast.Col("t", "a")},
			Having:   sqlast.Cmp(sqlast.OpGt, &sqlast.FuncCall{Name: "count", Star: true}, i(1)),
			Offset:   ptr(int64(2)),
		},
		// Left join with ON, order by desc, limit+offset.
		&sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{Expr: sqlast.Col("a", "x"), Alias: "out"}},
			From: []sqlast.TableExpr{&sqlast.JoinExpr{
				Type:  sqlast.JoinLeft,
				Left:  &sqlast.TableName{Name: "a"},
				Right: &sqlast.SubqueryTable{Query: simpleSelect(), Alias: "sq"},
				On:    sqlast.Cmp(sqlast.OpEq, sqlast.Col("a", "x"), sqlast.Col("sq", "x")),
			}},
			OrderBy: []sqlast.OrderItem{{Expr: sqlast.Col("a", "x"), Desc: true}},
			Limit:   ptr(int64(3)),
			Offset:  ptr(int64(1)),
		},
		// NOT EXISTS, NOT IN subquery, NOT LIKE, IS NOT NULL together.
		&sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{Star: true}},
			From:  []sqlast.TableExpr{&sqlast.TableName{Name: "r"}},
			Where: sqlast.And(
				&sqlast.Exists{Sub: simpleSelect(), Neg: true},
				&sqlast.In{E: sqlast.Col("", "x"), Sub: simpleSelect(), Neg: true},
				&sqlast.Like{E: sqlast.Col("", "s"), Pattern: sqlast.Lit(types.NewString("%x")), Neg: true},
				&sqlast.IsNull{E: sqlast.Col("", "y"), Neg: true},
			),
		},
		// Set operations chained.
		&sqlast.SetOpStmt{
			Op: sqlast.SetExcept,
			L:  &sqlast.SetOpStmt{Op: sqlast.SetUnion, All: true, L: simpleSelect(), R: simpleSelect()},
			R:  &sqlast.SetOpStmt{Op: sqlast.SetIntersect, L: simpleSelect(), R: simpleSelect()},
		},
		// All frame-bound spellings.
		&sqlast.SelectStmt{
			Items: []sqlast.SelectItem{
				{Expr: win(sqlast.FrameRows, sqlast.BoundUnboundedPreceding, sqlast.BoundCurrentRow), Alias: "w1"},
				{Expr: win(sqlast.FrameRows, sqlast.BoundPreceding, sqlast.BoundFollowing), Alias: "w2"},
				{Expr: win(sqlast.FrameRange, sqlast.BoundCurrentRow, sqlast.BoundUnboundedFollowing), Alias: "w3"},
			},
			From: []sqlast.TableExpr{&sqlast.TableName{Name: "r"}},
		},
	}
	for _, s := range stmts {
		p1 := sqlast.SQL(s)
		re, err := sqlparser.Parse(p1)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\nsql: %s", err, p1)
		}
		if p2 := sqlast.SQL(re); p1 != p2 {
			t.Fatalf("round-trip mismatch:\nfirst : %s\nsecond: %s", p1, p2)
		}
	}
}

func simpleSelect() *sqlast.SelectStmt {
	return &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col("", "x")}},
		From:  []sqlast.TableExpr{&sqlast.TableName{Name: "u"}},
	}
}

func win(unit sqlast.FrameUnit, start, end sqlast.BoundType) *sqlast.WindowExpr {
	off := sqlast.Lit(types.NewInt(2))
	mk := func(t sqlast.BoundType) sqlast.FrameBound {
		fb := sqlast.FrameBound{Type: t}
		if t == sqlast.BoundPreceding || t == sqlast.BoundFollowing {
			fb.Offset = off
		}
		return fb
	}
	return &sqlast.WindowExpr{
		Func:      "sum",
		Arg:       sqlast.Col("", "v"),
		Partition: []sqlast.Expr{sqlast.Col("", "p")},
		Order:     []sqlast.OrderItem{{Expr: sqlast.Col("", "k")}},
		Frame:     &sqlast.Frame{Unit: unit, Start: mk(start), End: mk(end)},
	}
}

func ptr(v int64) *int64 { return &v }

func TestExprSQLCoversScalarShapes(t *testing.T) {
	exprs := []sqlast.Expr{
		&sqlast.Un{Op: sqlast.OpNeg, E: sqlast.Col("", "x")},
		&sqlast.Un{Op: sqlast.OpNeg, E: sqlast.Lit(types.NewFloat(1.5))},
		&sqlast.Un{Op: sqlast.OpNot, E: &sqlast.Un{Op: sqlast.OpNot, E: sqlast.Col("", "b")}},
		&sqlast.Case{Whens: []sqlast.When{{Cond: sqlast.Col("", "c"), Then: sqlast.Lit(types.Null)}}},
		&sqlast.FuncCall{Name: "count", Distinct: true, Args: []sqlast.Expr{sqlast.Col("", "x")}},
		sqlast.Lit(types.NewBool(false)),
		sqlast.Lit(types.NewTime(0)),
	}
	for _, e := range exprs {
		p1 := sqlast.ExprSQL(e)
		re, err := sqlparser.ParseExpr(p1)
		if err != nil {
			t.Fatalf("%q does not reparse: %v", p1, err)
		}
		if p2 := sqlast.ExprSQL(re); !strings.EqualFold(p1, p2) {
			t.Fatalf("expr round-trip: %q vs %q", p1, p2)
		}
	}
}

// TestBindStmtPrints checks the text of a statement under a binding —
// what RewriteInfo.SQL shows: each placeholder prints as its value,
// arithmetic over a bound value folds to one literal, and the text
// parses back to itself with no placeholder left. The cases cover a
// NUL-leading string, a negative value under a negation, and
// placeholders inside IN and EXISTS subqueries.
func TestBindStmtPrints(t *testing.T) {
	vals := []types.Value{types.NewString("\x000\x00"), types.NewInt(-7), types.NewTime(60_000_000)}
	for _, c := range []struct{ src, want string }{
		{"SELECT '\x000\x00', a FROM t WHERE a = $1 AND b > $2 * 3 + c",
			"SELECT '\x000\x00', a FROM t WHERE a = '\x000\x00' AND b > -21 + c"},
		{"SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE u.r <= $3 + INTERVAL '5' MINUTE) AND c <> $1",
			"SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE u.r <= TIMESTAMP '1970-01-01 00:06:00.000000') AND c <> '\x000\x00'"},
		{"SELECT -$2, -(a + $2) FROM t WHERE NOT ($2 < 0) AND a = 'x\x00'",
			"SELECT 7, -(a + -7) FROM t WHERE NOT -7 < 0 AND a = 'x\x00'"},
		{"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = $2) AND a = 1",
			"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = -7) AND a = 1"},
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1"},
	} {
		stmt, err := sqlparser.Parse(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		before := sqlast.SQL(stmt)
		got := sqlast.SQL(sqlast.BindStmt(stmt, vals))
		if got != c.want {
			t.Errorf("%q:\n got %q\nwant %q", c.src, got, c.want)
		}
		if sqlast.SQL(stmt) != before {
			t.Errorf("%q: binding modified the statement", c.src)
		}
		again, err := sqlparser.Parse(got)
		if err != nil {
			t.Fatalf("%q: bound text does not parse: %v", got, err)
		}
		if sqlast.MaxParam(again) != 0 || sqlast.SQL(again) != got {
			t.Errorf("bound text is not a placeholder-free fixed point: %q → %q", got, sqlast.SQL(again))
		}
	}
}

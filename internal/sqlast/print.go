package sqlast

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// SQL renders a statement as deterministic SQL text that the parser in
// internal/sqlparser accepts. Rewritten queries are printed with this
// function before being handed back to the engine, so print → parse must
// round-trip; the tests enforce that.
func SQL(s Stmt) string {
	var b printer
	printStmt(&b, s)
	return b.String()
}

// ExprSQL renders a scalar expression.
func ExprSQL(e Expr) string {
	var b printer
	printExpr(&b, e, 0)
	return b.String()
}

// printer accumulates printed SQL.
type printer struct {
	strings.Builder
}

func printStmt(b *printer, s Stmt) {
	switch s := s.(type) {
	case *SelectStmt:
		printSelect(b, s)
	case *SetOpStmt:
		printStmt(b, s.L)
		b.WriteString(" ")
		b.WriteString(s.Op.String())
		b.WriteString(" ")
		if s.All && s.Op == SetUnion {
			b.WriteString("ALL ")
		}
		printStmt(b, s.R)
	default:
		panic("sqlast: print: unknown statement")
	}
}

func printSelect(b *printer, s *SelectStmt) {
	if len(s.With) > 0 {
		b.WriteString("WITH ")
		for i, c := range s.With {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteString(" AS (")
			printStmt(b, c.Query)
			b.WriteString(")")
		}
		b.WriteString(" ")
	}
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			b.WriteString(it.StarTable)
			b.WriteString(".*")
		case it.Star:
			b.WriteString("*")
		default:
			printExpr(b, it.Expr, 0)
			if it.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			printTable(b, t)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		printExpr(b, s.Where, 0)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, g, 0)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		printExpr(b, s.Having, 0)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		printOrder(b, s.OrderBy)
	}
	if s.Limit != nil {
		fmt.Fprintf(b, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(b, " OFFSET %d", *s.Offset)
	}
}

func printOrder(b *printer, items []OrderItem) {
	for i, o := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		printExpr(b, o.Expr, 0)
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
}

func printTable(b *printer, t TableExpr) {
	switch t := t.(type) {
	case *TableName:
		b.WriteString(t.Name)
		if t.Alias != "" {
			b.WriteString(" ")
			b.WriteString(t.Alias)
		}
	case *SubqueryTable:
		b.WriteString("(")
		printStmt(b, t.Query)
		b.WriteString(")")
		if t.Alias != "" {
			b.WriteString(" ")
			b.WriteString(t.Alias)
		}
	case *JoinExpr:
		printTable(b, t.Left)
		b.WriteString(" ")
		b.WriteString(t.Type.String())
		b.WriteString(" ")
		printTable(b, t.Right)
		if t.On != nil {
			b.WriteString(" ON ")
			printExpr(b, t.On, 0)
		}
	default:
		panic("sqlast: print: unknown table expression")
	}
}

// Operator precedence for parenthesization: higher binds tighter.
func prec(op BinOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	case OpMul, OpDiv:
		return 5
	}
	return 6
}

// nodePrec is the precedence level at which an expression node binds when
// used as an operand; anything weaker than its context gets parenthesized.
// Postfix predicates (IS NULL, IN, LIKE) live at comparison level; NOT
// sits between AND and comparisons.
func nodePrec(e Expr) int {
	switch e := e.(type) {
	case *Bin:
		return prec(e.Op)
	case *Un:
		if e.Op == OpNot {
			return 2
		}
		return 6
	case *IsNull, *In, *Like:
		return 3
	}
	return 6
}

func printExpr(b *printer, e Expr, parentPrec int) {
	if e != nil {
		if p := nodePrec(e); p < parentPrec {
			b.WriteString("(")
			printExpr(b, e, 0)
			b.WriteString(")")
			return
		}
	}
	switch e := e.(type) {
	case nil:
		b.WriteString("NULL")
	case *ColRef:
		if e.Table != "" {
			b.WriteString(e.Table)
			b.WriteString(".")
		}
		b.WriteString(e.Name)
	case *Const:
		b.WriteString(e.V.SQL())
	case *Param:
		b.WriteString("$")
		b.WriteString(strconv.Itoa(e.N))
	case *Bin:
		p := prec(e.Op)
		left := p
		if e.Op.IsComparison() {
			// Comparisons are non-associative: both operands must bind
			// tighter, or reparsing would stop at the first comparison.
			left = p + 1
		}
		printExpr(b, e.L, left)
		b.WriteString(" ")
		b.WriteString(e.Op.String())
		b.WriteString(" ")
		// Right operand gets p+1 so same-precedence chains stay
		// left-associated on reparse (a-b-c prints as a - b - c).
		printExpr(b, e.R, p+1)
	case *Un:
		switch e.Op {
		case OpNot:
			b.WriteString("NOT ")
			printExpr(b, e.E, 3)
		case OpNeg:
			// Numeric literals fold at parse time, so fold them at print
			// time too — otherwise print→parse would not be stable.
			if c, ok := e.E.(*Const); ok && (c.V.Kind() == types.KindInt || c.V.Kind() == types.KindFloat) {
				if v, err := types.Arith(types.OpSub, types.NewInt(0), c.V); err == nil {
					b.WriteString(Lit(v).V.SQL())
					return
				}
			}
			// Render the operand first: a leading '-' would fuse into a
			// SQL line comment ("--"), so parenthesize in that case.
			var inner printer
			printExpr(&inner, e.E, 6)
			b.WriteString("-")
			if strings.HasPrefix(inner.String(), "-") {
				b.WriteString("(")
				b.WriteString(inner.String())
				b.WriteString(")")
			} else {
				b.WriteString(inner.String())
			}
		}
	case *IsNull:
		printExpr(b, e.E, 4)
		if e.Neg {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *Case:
		b.WriteString("CASE")
		for _, w := range e.Whens {
			b.WriteString(" WHEN ")
			printExpr(b, w.Cond, 0)
			b.WriteString(" THEN ")
			printExpr(b, w.Then, 0)
		}
		if e.Else != nil {
			b.WriteString(" ELSE ")
			printExpr(b, e.Else, 0)
		}
		b.WriteString(" END")
	case *In:
		printExpr(b, e.E, 4)
		if e.Neg {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		if e.Sub != nil {
			printStmt(b, e.Sub)
		} else {
			for i, x := range e.List {
				if i > 0 {
					b.WriteString(", ")
				}
				printExpr(b, x, 0)
			}
		}
		b.WriteString(")")
	case *Exists:
		if e.Neg {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		printStmt(b, e.Sub)
		b.WriteString(")")
	case *Like:
		printExpr(b, e.E, 4)
		if e.Neg {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		printExpr(b, e.Pattern, 4)
	case *FuncCall:
		b.WriteString(strings.ToUpper(e.Name))
		b.WriteString("(")
		if e.Star {
			b.WriteString("*")
		} else {
			if e.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range e.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				printExpr(b, a, 0)
			}
		}
		b.WriteString(")")
	case *WindowExpr:
		b.WriteString(strings.ToUpper(e.Func))
		b.WriteString("(")
		if e.Star {
			b.WriteString("*")
		} else if e.Arg != nil {
			printExpr(b, e.Arg, 0)
		}
		b.WriteString(") OVER (")
		sep := ""
		if len(e.Partition) > 0 {
			b.WriteString("PARTITION BY ")
			for i, p := range e.Partition {
				if i > 0 {
					b.WriteString(", ")
				}
				printExpr(b, p, 0)
			}
			sep = " "
		}
		if len(e.Order) > 0 {
			b.WriteString(sep)
			b.WriteString("ORDER BY ")
			printOrder(b, e.Order)
			sep = " "
		}
		if e.Frame != nil {
			b.WriteString(sep)
			b.WriteString(e.Frame.Unit.String())
			b.WriteString(" BETWEEN ")
			printBound(b, e.Frame.Start)
			b.WriteString(" AND ")
			printBound(b, e.Frame.End)
		}
		b.WriteString(")")
	default:
		panic("sqlast: print: unknown expression")
	}
}

func printBound(b *printer, fb FrameBound) {
	switch fb.Type {
	case BoundUnboundedPreceding:
		b.WriteString("UNBOUNDED PRECEDING")
	case BoundPreceding:
		printExpr(b, fb.Offset, 6)
		b.WriteString(" PRECEDING")
	case BoundCurrentRow:
		b.WriteString("CURRENT ROW")
	case BoundFollowing:
		printExpr(b, fb.Offset, 6)
		b.WriteString(" FOLLOWING")
	case BoundUnboundedFollowing:
		b.WriteString("UNBOUNDED FOLLOWING")
	}
}

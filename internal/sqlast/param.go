package sqlast

import (
	"strings"

	"repro/internal/types"
)

// Param is the value placeholder $N (N ≥ 1) in expression position. A
// statement carrying placeholders is a shape: one plan serves every
// binding of it, the values arriving per execution.
type Param struct {
	N int
}

func (*Param) exprNode() {}

// MaxParams bounds placeholder numbers, so a hostile $N cannot size a
// binding vector.
const MaxParams = 1 << 16

// Parameterize returns a copy of s whose liftable comparison literals are
// placeholders, numbered from one past the highest placeholder s already
// has, together with the lifted values in placeholder order. A literal is
// liftable when it is a non-NULL operand of a comparison with a column
// in a top-level WHERE conjunct of any SELECT in s. Literals a rewrite
// must compare with each other stay: when one column is bounded on the
// same side by two conjuncts (an equality bounds both sides), none of
// that column's literals in that WHERE is lifted. Everything else —
// LIMIT, IN lists, LIKE patterns, literals in select lists — stays too.
func Parameterize(s Stmt) (Stmt, []types.Value) {
	out := CloneStmt(s)
	next := MaxParam(s)
	var vals []types.Value
	EachSelect(out, func(sel *SelectStmt) {
		conjs := Conjuncts(sel.Where)
		lo, hi := map[string]int{}, map[string]int{}
		for _, c := range conjs {
			if cr, op, _ := liftable(c); cr != nil {
				k := strings.ToLower(cr.Name)
				switch op {
				case OpEq:
					lo[k]++
					hi[k]++
				case OpLt, OpLe:
					hi[k]++
				case OpGt, OpGe:
					lo[k]++
				}
			}
		}
		for _, c := range conjs {
			cr, _, slot := liftable(c)
			if cr == nil {
				continue
			}
			if k := strings.ToLower(cr.Name); lo[k] > 1 || hi[k] > 1 {
				continue
			}
			next++
			vals = append(vals, (*slot).(*Const).V)
			*slot = &Param{N: next}
		}
	})
	return out, vals
}

// liftable matches `col op literal` (either order) and returns the
// column, the operator with the column on the left, and the literal's
// slot in the comparison.
func liftable(e Expr) (*ColRef, BinOp, *Expr) {
	bin, ok := e.(*Bin)
	if !ok || !bin.Op.IsComparison() {
		return nil, 0, nil
	}
	if cr, ok := bin.L.(*ColRef); ok {
		if c, ok := bin.R.(*Const); ok && !c.V.IsNull() {
			return cr, bin.Op, &bin.R
		}
	}
	if cr, ok := bin.R.(*ColRef); ok {
		if c, ok := bin.L.(*Const); ok && !c.V.IsNull() {
			return cr, bin.Op.Flip(), &bin.L
		}
	}
	return nil, 0, nil
}

// MaxParam returns the highest placeholder number in s, 0 for none.
func MaxParam(s Stmt) int {
	n := 0
	editStmt(s, func(p *Expr) {
		if pm, ok := (*p).(*Param); ok && pm.N > n {
			n = pm.N
		}
	})
	return n
}

// HasParam reports whether e (subqueries included) contains a placeholder.
func HasParam(e Expr) bool {
	found := false
	editExpr(&e, func(p *Expr) {
		if _, ok := (*p).(*Param); ok {
			found = true
		}
	})
	return found
}

// ParamsOf lists the distinct placeholder numbers in e, in first-seen order.
func ParamsOf(e Expr) []int {
	var out []int
	editExpr(&e, func(p *Expr) {
		if pm, ok := (*p).(*Param); ok {
			for _, n := range out {
				if n == pm.N {
					return
				}
			}
			out = append(out, pm.N)
		}
	})
	return out
}

// BindStmt returns a copy of s with each placeholder replaced by its
// value; arithmetic over a bound value and literals folds to one literal
// (the relaxed bound `$1 + INTERVAL ...` prints as the timestamp it
// denotes). Placeholders without a value stay.
func BindStmt(s Stmt, params []types.Value) Stmt {
	out := CloneStmt(s)
	editStmt(out, binder(params))
	return out
}

// BindExpr is BindStmt for one expression.
func BindExpr(e Expr, params []types.Value) Expr {
	out := CloneExpr(e)
	editExpr(&out, binder(params))
	return out
}

// binder is the post-order edit that substitutes values and folds the
// arithmetic directly over them; literal-only arithmetic the statement
// had from the start is left as written.
func binder(params []types.Value) func(*Expr) {
	bound := map[*Const]bool{}
	return func(p *Expr) {
		switch e := (*p).(type) {
		case *Param:
			if e.N >= 1 && e.N <= len(params) {
				c := Lit(params[e.N-1])
				bound[c] = true
				*p = c
			}
		case *Bin:
			l, lok := e.L.(*Const)
			r, rok := e.R.(*Const)
			if !e.Op.IsArith() || !lok || !rok || !(bound[l] || bound[r]) {
				return
			}
			if v, err := types.Arith(ArithOf(e.Op), l.V, r.V); err == nil {
				c := Lit(v)
				bound[c] = true
				*p = c
			}
		}
	}
}

// ArithOf maps an arithmetic BinOp to its value operation.
func ArithOf(op BinOp) types.ArithOp {
	switch op {
	case OpSub:
		return types.OpSub
	case OpMul:
		return types.OpMul
	case OpDiv:
		return types.OpDiv
	}
	return types.OpAdd
}

// EachSelect calls f on every SELECT in s: CTE bodies, derived tables,
// set-operation branches and expression subqueries included.
func EachSelect(s Stmt, f func(*SelectStmt)) {
	switch s := s.(type) {
	case *SelectStmt:
		f(s)
		editStmtOnly(s, func(sub Stmt) { EachSelect(sub, f) })
	case *SetOpStmt:
		EachSelect(s.L, f)
		EachSelect(s.R, f)
	}
}

// editStmtOnly calls f on the statements directly nested in sel.
func editStmtOnly(sel *SelectStmt, f func(Stmt)) {
	for _, c := range sel.With {
		f(c.Query)
	}
	var tables func(TableExpr)
	tables = func(t TableExpr) {
		switch t := t.(type) {
		case *SubqueryTable:
			f(t.Query)
		case *JoinExpr:
			tables(t.Left)
			tables(t.Right)
			subsOf(t.On, f)
		}
	}
	for _, t := range sel.From {
		tables(t)
	}
	for _, it := range sel.Items {
		subsOf(it.Expr, f)
	}
	subsOf(sel.Where, f)
	for _, g := range sel.GroupBy {
		subsOf(g, f)
	}
	subsOf(sel.Having, f)
	for _, o := range sel.OrderBy {
		subsOf(o.Expr, f)
	}
}

// subsOf calls f on the subqueries directly inside e.
func subsOf(e Expr, f func(Stmt)) {
	VisitExprs(e, func(x Expr) {
		switch x := x.(type) {
		case *In:
			if x.Sub != nil {
				f(x.Sub)
			}
		case *Exists:
			f(x.Sub)
		}
	})
}

// editStmt calls f, post-order, on the slot of every expression in s,
// subqueries included; f may replace the expression in its slot.
func editStmt(s Stmt, f func(*Expr)) {
	switch s := s.(type) {
	case *SelectStmt:
		for i := range s.With {
			editStmt(s.With[i].Query, f)
		}
		for i := range s.Items {
			editExpr(&s.Items[i].Expr, f)
		}
		for _, t := range s.From {
			editTable(t, f)
		}
		editExpr(&s.Where, f)
		for i := range s.GroupBy {
			editExpr(&s.GroupBy[i], f)
		}
		editExpr(&s.Having, f)
		for i := range s.OrderBy {
			editExpr(&s.OrderBy[i].Expr, f)
		}
	case *SetOpStmt:
		editStmt(s.L, f)
		editStmt(s.R, f)
	}
}

func editTable(t TableExpr, f func(*Expr)) {
	switch t := t.(type) {
	case *SubqueryTable:
		editStmt(t.Query, f)
	case *JoinExpr:
		editTable(t.Left, f)
		editTable(t.Right, f)
		editExpr(&t.On, f)
	}
}

func editExpr(p *Expr, f func(*Expr)) {
	switch e := (*p).(type) {
	case nil:
		return
	case *Bin:
		editExpr(&e.L, f)
		editExpr(&e.R, f)
	case *Un:
		editExpr(&e.E, f)
	case *IsNull:
		editExpr(&e.E, f)
	case *Case:
		for i := range e.Whens {
			editExpr(&e.Whens[i].Cond, f)
			editExpr(&e.Whens[i].Then, f)
		}
		editExpr(&e.Else, f)
	case *In:
		editExpr(&e.E, f)
		for i := range e.List {
			editExpr(&e.List[i], f)
		}
		editStmt(e.Sub, f)
	case *Exists:
		editStmt(e.Sub, f)
	case *Like:
		editExpr(&e.E, f)
		editExpr(&e.Pattern, f)
	case *FuncCall:
		for i := range e.Args {
			editExpr(&e.Args[i], f)
		}
	case *WindowExpr:
		editExpr(&e.Arg, f)
		for i := range e.Partition {
			editExpr(&e.Partition[i], f)
		}
		for i := range e.Order {
			editExpr(&e.Order[i].Expr, f)
		}
		if e.Frame != nil {
			editExpr(&e.Frame.Start.Offset, f)
			editExpr(&e.Frame.End.Offset, f)
		}
	}
	f(p)
}

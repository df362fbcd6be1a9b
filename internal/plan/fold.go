package plan

import (
	"repro/internal/sqlast"
	"repro/internal/types"
)

// foldConsts simplifies constant arithmetic subtrees ("T1 + 5 minutes"
// with T1 a literal becomes a single literal). Rewrites generate such
// expressions constantly; folding them makes predicates sargable for
// index-scan selection and keeps selectivity estimation exact.
func foldConsts(e sqlast.Expr) sqlast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *sqlast.Bin:
		l := foldConsts(e.L)
		r := foldConsts(e.R)
		if e.Op.IsArith() {
			lc, lok := l.(*sqlast.Const)
			rc, rok := r.(*sqlast.Const)
			if lok && rok {
				var op types.ArithOp
				switch e.Op {
				case sqlast.OpAdd:
					op = types.OpAdd
				case sqlast.OpSub:
					op = types.OpSub
				case sqlast.OpMul:
					op = types.OpMul
				case sqlast.OpDiv:
					op = types.OpDiv
				}
				if v, err := types.Arith(op, lc.V, rc.V); err == nil {
					return sqlast.Lit(v)
				}
			}
		}
		return &sqlast.Bin{Op: e.Op, L: l, R: r}
	case *sqlast.Un:
		inner := foldConsts(e.E)
		if e.Op == sqlast.OpNeg {
			if c, ok := inner.(*sqlast.Const); ok {
				if v, err := types.Arith(types.OpSub, types.NewInt(0), c.V); err == nil {
					return sqlast.Lit(v)
				}
			}
		}
		return &sqlast.Un{Op: e.Op, E: inner}
	case *sqlast.IsNull:
		return &sqlast.IsNull{E: foldConsts(e.E), Neg: e.Neg}
	case *sqlast.Case:
		out := &sqlast.Case{Whens: make([]sqlast.When, len(e.Whens)), Else: foldConsts(e.Else)}
		for i, w := range e.Whens {
			out.Whens[i] = sqlast.When{Cond: foldConsts(w.Cond), Then: foldConsts(w.Then)}
		}
		return out
	case *sqlast.In:
		out := &sqlast.In{E: foldConsts(e.E), Neg: e.Neg, Sub: e.Sub}
		for _, x := range e.List {
			out.List = append(out.List, foldConsts(x))
		}
		return out
	case *sqlast.FuncCall:
		out := &sqlast.FuncCall{Name: e.Name, Distinct: e.Distinct, Star: e.Star}
		for _, a := range e.Args {
			out.Args = append(out.Args, foldConsts(a))
		}
		return out
	case *sqlast.WindowExpr:
		out := &sqlast.WindowExpr{Func: e.Func, Arg: foldConsts(e.Arg), Star: e.Star}
		for _, p := range e.Partition {
			out.Partition = append(out.Partition, foldConsts(p))
		}
		for _, o := range e.Order {
			out.Order = append(out.Order, sqlast.OrderItem{Expr: foldConsts(o.Expr), Desc: o.Desc})
		}
		if e.Frame != nil {
			f := *e.Frame
			f.Start.Offset = foldConsts(e.Frame.Start.Offset)
			f.End.Offset = foldConsts(e.Frame.End.Offset)
			out.Frame = &f
		}
		return out
	default:
		return e
	}
}

// replaceByCanon substitutes subexpressions whose printed form appears in
// repl. The planner uses it to swap aggregate calls, window expressions,
// and GROUP BY keys for references to their computed columns.
func replaceByCanon(e sqlast.Expr, repl map[string]sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	if r, ok := repl[sqlast.ExprSQL(e)]; ok {
		return sqlast.CloneExpr(r)
	}
	switch e := e.(type) {
	case *sqlast.ColRef, *sqlast.Const, *sqlast.Param, *sqlast.Exists:
		return e
	case *sqlast.Bin:
		return &sqlast.Bin{Op: e.Op, L: replaceByCanon(e.L, repl), R: replaceByCanon(e.R, repl)}
	case *sqlast.Un:
		return &sqlast.Un{Op: e.Op, E: replaceByCanon(e.E, repl)}
	case *sqlast.IsNull:
		return &sqlast.IsNull{E: replaceByCanon(e.E, repl), Neg: e.Neg}
	case *sqlast.Case:
		out := &sqlast.Case{Whens: make([]sqlast.When, len(e.Whens)), Else: replaceByCanon(e.Else, repl)}
		for i, w := range e.Whens {
			out.Whens[i] = sqlast.When{Cond: replaceByCanon(w.Cond, repl), Then: replaceByCanon(w.Then, repl)}
		}
		return out
	case *sqlast.In:
		out := &sqlast.In{E: replaceByCanon(e.E, repl), Neg: e.Neg, Sub: e.Sub}
		for _, x := range e.List {
			out.List = append(out.List, replaceByCanon(x, repl))
		}
		return out
	case *sqlast.FuncCall:
		out := &sqlast.FuncCall{Name: e.Name, Distinct: e.Distinct, Star: e.Star}
		for _, a := range e.Args {
			out.Args = append(out.Args, replaceByCanon(a, repl))
		}
		return out
	case *sqlast.WindowExpr:
		return e
	}
	return e
}

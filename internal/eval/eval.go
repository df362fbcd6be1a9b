// Package eval compiles resolved sqlast expressions into executable form
// with SQL three-valued-logic semantics. Column references are resolved
// to ordinals once at compile time; the executor then evaluates
// predicates and projections with no per-row name lookups.
//
// Compile returns a *Compiled carrying two evaluation paths: the
// row-at-a-time closure (Eval) and, for every supported construct, a
// vectorized kernel (EvalBatch/TryBatch, see batch.go) that processes a
// whole morsel per call. Literal-only subexpressions are folded to
// constants at compile time. The two paths are guaranteed bit-identical
// in both values and errors.
//
// Aggregates and window functions are not handled here — the planner
// replaces them with references to computed columns before compiling.
package eval

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// Func is a compiled expression's row-at-a-time form.
type Func func(row schema.Row) (types.Value, error)

// Env supplies name resolution and subquery evaluation to the compiler.
type Env struct {
	// Schema resolves column references.
	Schema *schema.Schema
	// SubEval evaluates an uncorrelated subquery used in IN/EXISTS,
	// returning the first output column's values. It is called once at
	// compile time; nil forbids subqueries.
	SubEval func(sqlast.Stmt) ([]types.Value, error)
	// Params binds placeholders: $N compiles to the constant Params[N-1].
	// A placeholder without a value is ErrUnbound.
	Params []types.Value
}

// ErrUnbound reports a placeholder compiled without a value: either its
// statement ran without one, or it sits where the planner compiles
// expressions once per plan rather than once per execution.
var ErrUnbound = errors.New("eval: placeholder has no value here")

// Compile translates e into an executable Compiled expression.
func Compile(e sqlast.Expr, env *Env) (*Compiled, error) {
	switch e := e.(type) {
	case nil:
		return nil, fmt.Errorf("eval: nil expression")
	case *sqlast.Const:
		return constCompiled(e.V), nil
	case *sqlast.Param:
		if e.N < 1 || e.N > len(env.Params) {
			return nil, fmt.Errorf("%w: $%d", ErrUnbound, e.N)
		}
		return constCompiled(env.Params[e.N-1]), nil
	case *sqlast.ColRef:
		idx, err := env.Schema.Resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		return Column(idx), nil
	case *sqlast.Bin:
		return compileBin(e, env)
	case *sqlast.Un:
		inner, err := Compile(e.E, env)
		if err != nil {
			return nil, err
		}
		c := &Compiled{}
		switch e.Op {
		case sqlast.OpNot:
			c.row = func(row schema.Row) (types.Value, error) {
				v, err := inner.row(row)
				if err != nil {
					return types.Null, err
				}
				t, err := types.TruthOf(v)
				if err != nil {
					return types.Null, err
				}
				return types.ValueOfTristate(types.Not(t)), nil
			}
			if inner.batch != nil {
				c.bbatch = triNot(inner)
				c.batch = batchFromTri(c.bbatch)
			}
		case sqlast.OpNeg:
			c.row = func(row schema.Row) (types.Value, error) {
				v, err := inner.row(row)
				if err != nil {
					return types.Null, err
				}
				if v.Kind() == types.KindInterval {
					return types.NewInterval(-v.IntervalUsec()), nil
				}
				return types.Arith(types.OpSub, types.NewInt(0), v)
			}
			if inner.batch != nil {
				c.batch = batchNeg(inner)
			}
		default:
			return nil, fmt.Errorf("eval: unknown unary operator")
		}
		return foldIfConst(c, inner.isConst), nil
	case *sqlast.IsNull:
		inner, err := Compile(e.E, env)
		if err != nil {
			return nil, err
		}
		neg := e.Neg
		c := &Compiled{row: func(row schema.Row) (types.Value, error) {
			v, err := inner.row(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != neg), nil
		}}
		if inner.batch != nil {
			c.bbatch = triIsNull(inner, neg)
			c.batch = batchFromTri(c.bbatch)
		}
		return foldIfConst(c, inner.isConst), nil
	case *sqlast.Case:
		return compileCase(e, env)
	case *sqlast.In:
		return compileIn(e, env)
	case *sqlast.Exists:
		if env.SubEval == nil {
			return nil, fmt.Errorf("eval: subqueries are not allowed in this context")
		}
		vals, err := env.SubEval(e.Sub)
		if err != nil {
			return nil, err
		}
		return constCompiled(types.NewBool((len(vals) > 0) != e.Neg)), nil
	case *sqlast.Like:
		return compileLike(e, env)
	case *sqlast.FuncCall:
		return compileScalarFunc(e, env)
	case *sqlast.WindowExpr:
		return nil, fmt.Errorf("eval: window function %s must be planned, not evaluated directly", e.Func)
	}
	return nil, fmt.Errorf("eval: unsupported expression %T", e)
}

func compileBin(e *sqlast.Bin, env *Env) (*Compiled, error) {
	l, err := Compile(e.L, env)
	if err != nil {
		return nil, err
	}
	r, err := Compile(e.R, env)
	if err != nil {
		return nil, err
	}
	op := e.Op
	c := &Compiled{}
	vectorizable := allVectorized(l, r)
	switch {
	case op == sqlast.OpAnd:
		c.row = func(row schema.Row) (types.Value, error) {
			lv, err := l.row(row)
			if err != nil {
				return types.Null, err
			}
			lt, err := types.TruthOf(lv)
			if err != nil {
				return types.Null, err
			}
			if lt == types.False {
				return types.NewBool(false), nil
			}
			rv, err := r.row(row)
			if err != nil {
				return types.Null, err
			}
			rt, err := types.TruthOf(rv)
			if err != nil {
				return types.Null, err
			}
			return types.ValueOfTristate(types.And(lt, rt)), nil
		}
		if vectorizable {
			c.bbatch = triAnd(l, r)
			c.batch = batchFromTri(c.bbatch)
		}
	case op == sqlast.OpOr:
		c.row = func(row schema.Row) (types.Value, error) {
			lv, err := l.row(row)
			if err != nil {
				return types.Null, err
			}
			lt, err := types.TruthOf(lv)
			if err != nil {
				return types.Null, err
			}
			if lt == types.True {
				return types.NewBool(true), nil
			}
			rv, err := r.row(row)
			if err != nil {
				return types.Null, err
			}
			rt, err := types.TruthOf(rv)
			if err != nil {
				return types.Null, err
			}
			return types.ValueOfTristate(types.Or(lt, rt)), nil
		}
		if vectorizable {
			c.bbatch = triOr(l, r)
			c.batch = batchFromTri(c.bbatch)
		}
	case op.IsComparison():
		c.row = func(row schema.Row) (types.Value, error) {
			lv, err := l.row(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r.row(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			cc, err := types.Compare(lv, rv)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(cmpHolds(op, cc)), nil
		}
		if vectorizable {
			c.bbatch = triCompare(op, l, r)
			c.batch = batchFromTri(c.bbatch)
		}
	case op.IsArith():
		var aop types.ArithOp
		switch op {
		case sqlast.OpAdd:
			aop = types.OpAdd
		case sqlast.OpSub:
			aop = types.OpSub
		case sqlast.OpMul:
			aop = types.OpMul
		case sqlast.OpDiv:
			aop = types.OpDiv
		}
		c.row = func(row schema.Row) (types.Value, error) {
			lv, err := l.row(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r.row(row)
			if err != nil {
				return types.Null, err
			}
			return types.Arith(aop, lv, rv)
		}
		if vectorizable {
			c.batch = batchArith(aop, l, r)
		}
	default:
		return nil, fmt.Errorf("eval: unsupported binary operator %v", op)
	}
	return foldIfConst(c, allConst(l, r)), nil
}

func cmpHolds(op sqlast.BinOp, c int) bool {
	switch op {
	case sqlast.OpEq:
		return c == 0
	case sqlast.OpNe:
		return c != 0
	case sqlast.OpLt:
		return c < 0
	case sqlast.OpLe:
		return c <= 0
	case sqlast.OpGt:
		return c > 0
	case sqlast.OpGe:
		return c >= 0
	}
	return false
}

// caseArm is one compiled WHEN/THEN pair.
type caseArm struct{ cond, then *Compiled }

func compileCase(e *sqlast.Case, env *Env) (*Compiled, error) {
	arms := make([]caseArm, len(e.Whens))
	armsConst, armsVector := true, true
	for i, w := range e.Whens {
		cond, err := Compile(w.Cond, env)
		if err != nil {
			return nil, err
		}
		then, err := Compile(w.Then, env)
		if err != nil {
			return nil, err
		}
		arms[i] = caseArm{cond, then}
		armsConst = armsConst && allConst(cond, then)
		armsVector = armsVector && allVectorized(cond, then)
	}
	var elseC *Compiled
	if e.Else != nil {
		f, err := Compile(e.Else, env)
		if err != nil {
			return nil, err
		}
		elseC = f
		armsConst = armsConst && f.isConst
		armsVector = armsVector && f.batch != nil
	}
	c := &Compiled{row: func(row schema.Row) (types.Value, error) {
		for _, a := range arms {
			cv, err := a.cond.row(row)
			if err != nil {
				return types.Null, err
			}
			t, err := types.TruthOf(cv)
			if err != nil {
				return types.Null, err
			}
			if t == types.True {
				return a.then.row(row)
			}
		}
		if elseC != nil {
			return elseC.row(row)
		}
		return types.Null, nil
	}}
	if armsVector {
		c.batch = batchCase(arms, elseC)
	}
	return foldIfConst(c, armsConst), nil
}

func compileIn(e *sqlast.In, env *Env) (*Compiled, error) {
	operand, err := Compile(e.E, env)
	if err != nil {
		return nil, err
	}
	var members []*Compiled
	var setHasNull bool
	set := map[string]struct{}{}
	if e.Sub != nil {
		if env.SubEval == nil {
			return nil, fmt.Errorf("eval: subqueries are not allowed in this context")
		}
		vals, err := env.SubEval(e.Sub)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			if v.IsNull() {
				setHasNull = true
				continue
			}
			set[string(types.AppendSortKey(nil, v, false))] = struct{}{}
		}
	} else {
		for _, m := range e.List {
			if cst, ok := m.(*sqlast.Const); ok {
				if cst.V.IsNull() {
					setHasNull = true
				} else {
					set[string(types.AppendSortKey(nil, cst.V, false))] = struct{}{}
				}
				continue
			}
			f, err := Compile(m, env)
			if err != nil {
				return nil, err
			}
			members = append(members, f)
		}
	}
	neg := e.Neg
	c := &Compiled{row: func(row schema.Row) (types.Value, error) {
		v, err := operand.row(row)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		var buf [64]byte
		_, found := set[string(types.AppendSortKey(buf[:0], v, false))]
		sawNull := setHasNull
		if !found {
			for _, m := range members {
				mv, err := m.row(row)
				if err != nil {
					return types.Null, err
				}
				if mv.IsNull() {
					sawNull = true
					continue
				}
				cc, err := types.Compare(v, mv)
				if err != nil {
					continue // mixed kinds never match
				}
				if cc == 0 {
					found = true
					break
				}
			}
		}
		switch {
		case found:
			return types.NewBool(!neg), nil
		case sawNull:
			return types.Null, nil
		default:
			return types.NewBool(neg), nil
		}
	}}
	// Only the compile-time member set vectorizes; IN with computed list
	// members keeps the row path (Vectorized() == false).
	if len(members) == 0 && operand.batch != nil {
		c.bbatch = triIn(operand, set, setHasNull, neg)
		c.batch = batchFromTri(c.bbatch)
	}
	return foldIfConst(c, len(members) == 0 && operand.isConst), nil
}

// compileLike implements SQL LIKE: % matches any run (including empty),
// _ matches exactly one byte. NULL operands yield NULL.
func compileLike(e *sqlast.Like, env *Env) (*Compiled, error) {
	operand, err := Compile(e.E, env)
	if err != nil {
		return nil, err
	}
	pattern, err := Compile(e.Pattern, env)
	if err != nil {
		return nil, err
	}
	neg := e.Neg
	c := &Compiled{row: func(row schema.Row) (types.Value, error) {
		v, err := operand.row(row)
		if err != nil {
			return types.Null, err
		}
		pv, err := pattern.row(row)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || pv.IsNull() {
			return types.Null, nil
		}
		if v.Kind() != types.KindString || pv.Kind() != types.KindString {
			return types.Null, fmt.Errorf("eval: LIKE needs string operands")
		}
		return types.NewBool(likeMatch(v.Str(), pv.Str()) != neg), nil
	}}
	if allVectorized(operand, pattern) {
		c.bbatch = triLike(operand, pattern, neg)
		c.batch = batchFromTri(c.bbatch)
	}
	return foldIfConst(c, allConst(operand, pattern)), nil
}

// likeMatch matches s against a LIKE pattern with the classic iterative
// greedy two-pointer wildcard algorithm.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, starS = pi, si
			pi++
		case star >= 0:
			starS++
			si, pi = starS, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

func compileScalarFunc(e *sqlast.FuncCall, env *Env) (*Compiled, error) {
	name := strings.ToLower(e.Name)
	args := make([]*Compiled, len(e.Args))
	for i, a := range e.Args {
		f, err := Compile(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	argsConst := allConst(args...)
	argsVector := allVectorized(args...)
	c := &Compiled{}
	switch name {
	case "coalesce":
		if len(args) == 0 {
			return nil, fmt.Errorf("eval: COALESCE needs at least one argument")
		}
		c.row = func(row schema.Row) (types.Value, error) {
			for _, f := range args {
				v, err := f.row(row)
				if err != nil {
					return types.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return types.Null, nil
		}
		if argsVector {
			c.batch = batchCoalesce(args)
		}
	case "abs":
		if len(args) != 1 {
			return nil, fmt.Errorf("eval: ABS takes one argument")
		}
		c.row = func(row schema.Row) (types.Value, error) {
			v, err := args[0].row(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.Kind() {
			case types.KindInt:
				if v.Int() < 0 {
					return types.NewInt(-v.Int()), nil
				}
				return v, nil
			case types.KindFloat:
				if v.Float() < 0 {
					return types.NewFloat(-v.Float()), nil
				}
				return v, nil
			case types.KindInterval:
				if v.IntervalUsec() < 0 {
					return types.NewInterval(-v.IntervalUsec()), nil
				}
				return v, nil
			}
			return types.Null, fmt.Errorf("eval: ABS on %s", v.Kind())
		}
		if argsVector {
			c.batch = batchAbs(args[0])
		}
	case "lower", "upper":
		if len(args) != 1 {
			return nil, fmt.Errorf("eval: %s takes one argument", strings.ToUpper(name))
		}
		toUpper := name == "upper"
		c.row = func(row schema.Row) (types.Value, error) {
			v, err := args[0].row(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.Kind() != types.KindString {
				return types.Null, fmt.Errorf("eval: %s on %s", strings.ToUpper(name), v.Kind())
			}
			if toUpper {
				return types.NewString(strings.ToUpper(v.Str())), nil
			}
			return types.NewString(strings.ToLower(v.Str())), nil
		}
		if argsVector {
			c.batch = batchCaseFold(args[0], toUpper)
		}
	case "substr", "substring":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("eval: SUBSTR takes two or three arguments")
		}
		c.row = func(row schema.Row) (types.Value, error) {
			v, err := args[0].row(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.Kind() != types.KindString {
				return types.Null, fmt.Errorf("eval: SUBSTR on %s", v.Kind())
			}
			sv, err := args[1].row(row)
			if err != nil || sv.IsNull() {
				return types.Null, err
			}
			start := sv.Int() - 1 // SQL is 1-based
			str := v.Str()
			if start < 0 {
				start = 0
			}
			if start > int64(len(str)) {
				start = int64(len(str))
			}
			end := int64(len(str))
			if len(args) == 3 {
				lv, err := args[2].row(row)
				if err != nil || lv.IsNull() {
					return types.Null, err
				}
				end = start + lv.Int()
				if end < start {
					end = start
				}
				if end > int64(len(str)) {
					end = int64(len(str))
				}
			}
			return types.NewString(str[start:end]), nil
		}
		if argsVector {
			c.batch = batchSubstr(args)
		}
	case "length":
		if len(args) != 1 {
			return nil, fmt.Errorf("eval: LENGTH takes one argument")
		}
		c.row = func(row schema.Row) (types.Value, error) {
			v, err := args[0].row(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.Kind() != types.KindString {
				return types.Null, fmt.Errorf("eval: LENGTH on %s", v.Kind())
			}
			return types.NewInt(int64(len(v.Str()))), nil
		}
		if argsVector {
			c.batch = batchLength(args[0])
		}
	default:
		if IsAggregateName(name) {
			return nil, fmt.Errorf("eval: aggregate %s must be planned, not evaluated directly", strings.ToUpper(name))
		}
		return nil, fmt.Errorf("eval: unknown function %s", strings.ToUpper(name))
	}
	return foldIfConst(c, argsConst), nil
}

// IsAggregateName reports whether name is a supported aggregate function.
func IsAggregateName(name string) bool {
	switch strings.ToLower(name) {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// EvalPredicate applies a compiled predicate to a row and reports whether
// it holds (NULL counts as not holding, per SQL WHERE semantics).
func EvalPredicate(c *Compiled, row schema.Row) (bool, error) {
	v, err := c.row(row)
	if err != nil {
		return false, err
	}
	t, err := types.TruthOf(v)
	if err != nil {
		return false, err
	}
	return t == types.True, nil
}

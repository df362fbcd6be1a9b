package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/rulegen"
	"repro/internal/sqlast"
	"repro/internal/sqlts"
	"repro/internal/types"
)

// bound is one end of a sequence-key interval: the value of placeholder
// param plus off microseconds, or off itself when param is 0. The
// rewrite carries a query's placeholder symbolically this way — a
// relaxed bound `$1 + 5 minutes` is {1, 5·60·10⁶} — and compares two
// bounds only when they share a placeholder, on their offsets alone.
type bound struct {
	param int
	off   int64
}

// interval is a closed interval over the sequence key; nil bounds are
// unbounded.
type interval struct {
	lo, hi *bound
}

// errConcrete reports a placeholder the rewrite cannot carry
// symbolically; the caller compiles the statement with its values
// folded in instead, which is always correct.
var errConcrete = fmt.Errorf("core: %w", ErrConcrete)

// ErrConcrete marks a statement whose placeholders the rewrite needs as
// literal values.
var ErrConcrete = errors.New("placeholder must be a literal for this rewrite")

// tightenLo raises the lower bound to b; false when the two bounds are
// over different placeholders and so cannot be compared.
func (iv *interval) tightenLo(b bound) bool {
	switch {
	case iv.lo == nil:
		iv.lo = &b
	case iv.lo.param != b.param:
		return false
	case b.off > iv.lo.off:
		iv.lo = &b
	}
	return true
}

// tightenHi lowers the upper bound to b, as tightenLo.
func (iv *interval) tightenHi(b bound) bool {
	switch {
	case iv.hi == nil:
		iv.hi = &b
	case iv.hi.param != b.param:
		return false
	case b.off < iv.hi.off:
		iv.hi = &b
	}
	return true
}

func (iv interval) unbounded() bool { return iv.lo == nil && iv.hi == nil }

// shift returns the interval of X.skey = T.skey + d with T.skey ∈ iv and
// d ∈ [dLo, dHi].
func (iv interval) shift(dLo, dHi *int64) interval {
	out := interval{}
	if iv.lo != nil && dLo != nil {
		out.lo = &bound{iv.lo.param, satAdd(iv.lo.off, *dLo)}
	}
	if iv.hi != nil && dHi != nil {
		out.hi = &bound{iv.hi.param, satAdd(iv.hi.off, *dHi)}
	}
	return out
}

// union widens to cover both intervals; a side whose bounds are over
// different placeholders widens to unbounded.
func (iv interval) union(o interval) interval {
	out := interval{}
	if iv.lo != nil && o.lo != nil && iv.lo.param == o.lo.param {
		out.lo = &bound{iv.lo.param, min64(iv.lo.off, o.lo.off)}
	}
	if iv.hi != nil && o.hi != nil && iv.hi.param == o.hi.param {
		out.hi = &bound{iv.hi.param, max64(iv.hi.off, o.hi.off)}
	}
	return out
}

// contains reports iv ⊇ o.
func (iv interval) contains(o interval) bool {
	if iv.lo != nil && (o.lo == nil || o.lo.param != iv.lo.param || o.lo.off < iv.lo.off) {
		return false
	}
	if iv.hi != nil && (o.hi == nil || o.hi.param != iv.hi.param || o.hi.off > iv.hi.off) {
		return false
	}
	return true
}

func (iv interval) equal(o interval) bool { return iv.contains(o) && o.contains(iv) }

func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// contextAnalysis is the result of the paper's Figure-4 analysis for one
// rule against one query: per context reference, the derived context
// condition; plus the rule-level sequence-key interval that feeds the
// expanded condition.
type contextAnalysis struct {
	Rule *RegisteredRule
	// Feasible is Fig. 4's test: every context reference derived a
	// non-empty context condition.
	Feasible bool
	// Interval is the union of the query interval and every context's
	// derived interval — the data range the expanded rewrite must fetch
	// for this rule.
	Interval interval
	// Contexts carries the per-reference detail (for Table-1 style
	// reporting).
	Contexts []contextCond
}

// contextCond is the derived context condition for one context reference.
type contextCond struct {
	Ref sqlts.Ref
	// Interval on the context's sequence key (from transitivity).
	Interval interval
	// Extra are context-only conjuncts taken directly from the rule
	// condition (set references only — Observation 1 excludes them for
	// position-based references). Rewritten to bare input columns.
	Extra []sqlast.Expr
	// Empty mirrors Fig. 4 line 9: no conjunct could be derived.
	Empty bool
}

// analyzeRule runs transitivity between the query condition (already
// reduced to a sequence-key interval) and one rule's correlation
// conditions, per context reference.
func analyzeRule(reg *RegisteredRule, queryIv interval) *contextAnalysis {
	rule := reg.Rule
	out := &contextAnalysis{Rule: reg, Feasible: true, Interval: queryIv}
	tIdx := rule.TargetIndex()
	conjs := sqlast.Conjuncts(rule.Cond)
	for i, ref := range rule.Pattern {
		if ref.Name == rule.Target {
			continue
		}
		cc := contextCond{Ref: ref}
		// Implied sequence-position conjunct: before ⇒ d ≤ 0, after ⇒
		// d ≥ 0 (ties in the sequence key are allowed either side, which
		// is the safe direction for data selection).
		var dLo, dHi *int64
		zero := int64(0)
		if i < tIdx {
			dHi = &zero
		} else {
			dLo = &zero
		}
		// Explicit sequence-key constraints between this ref and the
		// target tighten the distance bounds. They are position-preserving
		// (Observation 1a), so they apply to singletons and sets alike.
		for _, c := range conjs {
			name, cLo, cHi, ok := rulegen.SignedSkeyBounds(rule, c)
			if !ok || name != ref.Name {
				continue
			}
			if cLo != nil && (dLo == nil || *cLo > *dLo) {
				dLo = cLo
			}
			if cHi != nil && (dHi == nil || *cHi < *dHi) {
				dHi = cHi
			}
		}
		cc.Interval = queryIv.shift(dLo, dHi)
		// Context-only conjuncts join the context condition for set
		// references; for position-based (singleton) references they are
		// not position-preserving and must be excluded (Observation 1b).
		if ref.Set {
			for _, c := range conjs {
				if _, _, _, isSkey := rulegen.SignedSkeyBounds(rule, c); isSkey {
					continue
				}
				if onlyRef(c, ref.Name) {
					cc.Extra = append(cc.Extra, stripQualifier(c))
				}
			}
		}
		cc.Empty = cc.Interval.unbounded() && len(cc.Extra) == 0
		if cc.Empty {
			out.Feasible = false
		}
		out.Interval = out.Interval.union(cc.Interval)
		out.Contexts = append(out.Contexts, cc)
	}
	if !out.Feasible {
		out.Interval = interval{}
	}
	return out
}

func onlyRef(e sqlast.Expr, ref string) bool {
	only := true
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		if cr, ok := x.(*sqlast.ColRef); ok {
			if !strings.EqualFold(cr.Table, ref) {
				only = false
			}
		}
	})
	return only
}

func stripQualifier(e sqlast.Expr) sqlast.Expr {
	return sqlast.MapColRefs(sqlast.CloneExpr(e), func(cr *sqlast.ColRef) sqlast.Expr {
		return &sqlast.ColRef{Name: cr.Name}
	})
}

// intervalExpr renders an interval as conjuncts over the sequence key
// column; nil when unbounded.
func intervalExpr(iv interval, skey string) sqlast.Expr {
	var conjs []sqlast.Expr
	if iv.lo != nil {
		conjs = append(conjs, sqlast.Cmp(sqlast.OpGe, sqlast.Col("", skey), boundExpr(*iv.lo)))
	}
	if iv.hi != nil {
		conjs = append(conjs, sqlast.Cmp(sqlast.OpLe, sqlast.Col("", skey), boundExpr(*iv.hi)))
	}
	return sqlast.And(conjs...)
}

// boundExpr renders a bound: a timestamp literal, or its placeholder
// shifted by an interval literal.
func boundExpr(b bound) sqlast.Expr {
	if b.param == 0 {
		return sqlast.Lit(types.NewTime(b.off))
	}
	p := &sqlast.Param{N: b.param}
	switch {
	case b.off > 0:
		return &sqlast.Bin{Op: sqlast.OpAdd, L: p, R: sqlast.Lit(types.NewInterval(b.off))}
	case b.off < 0:
		return &sqlast.Bin{Op: sqlast.OpSub, L: p, R: sqlast.Lit(types.NewInterval(-b.off))}
	}
	return p
}

// describe renders a context analysis in Table-1 style ("rtime <= T1+5min
// AND reader = 'readerX'", or "{}" when infeasible).
func (ca *contextAnalysis) describe(skey string) string {
	if !ca.Feasible {
		return "{}"
	}
	var parts []string
	for _, cc := range ca.Contexts {
		var sub []string
		if e := intervalExpr(cc.Interval, skey); e != nil {
			sub = append(sub, sqlast.ExprSQL(e))
		}
		for _, x := range cc.Extra {
			sub = append(sub, sqlast.ExprSQL(x))
		}
		if len(sub) > 0 {
			parts = append(parts, strings.Join(sub, " AND "))
		}
	}
	if len(parts) == 0 {
		return "(entire table)"
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, ") OR (") + ")"
}

// foldConstExpr folds constant arithmetic (T1 + 5 minutes → literal).
func foldConstExpr(e sqlast.Expr) sqlast.Expr {
	bin, ok := e.(*sqlast.Bin)
	if !ok || !bin.Op.IsArith() {
		return e
	}
	l, lok := foldConstExpr(bin.L).(*sqlast.Const)
	r, rok := foldConstExpr(bin.R).(*sqlast.Const)
	if !lok || !rok {
		return e
	}
	var op types.ArithOp
	switch bin.Op {
	case sqlast.OpAdd:
		op = types.OpAdd
	case sqlast.OpSub:
		op = types.OpSub
	case sqlast.OpMul:
		op = types.OpMul
	case sqlast.OpDiv:
		op = types.OpDiv
	}
	v, err := types.Arith(op, l.V, r.V)
	if err != nil {
		return e
	}
	return sqlast.Lit(v)
}

// boundOf reads a comparison operand as a sequence-key bound. A literal
// is its microseconds; a TIME placeholder, alone or shifted by an
// interval literal, is carried symbolically. ok is false for an operand
// that does not bound the key (a string, say), and err is errConcrete
// for a placeholder the rewrite cannot carry.
func boundOf(e sqlast.Expr, params []types.Value) (b bound, ok bool, err error) {
	if c, isConst := foldConstExpr(e).(*sqlast.Const); isConst {
		v, ok := usecOf(c)
		return bound{off: v}, ok, nil
	}
	if !sqlast.HasParam(e) {
		return bound{}, false, nil
	}
	var p *sqlast.Param
	var off int64
	switch x := e.(type) {
	case *sqlast.Param:
		p = x
	case *sqlast.Bin:
		pl, lok := x.L.(*sqlast.Param)
		c, cok := x.R.(*sqlast.Const)
		if !lok || !cok || c.V.Kind() != types.KindInterval || (x.Op != sqlast.OpAdd && x.Op != sqlast.OpSub) {
			return bound{}, false, errConcrete
		}
		p, off = pl, c.V.IntervalUsec()
		if x.Op == sqlast.OpSub {
			off = -off
		}
	default:
		return bound{}, false, errConcrete
	}
	if p.N > len(params) {
		return bound{}, false, errConcrete
	}
	switch params[p.N-1].Kind() {
	case types.KindTime:
		return bound{param: p.N, off: off}, true, nil
	case types.KindInt, types.KindInterval:
		return bound{}, false, errConcrete
	}
	return bound{}, false, nil
}

// matchColOperand extracts (colref, operand, op-with-col-left) from a
// comparison whose other side folds to a literal or holds a placeholder.
func matchColOperand(bin *sqlast.Bin) (*sqlast.ColRef, sqlast.Expr, sqlast.BinOp) {
	operand := func(e sqlast.Expr) bool {
		_, isConst := foldConstExpr(e).(*sqlast.Const)
		return isConst || sqlast.HasParam(e)
	}
	if cr, ok := bin.L.(*sqlast.ColRef); ok && operand(bin.R) {
		return cr, bin.R, bin.Op
	}
	if cr, ok := bin.R.(*sqlast.ColRef); ok && operand(bin.L) {
		return cr, bin.L, bin.Op.Flip()
	}
	return nil, nil, bin.Op
}

func usecOf(c *sqlast.Const) (int64, bool) {
	switch c.V.Kind() {
	case types.KindTime:
		return c.V.TimeUsec(), true
	case types.KindInt:
		return c.V.Int(), true
	case types.KindInterval:
		return c.V.IntervalUsec(), true
	}
	return 0, false
}

// validateRuleSet checks the §5.4 requirements: all rules ON the same
// table with identical cluster/sequence keys.
func validateRuleSet(rules []*RegisteredRule) error {
	if len(rules) == 0 {
		return fmt.Errorf("core: no rules to apply")
	}
	first := rules[0].Rule
	for _, r := range rules[1:] {
		if r.Rule.On != first.On {
			return fmt.Errorf("core: rules %s and %s are defined on different tables", first.Name, r.Rule.Name)
		}
		if r.Rule.ClusterBy != first.ClusterBy || r.Rule.SequenceBy != first.SequenceBy {
			return fmt.Errorf("core: rules %s and %s use different cluster/sequence keys", first.Name, r.Rule.Name)
		}
	}
	return nil
}

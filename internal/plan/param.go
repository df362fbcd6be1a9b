package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqlast"
	"repro/internal/storage"
	"repro/internal/types"
)

// BandFactor is how far a plan-time quantity computed from placeholder
// values may move under another binding before the plan is re-made: a
// binding keeps the plan while every recomputed quantity stays within
// [planned/BandFactor, planned·BandFactor].
const BandFactor = 2

// Binding is the placeholder values a statement is planned under and
// the record of what the plan made of them. Plans never hold the values
// themselves — executions bind theirs through exec.Ctx — but costing
// needs some values, so the planner costs under Params and records every
// quantity it computed from them as a Band.
type Binding struct {
	Params []types.Value
	Bands  []*Band
	seen   map[string]bool
}

// Band is one plan-time quantity computed from placeholder values: a
// column's selectivity in rows, or the rows a scan's zone maps keep.
type Band struct {
	// Params are the placeholders the quantity depends on.
	Params []int
	// What names the quantity ("caser.rtime rows").
	What string
	// Planned is its value under the planning binding.
	Planned float64
	eval    func(params []types.Value) (float64, bool)
}

// Holds reports whether the quantity under params stays within the band
// around its planned value. Both sides count one extra row, so a
// quantity near zero does not swing the ratio.
func (bd *Band) Holds(params []types.Value) bool {
	v, ok := bd.eval(params)
	if !ok {
		return false
	}
	r := (v + 1) / (bd.Planned + 1)
	return r >= 1.0/BandFactor && r <= BandFactor
}

// String renders the band for EXPLAIN: "$1: caser.rtime rows 120 (band 60..241)".
func (bd *Band) String() string {
	ps := make([]string, len(bd.Params))
	for i, n := range bd.Params {
		ps[i] = fmt.Sprintf("$%d", n)
	}
	lo := (bd.Planned+1)/BandFactor - 1
	if lo < 0 {
		lo = 0
	}
	return fmt.Sprintf("%s: %s %.0f (band %.0f..%.0f)", strings.Join(ps, ","), bd.What, bd.Planned, lo, (bd.Planned+1)*BandFactor-1)
}

// Holds reports whether every band of the binding holds under params.
func (bn *Binding) Holds(params []types.Value) bool {
	for _, bd := range bn.Bands {
		if !bd.Holds(params) {
			return false
		}
	}
	return true
}

// note records a band once: candidates and repeated subqueries plan the
// same scan many times.
func (bn *Binding) note(deps sqlast.Expr, what string, planned float64, eval func([]types.Value) (float64, bool)) {
	if bn == nil {
		return
	}
	key := fmt.Sprintf("%s|%s|%g", what, sqlast.ExprSQL(deps), planned)
	if bn.seen[key] {
		return
	}
	if bn.seen == nil {
		bn.seen = map[string]bool{}
	}
	bn.seen[key] = true
	bn.Bands = append(bn.Bands, &Band{Params: sqlast.ParamsOf(deps), What: what, Planned: planned, eval: eval})
}

// params is the planning binding's values (nil for a literal plan).
func (b *builder) params() []types.Value {
	if b.bind == nil {
		return nil
	}
	return b.bind.Params
}

// atOpen returns the open-time binder of what f makes of a binding. When
// that depends on no placeholder (param false) the binder returns what f
// made at plan time, so a literal plan compiles once; otherwise it calls
// f under each execution's binding. f runs under the planning binding
// either way, so a plan never holds a predicate that cannot compile.
func atOpen[T any](b *builder, param bool, f func([]types.Value) (T, error)) (func(*exec.Ctx) (T, error), error) {
	planned, err := f(b.params())
	if err != nil {
		return nil, err
	}
	if !param {
		return func(*exec.Ctx) (T, error) { return planned, nil }, nil
	}
	return func(c *exec.Ctx) (T, error) { return f(c.Params()) }, nil
}

// constLike reports whether e is a literal, a placeholder, or arithmetic
// over those — an operand whose value one binding fixes.
func constLike(e sqlast.Expr) bool {
	switch e := e.(type) {
	case *sqlast.Const, *sqlast.Param:
		return true
	case *sqlast.Bin:
		return e.Op.IsArith() && constLike(e.L) && constLike(e.R)
	}
	return false
}

// resolveConst evaluates a constLike operand under params.
func resolveConst(e sqlast.Expr, params []types.Value) (types.Value, bool) {
	switch e := e.(type) {
	case *sqlast.Const:
		return e.V, true
	case *sqlast.Param:
		if e.N >= 1 && e.N <= len(params) {
			return params[e.N-1], true
		}
	case *sqlast.Bin:
		l, lok := resolveConst(e.L, params)
		r, rok := resolveConst(e.R, params)
		if !lok || !rok {
			return types.Null, false
		}
		if v, err := types.Arith(sqlast.ArithOf(e.Op), l, r); err == nil {
			return v, true
		}
	}
	return types.Null, false
}

// colBounds gathers one column's sargable bounds.
type colBounds struct {
	ord    int
	bounds storage.Bounds
	// used lists the conjuncts the bounds came from, in conjunct order.
	used []sqlast.Expr
	sel  float64
	// param marks bounds that depend on a placeholder.
	param bool
}

// sargBounds gathers the sargable bounds of conjs per column of t, under
// params, one entry per column in the order of its first sargable
// conjunct.
func sargBounds(conjs []sqlast.Expr, t *storage.Table, binding string, params []types.Value) []colBounds {
	var cols []colBounds
	for _, c := range conjs {
		ord, op, val, ok := sargable(c, t, binding)
		if !ok {
			continue
		}
		v, ok := resolveConst(val, params)
		if !ok || v.IsNull() {
			continue
		}
		cb := boundsOf(cols, ord)
		if cb == nil {
			cols = append(cols, colBounds{ord: ord})
			cb = &cols[len(cols)-1]
		}
		switch op {
		case sqlast.OpEq:
			cb.bounds.Equals = &v
		case sqlast.OpLt:
			tightenHi(&cb.bounds, v, false)
		case sqlast.OpLe:
			tightenHi(&cb.bounds, v, true)
		case sqlast.OpGt:
			tightenLo(&cb.bounds, v, false)
		case sqlast.OpGe:
			tightenLo(&cb.bounds, v, true)
		default:
			continue
		}
		cb.used = append(cb.used, c)
		if sqlast.HasParam(val) {
			cb.param = true
		}
	}
	return cols
}

// boundsOf returns column ord's entry in cols, or nil.
func boundsOf(cols []colBounds, ord int) *colBounds {
	for i := range cols {
		if cols[i].ord == ord {
			return &cols[i]
		}
	}
	return nil
}

// zonePreds lists the zone summaries of a scan's bounds.
func zonePreds(cols []colBounds) []storage.ZonePred {
	zone := make([]storage.ZonePred, len(cols))
	for i, cb := range cols {
		zone[i] = storage.ZonePred{Col: cb.ord, Bounds: cb.bounds}
	}
	return zone
}

// zoneKept counts the rows of t's segments the zone preds cannot rule out.
func zoneKept(t *storage.Table, zone []storage.ZonePred) int {
	kept := 0
	for _, seg := range t.Segments() {
		if seg.CanMatchAll(zone) {
			kept += seg.Len()
		}
	}
	return kept
}

// ParamKinds infers the kind of each placeholder compared with (or
// listed IN against) a base-table column of its SELECT, keyed by
// placeholder number; placeholders elsewhere are absent.
func ParamKinds(stmt sqlast.Stmt, db *catalog.Database) map[int]types.Kind {
	out := map[int]types.Kind{}
	sqlast.EachSelect(stmt, func(sel *sqlast.SelectStmt) {
		type src struct {
			binding string
			t       *storage.Table
		}
		var srcs []src
		var from func(te sqlast.TableExpr)
		from = func(te sqlast.TableExpr) {
			switch te := te.(type) {
			case *sqlast.TableName:
				if t, ok := db.Table(te.Name); ok {
					srcs = append(srcs, src{strings.ToLower(te.Binding()), t})
				}
			case *sqlast.JoinExpr:
				from(te.Left)
				from(te.Right)
			}
		}
		for _, te := range sel.From {
			from(te)
		}
		kindOf := func(cr *sqlast.ColRef) (types.Kind, bool) {
			for _, s := range srcs {
				if cr.Table != "" && !strings.EqualFold(cr.Table, s.binding) {
					continue
				}
				if ord := s.t.Schema.IndexOf(cr.Name); ord >= 0 {
					return s.t.Schema.Columns[ord].Kind, true
				}
			}
			return 0, false
		}
		note := func(col, other sqlast.Expr) {
			cr, cok := col.(*sqlast.ColRef)
			p, pok := other.(*sqlast.Param)
			if !cok || !pok {
				return
			}
			if k, ok := kindOf(cr); ok {
				out[p.N] = k
			}
		}
		visit := func(e sqlast.Expr) {
			sqlast.VisitExprs(e, func(x sqlast.Expr) {
				switch x := x.(type) {
				case *sqlast.Bin:
					if x.Op.IsComparison() {
						note(x.L, x.R)
						note(x.R, x.L)
					}
				case *sqlast.In:
					for _, m := range x.List {
						note(x.E, m)
					}
				}
			})
		}
		visit(sel.Where)
		visit(sel.Having)
	})
	return out
}

package core

import (
	"fmt"
	"strings"

	"repro/internal/enginerr"
	"repro/internal/plan"
	"repro/internal/sqlast"
	"repro/internal/sqlts"
	"repro/internal/types"
)

// targetRef is one reference to the rules' ON table inside a user query:
// the containing SELECT, the FROM slot holding the table, and the query
// condition split into parts (the paper's σ_s(R) ⋈ dims model of §5.2).
type targetRef struct {
	sel     *sqlast.SelectStmt
	slot    *sqlast.TableExpr // points into sel.From
	binding string
	// s: conjuncts over the target table only.
	s []sqlast.Expr
	// rest: remaining WHERE conjuncts (join conditions, dim-local
	// predicates, multi-table conditions) — left in place.
	rest []sqlast.Expr
	// dims: n:1 reference-table joins usable for semi-join pushdown.
	dims []dimJoin
}

// dimJoin is one "R.key = D.key2" join to a dimension table D with its
// local predicate.
type dimJoin struct {
	rCol    string // column of R used in the join (lower case)
	dim     string // dimension table name
	binding string
	dimCol  string
	local   []sqlast.Expr // conjuncts on the dimension only
}

// analyzeQuery locates every reference to table R in the (already cloned)
// statement and splits each containing SELECT's WHERE clause.
func (rw *Rewriter) analyzeQuery(stmt sqlast.Stmt, table string) ([]*targetRef, error) {
	table = strings.ToLower(table)
	var targets []*targetRef
	var walk func(s sqlast.Stmt) error
	walk = func(s sqlast.Stmt) error {
		switch s := s.(type) {
		case nil:
			return nil
		case *sqlast.SetOpStmt:
			if err := walk(s.L); err != nil {
				return err
			}
			return walk(s.R)
		case *sqlast.SelectStmt:
			for _, cte := range s.With {
				if err := walk(cte.Query); err != nil {
					return err
				}
			}
			for i := range s.From {
				switch te := s.From[i].(type) {
				case *sqlast.TableName:
					// CTE names shadow base tables.
					if strings.ToLower(te.Name) == table && !shadowedByCTE(s, te.Name) {
						t, err := rw.splitWhere(s, &s.From[i], te)
						if err != nil {
							return err
						}
						targets = append(targets, t)
					}
				case *sqlast.SubqueryTable:
					if err := walk(te.Query); err != nil {
						return err
					}
				case *sqlast.JoinExpr:
					if err := walkJoinForTargets(rw, s, &s.From[i], te, table, &targets); err != nil {
						return err
					}
				}
			}
			// Subqueries in WHERE also get cleansed? The paper's model
			// only rewrites relation references in FROM; IN-subqueries
			// over R are used by the rewrites themselves for sequence
			// restriction and are not user cleansing targets.
			return nil
		}
		return fmt.Errorf("core: unsupported statement %T", s)
	}
	if err := walk(stmt); err != nil {
		return nil, err
	}
	return targets, nil
}

func shadowedByCTE(s *sqlast.SelectStmt, name string) bool {
	for _, cte := range s.With {
		if strings.EqualFold(cte.Name, name) {
			return true
		}
	}
	return false
}

// walkJoinForTargets finds references to R inside an ANSI join tree. Such
// references are rewritten with only their s-conjuncts from WHERE (join ON
// conditions stay untouched).
func walkJoinForTargets(rw *Rewriter, sel *sqlast.SelectStmt, slot *sqlast.TableExpr, j *sqlast.JoinExpr, table string, out *[]*targetRef) error {
	var rec func(te *sqlast.TableExpr) error
	rec = func(te *sqlast.TableExpr) error {
		switch t := (*te).(type) {
		case *sqlast.TableName:
			if strings.ToLower(t.Name) == table && !shadowedByCTE(sel, t.Name) {
				tr, err := rw.splitWhere(sel, te, t)
				if err != nil {
					return err
				}
				tr.dims = nil // dim pushdown analysis is comma-join only
				*out = append(*out, tr)
			}
			return nil
		case *sqlast.SubqueryTable:
			return nil
		case *sqlast.JoinExpr:
			if err := rec(&t.Left); err != nil {
				return err
			}
			return rec(&t.Right)
		}
		return nil
	}
	_ = slot
	return rec(slot)
}

// splitWhere classifies sel's WHERE conjuncts relative to the target
// table reference te and discovers dimension joins.
func (rw *Rewriter) splitWhere(sel *sqlast.SelectStmt, slot *sqlast.TableExpr, te *sqlast.TableName) (*targetRef, error) {
	binding := strings.ToLower(te.Binding())
	rCols, err := rw.columnsOf(te.Name)
	if err != nil {
		return nil, err
	}

	// Build binding → column-name sets for every FROM element, so
	// unqualified references classify correctly.
	type src struct {
		binding string
		cols    map[string]bool
		name    string // base table name if plain
	}
	var srcs []src
	var collect func(t sqlast.TableExpr) error
	collect = func(t sqlast.TableExpr) error {
		switch t := t.(type) {
		case *sqlast.TableName:
			cols, err := rw.columnsOf(t.Name)
			if err != nil {
				// CTE reference: resolve through its definition.
				for _, cte := range sel.With {
					if strings.EqualFold(cte.Name, t.Name) {
						names, ok := plan.OutputNames(cte.Query, rw.DB)
						if !ok {
							return fmt.Errorf("core: cannot resolve CTE %s columns", cte.Name)
						}
						set := map[string]bool{}
						for _, n := range names {
							set[n] = true
						}
						srcs = append(srcs, src{binding: strings.ToLower(t.Binding()), cols: set})
						return nil
					}
				}
				return err
			}
			set := map[string]bool{}
			for _, c := range cols {
				set[c] = true
			}
			srcs = append(srcs, src{binding: strings.ToLower(t.Binding()), cols: set, name: strings.ToLower(t.Name)})
			return nil
		case *sqlast.SubqueryTable:
			names, ok := plan.OutputNames(t.Query, rw.DB)
			if !ok {
				return fmt.Errorf("core: cannot resolve derived table %s columns", t.Alias)
			}
			set := map[string]bool{}
			for _, n := range names {
				set[n] = true
			}
			srcs = append(srcs, src{binding: strings.ToLower(t.Alias), cols: set})
			return nil
		case *sqlast.JoinExpr:
			if err := collect(t.Left); err != nil {
				return err
			}
			return collect(t.Right)
		}
		return nil
	}
	for _, f := range sel.From {
		if err := collect(f); err != nil {
			return nil, err
		}
	}

	// bindingsIn resolves the set of bindings a conjunct touches.
	bindingsIn := func(e sqlast.Expr) (map[string]bool, error) {
		out := map[string]bool{}
		var resolveErr error
		sqlast.VisitExprs(e, func(x sqlast.Expr) {
			cr, ok := x.(*sqlast.ColRef)
			if !ok || resolveErr != nil {
				return
			}
			if cr.Table != "" {
				out[strings.ToLower(cr.Table)] = true
				return
			}
			found := ""
			for _, s := range srcs {
				if s.cols[strings.ToLower(cr.Name)] {
					if found != "" && found != s.binding {
						resolveErr = fmt.Errorf("core: ambiguous column %q", cr.Name)
						return
					}
					found = s.binding
				}
			}
			if found == "" {
				resolveErr = fmt.Errorf("core: unknown column %q", cr.Name)
				return
			}
			out[found] = true
		})
		return out, resolveErr
	}

	t := &targetRef{sel: sel, slot: slot, binding: binding}
	_ = rCols
	conjs := sqlast.Conjuncts(sel.Where)
	perBinding := map[string][]sqlast.Expr{}
	type joinEdge struct {
		conj       sqlast.Expr
		rCol       string
		dimBinding string
		dimCol     string
	}
	var edges []joinEdge
	for _, c := range conjs {
		bs, err := bindingsIn(c)
		if err != nil {
			return nil, err
		}
		switch {
		case len(bs) == 1 && bs[binding]:
			t.s = append(t.s, c)
			continue
		case len(bs) == 1:
			for b := range bs {
				perBinding[b] = append(perBinding[b], c)
			}
		case len(bs) == 2 && bs[binding]:
			// Candidate join edge R.k = D.k2.
			if bin, ok := c.(*sqlast.Bin); ok && bin.Op == sqlast.OpEq {
				lc, lok := bin.L.(*sqlast.ColRef)
				rc, rok := bin.R.(*sqlast.ColRef)
				if lok && rok {
					lb, _ := bindingsIn(lc)
					if lb[binding] {
						var db string
						for b := range bs {
							if b != binding {
								db = b
							}
						}
						edges = append(edges, joinEdge{conj: c, rCol: strings.ToLower(lc.Name), dimBinding: db, dimCol: strings.ToLower(rc.Name)})
					} else {
						var db string
						for b := range bs {
							if b != binding {
								db = b
							}
						}
						edges = append(edges, joinEdge{conj: c, rCol: strings.ToLower(rc.Name), dimBinding: db, dimCol: strings.ToLower(lc.Name)})
					}
				}
			}
		}
		t.rest = append(t.rest, c)
	}
	// Materialize dim joins for bindings that are plain base tables.
	for _, e := range edges {
		for _, s := range srcs {
			if s.binding == e.dimBinding && s.name != "" {
				t.dims = append(t.dims, dimJoin{
					rCol: e.rCol, dim: s.name, binding: e.dimBinding,
					dimCol: e.dimCol, local: perBinding[e.dimBinding],
				})
			}
		}
	}
	return t, nil
}

// columnsOf resolves a base table's or view's column names.
func (rw *Rewriter) columnsOf(name string) ([]string, error) {
	if t, ok := rw.DB.Table(name); ok {
		cols := make([]string, t.Schema.Len())
		for i, c := range t.Schema.Columns {
			cols[i] = c.Name
		}
		return cols, nil
	}
	if v, ok := rw.DB.View(name); ok {
		names, ok := plan.OutputNames(v, rw.DB)
		if !ok {
			return nil, fmt.Errorf("core: cannot resolve view %s columns", name)
		}
		return names, nil
	}
	return nil, fmt.Errorf("core: %w: %q", enginerr.ErrNoTable, name)
}

// skeyInterval extracts the closed interval (in microseconds) implied by
// the s-conjuncts on the sequence key, under the planning binding
// params. Returns an unbounded interval when s does not constrain skey,
// and errConcrete when two bounds on one side cannot be compared.
func skeyInterval(s []sqlast.Expr, binding, skey string, params []types.Value) (interval, error) {
	iv := interval{}
	for _, c := range s {
		bin, ok := c.(*sqlast.Bin)
		if !ok || !bin.Op.IsComparison() {
			continue
		}
		cr, operand, op := matchColOperand(bin)
		if cr == nil {
			continue
		}
		if !strings.EqualFold(cr.Name, skey) {
			continue
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, binding) {
			continue
		}
		b, ok, err := boundOf(operand, params)
		if err != nil {
			return interval{}, err
		}
		if !ok {
			continue
		}
		less, more := b, b
		less.off--
		more.off++
		fits := true
		switch op {
		case sqlast.OpLt:
			fits = iv.tightenHi(less)
		case sqlast.OpLe:
			fits = iv.tightenHi(b)
		case sqlast.OpGt:
			fits = iv.tightenLo(more)
		case sqlast.OpGe:
			fits = iv.tightenLo(b)
		case sqlast.OpEq:
			fits = iv.tightenLo(b) && iv.tightenHi(b)
		}
		if !fits {
			return interval{}, errConcrete
		}
	}
	return iv, nil
}

// modifiedColumns returns the set of columns any rule in the list assigns.
func modifiedColumns(rules []*RegisteredRule) map[string]bool {
	out := map[string]bool{}
	for _, r := range rules {
		if r.Rule.Action == sqlts.ActionModify {
			for _, a := range r.Rule.Assignments {
				out[strings.ToLower(a.Column)] = true
			}
		}
	}
	return out
}

// referencesColumns reports whether expr references any of the given
// column names (by name, any qualifier).
func referencesColumns(e sqlast.Expr, cols map[string]bool) bool {
	found := false
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		if cr, ok := x.(*sqlast.ColRef); ok && cols[strings.ToLower(cr.Name)] {
			found = true
		}
	})
	return found
}

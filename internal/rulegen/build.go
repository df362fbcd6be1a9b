package rulegen

import (
	"fmt"
	"strings"

	"repro/internal/sqlast"
	"repro/internal/sqlts"
	"repro/internal/types"
)

// Build instantiates the template over an input relation with the given
// column names (in order), returning the cleansing stage as a SELECT
// statement plus its output column list. Chaining rules is just feeding
// one stage's statement and output columns into the next.
//
// The generated shape is:
//
//	SELECT <passthrough/modified columns>
//	FROM (SELECT *, <window aggregates> FROM <input>) __w_<rule>
//	[WHERE CASE WHEN <condition> THEN .. ELSE .. END = 1]
func (t *Template) Build(input sqlast.TableExpr, inCols []string) (*sqlast.SelectStmt, []string, error) {
	cols := make(map[string]bool, len(inCols))
	for _, c := range inCols {
		cols[strings.ToLower(c)] = true
	}
	for _, it := range t.winItems {
		if cols[it.Alias] {
			return nil, nil, fmt.Errorf("rulegen: rule %s: input already has a column named %s", t.Rule.Name, it.Alias)
		}
	}
	if !cols[t.Rule.ClusterBy] || !cols[t.Rule.SequenceBy] {
		return nil, nil, fmt.Errorf("rulegen: rule %s: input lacks cluster/sequence key (%s, %s)", t.Rule.Name, t.Rule.ClusterBy, t.Rule.SequenceBy)
	}

	inner := &sqlast.SelectStmt{From: []sqlast.TableExpr{input}}
	inner.Items = append(inner.Items, sqlast.SelectItem{Star: true})
	for _, it := range t.winItems {
		inner.Items = append(inner.Items, sqlast.SelectItem{Expr: sqlast.CloneExpr(it.Expr), Alias: it.Alias})
	}

	outer := &sqlast.SelectStmt{From: []sqlast.TableExpr{
		&sqlast.SubqueryTable{Query: inner, Alias: "__w_" + t.Rule.Name},
	}}

	assigned := map[string]sqlast.Expr{}
	var newCols []string
	for _, a := range t.assigns {
		if cols[a.Column] {
			assigned[a.Column] = a.Value
		} else {
			assigned[a.Column] = a.Value
			newCols = append(newCols, a.Column)
		}
	}

	outCols := append([]string{}, inCols...)
	for _, col := range inCols {
		col = strings.ToLower(col)
		if val, ok := assigned[col]; ok && t.Rule.Action == sqlts.ActionModify {
			outer.Items = append(outer.Items, sqlast.SelectItem{
				Expr: &sqlast.Case{
					Whens: []sqlast.When{{Cond: sqlast.CloneExpr(t.cond), Then: sqlast.CloneExpr(val)}},
					Else:  &sqlast.ColRef{Name: col},
				},
				Alias: col,
			})
			continue
		}
		outer.Items = append(outer.Items, sqlast.SelectItem{Expr: &sqlast.ColRef{Name: col}})
	}
	if t.Rule.Action == sqlts.ActionModify {
		for _, col := range newCols {
			val := assigned[col]
			outer.Items = append(outer.Items, sqlast.SelectItem{
				Expr: &sqlast.Case{
					Whens: []sqlast.When{{Cond: sqlast.CloneExpr(t.cond), Then: sqlast.CloneExpr(val)}},
					Else:  sqlast.Lit(defaultFor(val)),
				},
				Alias: col,
			})
			outCols = append(outCols, col)
		}
	}

	switch t.Rule.Action {
	case sqlts.ActionDelete:
		outer.Where = actionFilter(t.cond, false)
	case sqlts.ActionKeep:
		outer.Where = actionFilter(t.cond, true)
	}
	return outer, outCols, nil
}

// actionFilter wraps the rule condition so NULL evaluations behave per the
// paper's semantics: DELETE removes a row only when the condition is
// definitely TRUE (an unknown match must not destroy data); KEEP retains a
// row only when it is definitely TRUE.
func actionFilter(cond sqlast.Expr, keep bool) sqlast.Expr {
	then, els := int64(0), int64(1)
	if keep {
		then, els = 1, 0
	}
	return sqlast.Cmp(sqlast.OpEq,
		&sqlast.Case{
			Whens: []sqlast.When{{Cond: sqlast.CloneExpr(cond), Then: sqlast.Lit(types.NewInt(then))}},
			Else:  sqlast.Lit(types.NewInt(els)),
		},
		sqlast.Lit(types.NewInt(1)))
}

// defaultFor picks the fill value of a MODIFY-created column for rows the
// rule does not touch: the zero of the assigned expression's kind. The
// paper's has_case_nearby flag relies on untouched rows reading as 0.
func defaultFor(val sqlast.Expr) types.Value {
	switch k := constKind(val); k {
	case types.KindString:
		return types.NewString("")
	case types.KindFloat:
		return types.NewFloat(0)
	case types.KindBool:
		return types.NewBool(false)
	case types.KindInterval:
		return types.NewInterval(0)
	default:
		return types.NewInt(0)
	}
}

func constKind(e sqlast.Expr) types.Kind {
	if c, ok := e.(*sqlast.Const); ok {
		return c.V.Kind()
	}
	if b, ok := e.(*sqlast.Bin); ok {
		if k := constKind(b.L); k != types.KindNull {
			return k
		}
		return constKind(b.R)
	}
	return types.KindNull
}

// SQL renders the persistable template text over a $input placeholder,
// which is what the rules catalog stores and shows (step 2 of the paper's
// architecture diagram).
func (t *Template) SQL(inCols []string) (string, error) {
	stmt, _, err := t.Build(&sqlast.TableName{Name: "$input"}, inCols)
	if err != nil {
		return "", err
	}
	return sqlast.SQL(stmt), nil
}

// WindowColumns returns the names of the scalar-aggregate columns the
// template computes; used by tests and EXPLAIN tooling.
func (t *Template) WindowColumns() []string {
	out := make([]string, len(t.winItems))
	for i, it := range t.winItems {
		out[i] = it.Alias
	}
	return out
}

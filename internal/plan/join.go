package plan

import (
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/storage"
)

// component is a set of sources already combined into one plan during join
// ordering.
type component struct {
	pl       *planned
	bindings map[string]bool
}

func (c *component) covers(names []string) bool {
	for _, n := range names {
		if !c.bindings[n] {
			return false
		}
	}
	return true
}

// orderJoins combines planned sources with the remaining multi-source
// conjuncts using a greedy smallest-output-first heuristic, building hash
// joins for equality conjuncts and nested loops otherwise. The larger side
// becomes the probe (left) input so its physical ordering — typically the
// reads table in sequence order — survives the join, which is what lets a
// downstream window operator skip its sort ("order sharing").
func (b *builder) orderJoins(sources []*source, conjs []sqlast.Expr, scope *cteScope) (*planned, error) {
	comps := make([]*component, len(sources))
	for i, s := range sources {
		bind := map[string]bool{}
		for _, n := range s.bindings {
			bind[n] = true
		}
		comps[i] = &component{pl: s.pl, bindings: bind}
	}
	pending := append([]sqlast.Expr{}, conjs...)

	for len(comps) > 1 {
		// Choose the pair with the lowest estimated join output; prefer
		// pairs connected by at least one conjunct.
		bestI, bestJ := -1, -1
		bestRows := 0.0
		bestConnected := false
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				applicable := conjunctsFor(pending, comps[i], comps[j])
				connected := len(applicable) > 0
				rows := b.joinEstimate(comps[i].pl, comps[j].pl, applicable)
				if bestI < 0 || (connected && !bestConnected) || (connected == bestConnected && rows < bestRows) {
					bestI, bestJ, bestRows, bestConnected = i, j, rows, connected
				}
			}
		}
		ci, cj := comps[bestI], comps[bestJ]
		applicable := conjunctsFor(pending, ci, cj)
		merged, err := b.buildJoinComponents(ci, cj, applicable)
		if err != nil {
			return nil, err
		}
		// Remove consumed conjuncts.
		consumed := map[sqlast.Expr]bool{}
		for _, c := range applicable {
			consumed[c] = true
		}
		next := pending[:0]
		for _, c := range pending {
			if !consumed[c] {
				next = append(next, c)
			}
		}
		pending = next
		// Replace the two components with the merged one.
		comps[bestI] = merged
		comps = append(comps[:bestJ], comps[bestJ+1:]...)
	}
	result := comps[0]
	if len(pending) > 0 {
		// Conjuncts that became applicable only at the end (or reference
		// subqueries) filter the final join output.
		return b.applyFilter(result.pl, pending, scope)
	}
	return result.pl, nil
}

// conjunctsFor returns pending conjuncts fully covered by the union of two
// components but not by either alone.
func conjunctsFor(pending []sqlast.Expr, a, c *component) []sqlast.Expr {
	var out []sqlast.Expr
	for _, e := range pending {
		names := bindingsOf(e)
		coveredBoth := true
		for _, n := range names {
			if !a.bindings[n] && !c.bindings[n] {
				coveredBoth = false
				break
			}
		}
		if coveredBoth && !a.covers(names) && !c.covers(names) {
			out = append(out, e)
		}
	}
	return out
}

func bindingsOf(e sqlast.Expr) []string {
	seen := map[string]bool{}
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		if cr, ok := x.(*sqlast.ColRef); ok && cr.Table != "" {
			seen[strings.ToLower(cr.Table)] = true
		}
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

func (b *builder) buildJoinComponents(ci, cj *component, conjs []sqlast.Expr) (*component, error) {
	pl, err := b.buildJoin(ci.pl, cj.pl, conjs, exec.JoinKindInner)
	if err != nil {
		return nil, err
	}
	bind := map[string]bool{}
	for n := range ci.bindings {
		bind[n] = true
	}
	for n := range cj.bindings {
		bind[n] = true
	}
	return &component{pl: pl, bindings: bind}, nil
}

// buildJoin constructs a hash join (when equality conjuncts exist) or a
// nested-loop join between two planned inputs. The bigger input probes.
func (b *builder) buildJoin(l, r *planned, conjs []sqlast.Expr, kind exec.JoinKind) (*planned, error) {
	// LEFT JOIN must keep the AST's left side on the left.
	if kind == exec.JoinKindInner && l.node.EstRows() < r.node.EstRows() {
		l, r = r, l
	}
	var lKeys, rKeys []sqlast.Expr
	var residual []sqlast.Expr
	for _, c := range conjs {
		le, re, ok := equiKey(c, l, r)
		if ok {
			lKeys = append(lKeys, le)
			rKeys = append(rKeys, re)
		} else {
			residual = append(residual, c)
		}
	}
	outSchema := schema.Concat(l.scope, r.scope)
	stats := append(append([]*storage.ColStats{}, l.stats...), r.stats...)
	rows := b.joinEstimate(l, r, conjs)

	if len(lKeys) > 0 {
		lFns, err := compileList(lKeys, l.scope)
		if err != nil {
			return nil, err
		}
		rFns, err := compileList(rKeys, r.scope)
		if err != nil {
			return nil, err
		}
		var res *eval.Compiled
		desc := exec.Abbreviate(sqlast.ExprSQL(sqlast.And(conjs...)))
		if len(residual) > 0 {
			f, err := eval.Compile(sqlast.And(residual...), &eval.Env{Schema: outSchema})
			if err != nil {
				return nil, err
			}
			res = f
		}
		n := exec.NewHashJoinNode(l.node, r.node, lFns, rFns, kind, res, desc)
		// An inner join's build keys can narrow a plain probe-side scan to
		// the rows its index holds for them.
		for j, k := range lKeys {
			if ord := probeColumn(k, l); ord >= 0 && kind == exec.JoinKindInner {
				n.ProbeCol, n.ProbeKey = ord, j
				break
			}
		}
		cost := l.node.EstCost() + r.node.EstCost() + evalCPU(l.node.EstRows()+r.node.EstRows(), costHashRow)
		exec.SetEstimates(n, rows, cost)
		exec.SetOrdering(n, l.node.Ordering())
		return &planned{node: n, scope: outSchema, stats: stats}, nil
	}
	if kind == exec.JoinKindLeft {
		return nil, fmt.Errorf("plan: LEFT JOIN requires an equality condition")
	}
	var pred *eval.Compiled
	desc := "cross"
	if len(residual) > 0 {
		desc = exec.Abbreviate(sqlast.ExprSQL(sqlast.And(residual...)))
		f, err := eval.Compile(sqlast.And(residual...), &eval.Env{Schema: outSchema})
		if err != nil {
			return nil, err
		}
		pred = f
	}
	n := exec.NewNestedLoopJoinNode(l.node, r.node, pred, desc)
	cost := l.node.EstCost() + r.node.EstCost() + l.node.EstRows()*r.node.EstRows()*0.3
	exec.SetEstimates(n, rows, cost)
	return &planned{node: n, scope: outSchema, stats: stats}, nil
}

// equiKey matches "x = y" where x resolves only on l and y only on r (or
// vice versa); returns the per-side key expressions.
func equiKey(c sqlast.Expr, l, r *planned) (sqlast.Expr, sqlast.Expr, bool) {
	bin, ok := c.(*sqlast.Bin)
	if !ok || bin.Op != sqlast.OpEq {
		return nil, nil, false
	}
	lOnL := resolvesOn(bin.L, l)
	lOnR := resolvesOn(bin.L, r)
	rOnL := resolvesOn(bin.R, l)
	rOnR := resolvesOn(bin.R, r)
	switch {
	case lOnL && rOnR:
		return bin.L, bin.R, true
	case lOnR && rOnL:
		return bin.R, bin.L, true
	}
	return nil, nil, false
}

// resolvesOn reports whether every column in e resolves against pl's
// schema (and e has at least one column).
func resolvesOn(e sqlast.Expr, pl *planned) bool {
	hasCol := false
	allOK := true
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		if cr, ok := x.(*sqlast.ColRef); ok {
			hasCol = true
			if _, err := pl.scope.Resolve(cr.Table, cr.Name); err != nil {
				allOK = false
			}
		}
	})
	return hasCol && allOK
}

// joinEstimate approximates the output cardinality of joining l and r
// under the given conjuncts (1/max-distinct per equality, default
// selectivity otherwise).
func (b *builder) joinEstimate(l, r *planned, conjs []sqlast.Expr) float64 {
	rows := l.node.EstRows() * r.node.EstRows()
	if rows < 1 {
		rows = 1
	}
	for _, c := range conjs {
		if le, re, ok := equiKey(c, l, r); ok {
			dl := distinctOf(le, l)
			dr := distinctOf(re, r)
			d := dl
			if dr > d {
				d = dr
			}
			if d > 0 {
				rows /= d
			} else {
				rows *= 0.1
			}
		} else {
			rows *= defaultSel
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// distinctOf estimates distinct values of a key expression on one side.
func distinctOf(e sqlast.Expr, pl *planned) float64 {
	cr, ok := e.(*sqlast.ColRef)
	if !ok {
		return 0
	}
	idx, err := pl.scope.Resolve(cr.Table, cr.Name)
	if err != nil || idx >= len(pl.stats) || pl.stats[idx] == nil {
		return 0
	}
	return pl.stats[idx].DistinctAfter(pl.node.EstRows())
}

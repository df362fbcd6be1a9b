package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/enginerr"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// Planner compiles statements against a database.
type Planner struct {
	DB *catalog.Database
}

// New returns a planner over db.
func New(db *catalog.Database) *Planner { return &Planner{DB: db} }

// Plan builds a physical plan for stmt.
func (p *Planner) Plan(stmt sqlast.Stmt) (exec.Node, error) { return p.PlanBound(stmt, nil) }

// PlanBound plans a statement with placeholders, costing it under
// bind.Params and recording in bind.Bands what the costs made of those
// values. The plan serves any binding: executions supply theirs through
// exec.Ctx.SetParams. A nil bind plans a statement without placeholders.
func (p *Planner) PlanBound(stmt sqlast.Stmt, bind *Binding) (exec.Node, error) {
	b := &builder{db: p.DB, bind: bind}
	pl, err := b.planStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	annotateMemory(pl.node)
	return pl.node, nil
}

// PlanSQL parses and plans a query string.
func (p *Planner) PlanSQL(query string) (exec.Node, error) {
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	return p.Plan(stmt)
}

// planned pairs a node with the scope its expressions resolve against —
// the node's columns under the qualifier of their FROM element — and
// per-output-column base statistics (nil entries where no base column
// traces through). Names live only here: an alias changes the scope and
// builds no node, so a CTE read under two aliases is one shared node
// under two scopes.
type planned struct {
	node  exec.Node
	scope *schema.Schema
	stats []*storage.ColStats
}

// over returns n in p's place: an operator that passes p's rows through
// keeps its scope and statistics.
func (p *planned) over(n exec.Node) *planned {
	return &planned{node: n, scope: p.scope, stats: p.stats}
}

// as returns p seen under the qualifier binding.
func (p *planned) as(binding string) *planned {
	return &planned{node: p.node, scope: p.scope.WithQualifier(binding), stats: p.stats}
}

type cteScope struct {
	parent  *cteScope
	entries map[string]*planned
}

func (s *cteScope) lookup(name string) (*planned, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if e, ok := sc.entries[name]; ok {
			return e, true
		}
	}
	return nil, false
}

type builder struct {
	db *catalog.Database
	// bind is the planning binding of a statement with placeholders.
	bind *Binding
	// subqueries memoizes IN/EXISTS subquery plans by scope and SQL text,
	// so the copies a rewrite inlines or pushdown clones share one node,
	// which the execution then runs once.
	subqueries map[subqueryKey]exec.Node
}

type subqueryKey struct {
	scope *cteScope
	sql   string
}

// ---- statements ----

func (b *builder) planStmt(stmt sqlast.Stmt, scope *cteScope) (*planned, error) {
	switch s := stmt.(type) {
	case *sqlast.SelectStmt:
		return b.planSelect(s, scope)
	case *sqlast.SetOpStmt:
		l, err := b.planStmt(s.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := b.planStmt(s.R, scope)
		if err != nil {
			return nil, err
		}
		if s.Op == sqlast.SetUnion {
			u, err := exec.NewUnionNode(l.node, r.node)
			if err != nil {
				return nil, err
			}
			rows := l.node.EstRows() + r.node.EstRows()
			exec.SetEstimates(u, rows, l.node.EstCost()+r.node.EstCost()+rows*costUnionRow)
			if s.All {
				return l.over(u), nil
			}
			d := exec.NewDistinct(u)
			exec.SetEstimates(d, rows*0.9, u.EstCost()+evalCPU(rows, costGroupRow))
			return l.over(d), nil
		}
		n, err := exec.NewSetOp(l.node, r.node, s.Op == sqlast.SetIntersect)
		if err != nil {
			return nil, err
		}
		rows := l.node.EstRows() * 0.5
		if s.Op == sqlast.SetIntersect {
			rows = l.node.EstRows() * 0.3
		}
		cost := l.node.EstCost() + r.node.EstCost() + evalCPU(l.node.EstRows()+r.node.EstRows(), costHashRow)
		for m := n; len(m.Children()) == 1; m = m.Children()[0] {
			exec.SetEstimates(m, rows, cost)
		}
		return l.over(n), nil
	}
	return nil, fmt.Errorf("plan: unsupported statement %T", stmt)
}

// source is one FROM element during planning.
type source struct {
	// binding names visible from this element (one for tables/subqueries,
	// several for an ANSI join subtree).
	bindings []string
	// colNames are the output column names, for unqualified resolution.
	colNames map[string]bool
	// ast retained for deferred planning (pushdown happens first).
	ast sqlast.TableExpr
	// pl is set once planned.
	pl *planned
}

func (s *source) hasBinding(name string) bool {
	for _, b := range s.bindings {
		if b == name {
			return true
		}
	}
	return false
}

func (b *builder) planSelect(sel *sqlast.SelectStmt, scope *cteScope) (*planned, error) {
	// 1. CTEs: planned once, shared by reference.
	if len(sel.With) > 0 {
		scope = &cteScope{parent: scope, entries: map[string]*planned{}}
		for _, cte := range sel.With {
			pl, err := b.planStmt(cte.Query, scope)
			if err != nil {
				return nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
			}
			scope.entries[strings.ToLower(cte.Name)] = pl
		}
	}

	// 2. Pre-resolve FROM sources (names only; planning is deferred so
	// single-source predicates can be pushed into subquery ASTs).
	sources := make([]*source, len(sel.From))
	for i, te := range sel.From {
		src, err := b.preResolve(te, scope)
		if err != nil {
			return nil, err
		}
		sources[i] = src
	}
	if len(sources) == 0 {
		// FROM-less SELECT: a single empty row.
		one := exec.NewValuesNode(schema.New(), []schema.Row{{}})
		pl := &planned{node: one, scope: one.Schema()}
		return b.finishSelect(sel, pl, scope)
	}

	// 3. Classify WHERE conjuncts by the sources they reference.
	conjuncts := sqlast.Conjuncts(foldConsts(sel.Where))
	perSource := make([][]sqlast.Expr, len(sources))
	var joinConjs []sqlast.Expr
	for _, c := range conjuncts {
		refs, err := referencedSources(c, sources)
		if err != nil {
			return nil, err
		}
		if len(refs) == 1 {
			perSource[refs[0]] = append(perSource[refs[0]], c)
		} else {
			joinConjs = append(joinConjs, c)
		}
	}

	// 4. Plan each source with its local predicates.
	for i, src := range sources {
		pl, err := b.planSource(src, perSource[i], scope)
		if err != nil {
			return nil, err
		}
		src.pl = pl
	}

	// 5. Join ordering (greedy) over remaining conjuncts.
	joined, err := b.orderJoins(sources, joinConjs, scope)
	if err != nil {
		return nil, err
	}

	return b.finishSelect(sel, joined, scope)
}

// preResolve determines bindings and visible column names of a FROM
// element without planning it.
func (b *builder) preResolve(te sqlast.TableExpr, scope *cteScope) (*source, error) {
	switch te := te.(type) {
	case *sqlast.TableName:
		binding := strings.ToLower(te.Binding())
		name := strings.ToLower(te.Name)
		src := &source{bindings: []string{binding}, colNames: map[string]bool{}, ast: te}
		if pl, ok := scope.lookupName(name); ok {
			for _, c := range pl.scope.Columns {
				src.colNames[c.Name] = true
			}
			return src, nil
		}
		if t, ok := b.db.Table(name); ok {
			for _, c := range t.Schema.Columns {
				src.colNames[c.Name] = true
			}
			return src, nil
		}
		if v, ok := b.db.View(name); ok {
			names, ok := OutputNames(v, b.db)
			if !ok {
				return nil, fmt.Errorf("plan: cannot determine columns of view %q", name)
			}
			for _, n := range names {
				src.colNames[n] = true
			}
			return src, nil
		}
		return nil, fmt.Errorf("plan: %w: %q", enginerr.ErrNoTable, te.Name)
	case *sqlast.SubqueryTable:
		binding := strings.ToLower(te.Alias)
		src := &source{bindings: []string{binding}, colNames: map[string]bool{}, ast: te}
		names, ok := OutputNames(te.Query, b.db)
		if !ok {
			return nil, fmt.Errorf("plan: cannot determine columns of derived table %q", te.Alias)
		}
		for _, n := range names {
			src.colNames[n] = true
		}
		return src, nil
	case *sqlast.JoinExpr:
		l, err := b.preResolve(te.Left, scope)
		if err != nil {
			return nil, err
		}
		r, err := b.preResolve(te.Right, scope)
		if err != nil {
			return nil, err
		}
		src := &source{ast: te, colNames: map[string]bool{}}
		src.bindings = append(append([]string{}, l.bindings...), r.bindings...)
		for n := range l.colNames {
			src.colNames[n] = true
		}
		for n := range r.colNames {
			src.colNames[n] = true
		}
		return src, nil
	}
	return nil, fmt.Errorf("plan: unsupported FROM element %T", te)
}

// lookupName adapts cteScope.lookup for a possibly-nil receiver.
func (s *cteScope) lookupName(name string) (*planned, bool) {
	if s == nil {
		return nil, false
	}
	return s.lookup(name)
}

// OutputNames derives the output column names of a statement without
// planning it; false when a computed column has no derivable name.
func OutputNames(stmt sqlast.Stmt, db *catalog.Database) ([]string, bool) {
	switch s := stmt.(type) {
	case *sqlast.SelectStmt:
		var out []string
		for _, it := range s.Items {
			switch {
			case it.Star:
				// Expand from FROM sources.
				for _, te := range s.From {
					names, ok := fromNames(te, it.StarTable, s, db)
					if !ok {
						return nil, false
					}
					out = append(out, names...)
				}
			case it.Alias != "":
				out = append(out, strings.ToLower(it.Alias))
			default:
				if cr, ok := it.Expr.(*sqlast.ColRef); ok {
					out = append(out, strings.ToLower(cr.Name))
				} else {
					return nil, false
				}
			}
		}
		return out, true
	case *sqlast.SetOpStmt:
		return OutputNames(s.L, db)
	}
	return nil, false
}

func fromNames(te sqlast.TableExpr, starTable string, sel *sqlast.SelectStmt, db *catalog.Database) ([]string, bool) {
	switch te := te.(type) {
	case *sqlast.TableName:
		if starTable != "" && !strings.EqualFold(te.Binding(), starTable) {
			return nil, true
		}
		name := strings.ToLower(te.Name)
		for _, cte := range sel.With {
			if strings.ToLower(cte.Name) == name {
				return OutputNames(cte.Query, db)
			}
		}
		if t, ok := db.Table(name); ok {
			var out []string
			for _, c := range t.Schema.Columns {
				out = append(out, c.Name)
			}
			return out, true
		}
		if v, ok := db.View(name); ok {
			return OutputNames(v, db)
		}
		return nil, false
	case *sqlast.SubqueryTable:
		if starTable != "" && !strings.EqualFold(te.Alias, starTable) {
			return nil, true
		}
		return OutputNames(te.Query, db)
	case *sqlast.JoinExpr:
		l, ok := fromNames(te.Left, starTable, sel, db)
		if !ok {
			return nil, false
		}
		r, ok := fromNames(te.Right, starTable, sel, db)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	}
	return nil, false
}

// referencedSources returns the indices of sources a conjunct references.
func referencedSources(e sqlast.Expr, sources []*source) ([]int, error) {
	seen := map[int]bool{}
	var resolveErr error
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		cr, ok := x.(*sqlast.ColRef)
		if !ok || resolveErr != nil {
			return
		}
		if cr.Table != "" {
			for i, s := range sources {
				if s.hasBinding(strings.ToLower(cr.Table)) {
					seen[i] = true
					return
				}
			}
			resolveErr = fmt.Errorf("plan: unknown table qualifier %q", cr.Table)
			return
		}
		found := -1
		for i, s := range sources {
			if s.colNames[strings.ToLower(cr.Name)] {
				if found >= 0 {
					resolveErr = fmt.Errorf("plan: ambiguous column %q", cr.Name)
					return
				}
				found = i
			}
		}
		if found < 0 {
			resolveErr = fmt.Errorf("plan: unknown column %q", cr.Name)
			return
		}
		seen[found] = true
	})
	if resolveErr != nil {
		return nil, resolveErr
	}
	out := make([]int, 0, len(seen))
	for i := range sources {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out, nil
}

// planSource plans one FROM element with its local predicates, pushing
// them into subquery/view bodies when safe, or choosing an index scan on a
// base table.
func (b *builder) planSource(src *source, conjs []sqlast.Expr, scope *cteScope) (*planned, error) {
	switch te := src.ast.(type) {
	case *sqlast.TableName:
		binding := strings.ToLower(te.Binding())
		name := strings.ToLower(te.Name)
		if cte, ok := scope.lookupName(name); ok {
			return b.applyFilter(cte.as(binding), conjs, scope)
		}
		if t, ok := b.db.Table(name); ok {
			return b.planScan(t, binding, conjs, scope)
		}
		if v, ok := b.db.View(name); ok {
			body := sqlast.CloneStmt(v)
			body, rest := pushIntoStmt(body, conjs, binding, b.db)
			pl, err := b.planStmt(body, scope)
			if err != nil {
				return nil, fmt.Errorf("in view %s: %w", name, err)
			}
			return b.applyFilter(pl.as(binding), rest, scope)
		}
		return nil, fmt.Errorf("plan: %w: %q", enginerr.ErrNoTable, te.Name)
	case *sqlast.SubqueryTable:
		binding := strings.ToLower(te.Alias)
		body := sqlast.CloneStmt(te.Query)
		body, rest := pushIntoStmt(body, conjs, binding, b.db)
		pl, err := b.planStmt(body, scope)
		if err != nil {
			return nil, err
		}
		return b.applyFilter(pl.as(binding), rest, scope)
	case *sqlast.JoinExpr:
		pl, err := b.planJoinExpr(te, scope)
		if err != nil {
			return nil, err
		}
		return b.applyFilter(pl, conjs, scope)
	}
	return nil, fmt.Errorf("plan: unsupported FROM element %T", src.ast)
}

// planJoinExpr plans an ANSI join subtree directly.
func (b *builder) planJoinExpr(j *sqlast.JoinExpr, scope *cteScope) (*planned, error) {
	lsrc, err := b.preResolve(j.Left, scope)
	if err != nil {
		return nil, err
	}
	rsrc, err := b.preResolve(j.Right, scope)
	if err != nil {
		return nil, err
	}
	l, err := b.planSource(lsrc, nil, scope)
	if err != nil {
		return nil, err
	}
	r, err := b.planSource(rsrc, nil, scope)
	if err != nil {
		return nil, err
	}
	kind := exec.JoinKindInner
	if j.Type == sqlast.JoinLeft {
		kind = exec.JoinKindLeft
	}
	return b.buildJoin(l, r, sqlast.Conjuncts(foldConsts(j.On)), kind)
}

// applyFilter layers remaining conjuncts over a planned node.
func (b *builder) applyFilter(pl *planned, conjs []sqlast.Expr, scope *cteScope) (*planned, error) {
	if len(conjs) == 0 {
		return pl, nil
	}
	expr := sqlast.And(conjs...)
	return b.filterNode(pl, expr, scope)
}

// filterNode builds a filter over pl; a predicate with subqueries or
// placeholders is bound when the statement runs (see bindPredicate).
func (b *builder) filterNode(pl *planned, expr sqlast.Expr, scope *cteScope) (*planned, error) {
	subplans, order, subCost, err := b.planSubqueries(expr, scope)
	if err != nil {
		return nil, err
	}
	sel := b.selectivity(expr, pl, subplans)
	rows := pl.node.EstRows() * sel
	cost := pl.node.EstCost() + evalCPU(pl.node.EstRows(), costFilterRow) + subCost
	n := exec.NewFilterNode(pl.node, nil, "")
	n.SetSubplans(order)
	n.Pred = exec.LabelOf(expr)
	var probe sqlast.Stmt
	if len(subplans) > 0 {
		n.ProbeCol, probe = probeConjunct(expr, pl)
	}
	if n.Bind, err = b.bindPredicate(expr, pl.scope, subplans, probe); err != nil {
		return nil, err
	}
	exec.SetEstimates(n, rows, cost)
	return pl.over(n), nil
}

// planSubqueries plans every IN/EXISTS subquery inside expr, returning
// the plans by statement and in the order they appear.
func (b *builder) planSubqueries(expr sqlast.Expr, scope *cteScope) (map[sqlast.Stmt]exec.Node, []exec.Node, float64, error) {
	var stmts []sqlast.Stmt
	sqlast.VisitExprs(expr, func(x sqlast.Expr) {
		switch x := x.(type) {
		case *sqlast.In:
			if x.Sub != nil {
				stmts = append(stmts, x.Sub)
			}
		case *sqlast.Exists:
			stmts = append(stmts, x.Sub)
		}
	})
	if len(stmts) == 0 {
		return nil, nil, 0, nil
	}
	plans := make(map[sqlast.Stmt]exec.Node, len(stmts))
	order := make([]exec.Node, 0, len(stmts))
	cost := 0.0
	for _, s := range stmts {
		key := subqueryKey{scope, sqlast.SQL(s)}
		node, ok := b.subqueries[key]
		if !ok {
			pl, err := b.planStmt(s, scope)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("in subquery: %w", err)
			}
			node = pl.node
			if b.subqueries == nil {
				b.subqueries = map[subqueryKey]exec.Node{}
			}
			b.subqueries[key] = node
		}
		plans[s] = node
		order = append(order, node)
		cost += node.EstCost()
	}
	return plans, order, cost, nil
}

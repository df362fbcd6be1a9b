package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/enginerr"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Strategy selects a rewrite family.
type Strategy uint8

// Strategies. StrategyAuto generates expanded and join-back candidates and
// submits the one with the lowest planner cost estimate, mirroring the
// paper's compile-all-candidates-and-pick-cheapest loop. StrategyDirty
// runs the query without cleansing (the q baseline in §6, generally
// incorrect).
const (
	StrategyAuto Strategy = iota
	StrategyNaive
	StrategyExpanded
	StrategyJoinBack
	StrategyDirty
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyExpanded:
		return "expanded"
	case StrategyJoinBack:
		return "join-back"
	case StrategyDirty:
		return "dirty"
	}
	return "?"
}

// Rewriter is the query-rewrite engine (steps 3–5 of the paper's
// architecture): it intercepts user SQL, applies the relevant cleansing
// rules from the registry, and produces a rewritten statement.
type Rewriter struct {
	DB       *catalog.Database
	Registry *Registry
	Planner  *plan.Planner
}

// NewRewriter builds a rewriter over a database and its rules catalog.
func NewRewriter(db *catalog.Database, reg *Registry) *Rewriter {
	return &Rewriter{DB: db, Registry: reg, Planner: plan.New(db)}
}

// Result is a finished rewrite.
type Result struct {
	Stmt     sqlast.Stmt
	SQL      string
	Strategy Strategy
	// EstCost is the planner estimate of the chosen statement.
	EstCost float64
	// Plan is the physical plan of the chosen statement, ready to run.
	Plan exec.Node
	// Candidates records every evaluated alternative for diagnostics.
	Candidates []CandidateInfo
	// Phases records how long each compilation stage took when this
	// result was produced; the serving layer turns them into trace spans
	// and latency metrics. A cached Result keeps its original phase
	// timings.
	Phases Phases
	// Bind is the planning binding of a statement with placeholders: the
	// values every candidate was costed under and the bands those costs
	// hold for. nil for a statement without placeholders.
	Bind *plan.Binding
}

// Phases is the compilation-time breakdown of one rewrite: parsing the
// SQL, generating and costing rewrite candidates, and physical planning
// (the Planner.Plan calls, which candidate costing interleaves with
// rewriting).
type Phases struct {
	Parse   time.Duration
	Rewrite time.Duration
	Plan    time.Duration
}

// CandidateInfo describes one evaluated rewrite candidate.
type CandidateInfo struct {
	Strategy Strategy
	// Pushes is the number of dimension predicates pushed before
	// cleansing (the m+1 / n+1 enumeration of §5.2–5.3).
	Pushes  int
	EstCost float64
	Chosen  bool
}

// RewriteSQL parses a query, rewrites it under the named rules (all rules
// ON the relevant table when names is empty), and returns the chosen
// statement.
func (rw *Rewriter) RewriteSQL(query string, ruleNames []string, strat Strategy) (*Result, error) {
	parseStart := time.Now()
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	parse := time.Since(parseStart)
	res, err := rw.RewriteStmt(stmt, ruleNames, strat, nil)
	if err != nil {
		return nil, err
	}
	res.Phases.Parse = parse
	return res, nil
}

// RewriteStmt rewrites a parsed statement under the named rules, as
// RewriteSQL. A statement with placeholders is rewritten symbolically
// and costed under bind.Params (see Rewrite); bind is nil without them.
func (rw *Rewriter) RewriteStmt(stmt sqlast.Stmt, ruleNames []string, strat Strategy, bind *plan.Binding) (*Result, error) {
	rules, err := rw.resolveRules(stmt, ruleNames)
	if err != nil {
		return nil, err
	}
	return rw.Rewrite(stmt, rules, strat, bind)
}

// resolveRules picks the rule list: explicitly named, or every registered
// rule whose ON table the query references.
func (rw *Rewriter) resolveRules(stmt sqlast.Stmt, ruleNames []string) ([]*RegisteredRule, error) {
	if len(ruleNames) > 0 {
		var table string
		for _, n := range ruleNames {
			reg, ok := rw.Registry.Rule(n)
			if !ok {
				return nil, fmt.Errorf("core: %w: %q", enginerr.ErrUnknownRule, n)
			}
			table = reg.Rule.On
		}
		return rw.Registry.RulesFor(table, ruleNames...)
	}
	tables := map[string]bool{}
	sqlast.VisitTables(stmt, func(te sqlast.TableExpr) {
		if tn, ok := te.(*sqlast.TableName); ok {
			tables[strings.ToLower(tn.Name)] = true
		}
	})
	var out []*RegisteredRule
	for _, reg := range rw.Registry.All() {
		if tables[reg.Rule.On] {
			out = append(out, reg)
		}
	}
	return out, nil
}

// Rewrite generates the rewritten statement for stmt under the ordered
// rule list. A statement with placeholders is rewritten symbolically — a
// relaxed sequence-key bound is the placeholder shifted by an interval,
// the join-back key-set subquery copies the conjunct that holds it — and
// every candidate is planned with plan.PlanBound under bind, so the
// chosen plan serves any binding whose costs stay within bind's bands. A
// placeholder the rewrite must see as a value fails with ErrConcrete.
// bind is nil for a statement without placeholders.
func (rw *Rewriter) Rewrite(stmt sqlast.Stmt, rules []*RegisteredRule, strat Strategy, bind *plan.Binding) (*Result, error) {
	rewriteStart := time.Now()
	var planTime time.Duration
	if strat == StrategyDirty || len(rules) == 0 {
		planStart := time.Now()
		node, err := rw.Planner.PlanBound(stmt, bind)
		if err != nil {
			return nil, err
		}
		planTime = time.Since(planStart)
		return &Result{
			Stmt: stmt, SQL: sqlast.SQL(stmt), Strategy: StrategyDirty,
			EstCost: node.EstCost(), Plan: node, Bind: bind,
			Phases: Phases{Rewrite: time.Since(rewriteStart) - planTime, Plan: planTime},
		}, nil
	}
	if err := validateRuleSet(rules); err != nil {
		return nil, err
	}
	if err := rw.checkKeysUnmodified(rules); err != nil {
		return nil, err
	}

	type candidate struct {
		strat  Strategy
		pushes int
	}
	var cands []candidate
	switch strat {
	case StrategyNaive:
		cands = []candidate{{StrategyNaive, 0}}
	case StrategyExpanded:
		for m := 0; m <= maxDims; m++ {
			cands = append(cands, candidate{StrategyExpanded, m})
		}
	case StrategyJoinBack:
		for m := 0; m <= maxDims; m++ {
			cands = append(cands, candidate{StrategyJoinBack, m})
		}
	default: // Auto
		for m := 0; m <= maxDims; m++ {
			cands = append(cands, candidate{StrategyExpanded, m})
			cands = append(cands, candidate{StrategyJoinBack, m})
		}
		cands = append(cands, candidate{StrategyNaive, 0})
	}

	res := &Result{}
	var best *Result
	seen := map[string]bool{}
	for _, c := range cands {
		out, err := rw.buildCandidateBound(stmt, rules, c.strat, c.pushes, bind)
		if err != nil {
			if err == errInfeasible || err == errNoMorePushes {
				continue
			}
			return nil, err
		}
		text := sqlast.SQL(out)
		if seen[text] {
			continue
		}
		seen[text] = true
		planStart := time.Now()
		node, err := rw.Planner.PlanBound(out, bind)
		if err != nil {
			return nil, fmt.Errorf("core: planning %s candidate: %w", c.strat, err)
		}
		planTime += time.Since(planStart)
		info := CandidateInfo{Strategy: c.strat, Pushes: c.pushes, EstCost: node.EstCost()}
		res.Candidates = append(res.Candidates, info)
		if best == nil || node.EstCost() < best.EstCost ||
			// Prefer non-naive at equal cost: tighter data touched.
			(node.EstCost() == best.EstCost && best.Strategy == StrategyNaive && c.strat != StrategyNaive) {
			best = &Result{Stmt: out, SQL: text, Strategy: c.strat, EstCost: node.EstCost(), Plan: node, Bind: bind}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible %s rewrite for this query", strat)
	}
	best.Candidates = res.Candidates
	for i := range best.Candidates {
		ci := &best.Candidates[i]
		ci.Chosen = ci.Strategy == best.Strategy && ci.EstCost == best.EstCost
	}
	best.Phases = Phases{Rewrite: time.Since(rewriteStart) - planTime, Plan: planTime}
	return best, nil
}

// bindParams is the planning binding's values, nil without one.
func bindParams(bind *plan.Binding) []types.Value {
	if bind == nil {
		return nil
	}
	return bind.Params
}

// maxDims bounds the candidate enumeration (m+1 statements in §5.2).
const maxDims = 4

var (
	errInfeasible   = fmt.Errorf("core: expanded rewrite infeasible")
	errNoMorePushes = fmt.Errorf("core: no more dimension pushes available")
)

// checkKeysUnmodified rejects rule sets that MODIFY the cluster or
// sequence key: both rewrites reason about sequences via those keys, so
// modifying them would invalidate the transitivity analysis. (The paper
// implicitly assumes this; we enforce it.)
func (rw *Rewriter) checkKeysUnmodified(rules []*RegisteredRule) error {
	mod := modifiedColumns(rules)
	ckey, skey := rules[0].Rule.ClusterBy, rules[0].Rule.SequenceBy
	if mod[ckey] || mod[skey] {
		return fmt.Errorf("core: rules modify the cluster/sequence key (%s/%s); only naive cleansing would be sound, refusing rewrite", ckey, skey)
	}
	return nil
}

// buildCandidate clones the user statement and rewrites every reference
// to the rules' ON table according to the strategy.
func (rw *Rewriter) buildCandidate(stmt sqlast.Stmt, rules []*RegisteredRule, strat Strategy, pushes int) (sqlast.Stmt, error) {
	return rw.buildCandidateBound(stmt, rules, strat, pushes, nil)
}

// buildCandidateBound is buildCandidate for a statement with
// placeholders, read under the planning binding.
func (rw *Rewriter) buildCandidateBound(stmt sqlast.Stmt, rules []*RegisteredRule, strat Strategy, pushes int, bind *plan.Binding) (sqlast.Stmt, error) {
	out := sqlast.CloneStmt(stmt)
	table := rules[0].Rule.On
	targets, err := rw.analyzeQuery(out, table)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: query does not reference table %q", table)
	}
	for _, t := range targets {
		if err := rw.rewriteTarget(t, rules, strat, pushes, bind); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rewriteTarget rewrites one reference to R inside its SELECT.
func (rw *Rewriter) rewriteTarget(t *targetRef, rules []*RegisteredRule, strat Strategy, pushes int, bind *plan.Binding) error {
	ckey := rules[0].Rule.ClusterBy
	skey := rules[0].Rule.SequenceBy
	mod := modifiedColumns(rules)

	queryIv, err := skeyInterval(t.s, t.binding, skey, bindParams(bind))
	if err != nil {
		return err
	}
	analyses := make([]*contextAnalysis, len(rules))
	ecIv := queryIv
	expandedOK := true
	for i, r := range rules {
		analyses[i] = analyzeRule(r, queryIv)
		if !analyses[i].Feasible {
			expandedOK = false
		}
		ecIv = ecIv.union(analyses[i].Interval)
	}

	// Dimension pushdown candidates, most selective first. For the
	// expanded rewrite only cluster-key joins propagate to context
	// references (the context shares the target's ckey; other equalities
	// are not position-preserving). Join-back may semi-join any dim.
	dims := append([]dimJoin{}, t.dims...)
	sort.Slice(dims, func(i, j int) bool {
		return rw.dimSelectivity(dims[i], bind) < rw.dimSelectivity(dims[j], bind)
	})

	var baseFilter sqlast.Expr
	var seqIn sqlast.Expr
	switch strat {
	case StrategyNaive:
		// No reduction at all.
	case StrategyExpanded:
		if !expandedOK {
			return errInfeasible
		}
		baseFilter = intervalExpr(ecIv, skey)
		var derivable []dimJoin
		for _, d := range dims {
			if d.rCol == ckey {
				derivable = append(derivable, d)
			}
		}
		if pushes > len(derivable) {
			return errNoMorePushes
		}
		for _, d := range derivable[:pushes] {
			baseFilter = sqlast.And(baseFilter, dimInExpr(d))
		}
		if baseFilter == nil && pushes == 0 {
			// Unbounded ec: the expanded rewrite degenerates to naive.
			// Still a valid candidate; leave baseFilter nil.
			baseFilter = nil
		}
	case StrategyJoinBack:
		if pushes > len(dims) {
			return errNoMorePushes
		}
		// Sequence restriction: distinct cluster keys of rows the query
		// cares about, optionally semi-joined with the most selective
		// dims. Conjuncts over columns a rule modifies are dropped from
		// the sequence probe — cleansing could make rows satisfy them.
		var seqConjs []sqlast.Expr
		for _, c := range t.s {
			if !referencesColumns(c, mod) {
				seqConjs = append(seqConjs, stripQualifier(c))
			}
		}
		seqFrom := rw.chainBaseName(rules)
		seqSel := &sqlast.SelectStmt{
			Distinct: true,
			Items:    []sqlast.SelectItem{{Expr: sqlast.Col("", ckey)}},
			From:     []sqlast.TableExpr{&sqlast.TableName{Name: seqFrom}},
			Where:    sqlast.And(seqConjs...),
		}
		for _, d := range dims[:pushes] {
			seqSel.Where = sqlast.And(seqSel.Where, dimInExpr(d))
		}
		seqIn = &sqlast.In{E: sqlast.Col("", ckey), Sub: seqSel}
		// Improved join-back: also restrict rows inside each sequence by
		// the expanded condition when one exists.
		if expandedOK {
			baseFilter = intervalExpr(ecIv, skey)
		}
	}

	chainStmt, _, err := rw.buildChain(rules, baseFilter, seqIn)
	if err != nil {
		return err
	}
	*t.slot = &sqlast.SubqueryTable{Query: chainStmt, Alias: t.binding}

	// Reassemble WHERE: drop s-conjuncts that the pushed filter already
	// enforces exactly (the s' simplification of Fig. 4, line 12) — only
	// sound when the pushed interval equals the query interval and no rule
	// modifies the sequence key (guaranteed by checkKeysUnmodified).
	var kept []sqlast.Expr
	dropSkey := strat == StrategyExpanded && expandedOK && ecIv.equal(queryIv)
	for _, c := range t.s {
		if dropSkey && isSkeyConjunct(c, t.binding, skey) {
			continue
		}
		kept = append(kept, c)
	}
	kept = append(kept, t.rest...)
	t.sel.Where = sqlast.And(kept...)
	return nil
}

func isSkeyConjunct(e sqlast.Expr, binding, skey string) bool {
	bin, ok := e.(*sqlast.Bin)
	if !ok || !bin.Op.IsComparison() {
		return false
	}
	cr, _, _ := matchColOperand(bin)
	if cr == nil {
		return false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, binding) {
		return false
	}
	return strings.EqualFold(cr.Name, skey)
}

// dimInExpr renders "rCol IN (SELECT dimCol FROM dim WHERE local)".
func dimInExpr(d dimJoin) sqlast.Expr {
	sel := &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col("", d.dimCol)}},
		From:  []sqlast.TableExpr{&sqlast.TableName{Name: d.dim}},
	}
	var local []sqlast.Expr
	for _, c := range d.local {
		local = append(local, stripQualifier(c))
	}
	sel.Where = sqlast.And(local...)
	return &sqlast.In{E: sqlast.Col("", d.rCol), Sub: sel}
}

// dimSelectivity estimates a dimension's local-predicate selectivity via
// the planner (estimated rows out / table size), the §5.2 ordering
// heuristic.
func (rw *Rewriter) dimSelectivity(d dimJoin, bind *plan.Binding) float64 {
	t, ok := rw.DB.Table(d.dim)
	if !ok || t.RowCount() == 0 {
		return 1
	}
	node, err := rw.Planner.PlanBound(&sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col("", d.dimCol)}},
		From:  []sqlast.TableExpr{&sqlast.TableName{Name: d.dim}},
		Where: sqlast.And(stripQualifiers(d.local)...),
	}, bind)
	if err != nil {
		return 1
	}
	return node.EstRows() / float64(t.RowCount())
}

func stripQualifiers(es []sqlast.Expr) []sqlast.Expr {
	out := make([]sqlast.Expr, len(es))
	for i, e := range es {
		out[i] = stripQualifier(e)
	}
	return out
}

// chainBaseName is the relation the join-back sequence probe scans: the
// rules' shared input view when one exists (its output covers the rows
// that can reach the query), otherwise the ON table itself.
func (rw *Rewriter) chainBaseName(rules []*RegisteredRule) string {
	for _, r := range rules {
		if r.Rule.From != r.Rule.On {
			return r.Rule.From
		}
	}
	return rules[0].Rule.On
}

// buildChain composes the Φ_Cn(...Φ_C1(input)) cleansing pipeline as
// nested derived tables. baseFilter (the expanded condition) and seqIn
// (the join-back sequence restriction) are applied to the first stage's
// input and to the fresh branches of any later view inputs (Example 5's
// pallet union), never to already-cleansed rows' key columns — rules that
// modify the keys are rejected before this point.
func (rw *Rewriter) buildChain(rules []*RegisteredRule, baseFilter, seqIn sqlast.Expr) (sqlast.Stmt, []string, error) {
	onTable := rules[0].Rule.On
	filter := sqlast.And(cloneOrNil(baseFilter), cloneOrNil(seqIn))

	wrap := func(te sqlast.TableExpr, idx int) sqlast.TableExpr {
		if filter == nil {
			return te
		}
		return &sqlast.SubqueryTable{
			Query: &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{Star: true}},
				From:  []sqlast.TableExpr{te},
				Where: sqlast.CloneExpr(filter),
			},
			Alias: fmt.Sprintf("__in_%d", idx),
		}
	}

	var cur sqlast.TableExpr
	var cols []string
	curInput := onTable // name of the relation cur rows flow from
	for i, r := range rules {
		var input sqlast.TableExpr
		if r.Rule.From == onTable || (cur != nil && r.Rule.From == curInput) {
			// Pipelining: consecutive stages over the same input feed each
			// other directly (the paper's r1 → r2 pipeline), preserving
			// MODIFY-created columns.
			if cur == nil {
				input = wrap(&sqlast.TableName{Name: onTable}, i)
				c, err := rw.columnsOf(onTable)
				if err != nil {
					return nil, nil, err
				}
				cols = c
			} else {
				input = cur
			}
		} else {
			view, ok := rw.DB.View(r.Rule.From)
			if !ok {
				if _, isTable := rw.DB.Table(r.Rule.From); !isTable {
					return nil, nil, fmt.Errorf("core: rule %s: unknown input %q", r.Rule.Name, r.Rule.From)
				}
				// Plain table input different from ON: treat like a view
				// reference with no substitution.
				view = &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Star: true}},
					From: []sqlast.TableExpr{&sqlast.TableName{Name: r.Rule.From}}}
			}
			body := sqlast.CloneStmt(view)
			if cur != nil {
				substituteTable(body, onTable, cur)
			}
			input = wrap(&sqlast.SubqueryTable{Query: body, Alias: "__v_" + r.Rule.Name}, i)
			c, err := rw.Registry.InputColumns(r.Rule)
			if err != nil {
				return nil, nil, err
			}
			cols = c
			curInput = r.Rule.From
		}
		stageStmt, outCols, err := r.Template.Build(input, cols)
		if err != nil {
			return nil, nil, err
		}
		cur = &sqlast.SubqueryTable{Query: stageStmt, Alias: "__d_" + r.Rule.Name}
		cols = outCols
	}
	sub := cur.(*sqlast.SubqueryTable)
	return sub.Query, cols, nil
}

func cloneOrNil(e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	return sqlast.CloneExpr(e)
}

// substituteTable replaces every FROM reference to the named table inside
// stmt with the given table expression (cloned per use), preserving the
// original binding name.
func substituteTable(stmt sqlast.Stmt, table string, repl sqlast.TableExpr) {
	switch s := stmt.(type) {
	case nil:
	case *sqlast.SelectStmt:
		for _, cte := range s.With {
			if !strings.EqualFold(cte.Name, table) {
				substituteTable(cte.Query, table, repl)
			}
		}
		for i := range s.From {
			s.From[i] = substituteInTableExpr(s.From[i], table, repl)
		}
	case *sqlast.SetOpStmt:
		substituteTable(s.L, table, repl)
		substituteTable(s.R, table, repl)
	}
}

func substituteInTableExpr(te sqlast.TableExpr, table string, repl sqlast.TableExpr) sqlast.TableExpr {
	switch t := te.(type) {
	case *sqlast.TableName:
		if strings.EqualFold(t.Name, table) {
			cloned := sqlast.CloneTableExpr(repl)
			if sub, ok := cloned.(*sqlast.SubqueryTable); ok {
				sub.Alias = t.Binding()
			}
			return cloned
		}
		return te
	case *sqlast.SubqueryTable:
		substituteTable(t.Query, table, repl)
		return te
	case *sqlast.JoinExpr:
		t.Left = substituteInTableExpr(t.Left, table, repl)
		t.Right = substituteInTableExpr(t.Right, table, repl)
		return te
	}
	return te
}

// ExpandedConditions reports, per rule, the derived expanded condition for
// a query in Table-1 style. Infeasible rules map to "{}".
func (rw *Rewriter) ExpandedConditions(query string, ruleNames []string) (map[string]string, error) {
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	rules, err := rw.resolveRules(stmt, ruleNames)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("core: no rules apply to this query")
	}
	targets, err := rw.analyzeQuery(sqlast.CloneStmt(stmt), rules[0].Rule.On)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: query does not reference table %q", rules[0].Rule.On)
	}
	t := targets[0]
	skey := rules[0].Rule.SequenceBy
	queryIv, err := skeyInterval(t.s, t.binding, skey, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, r := range rules {
		out[r.Rule.Name] = analyzeRule(r, queryIv).describe(skey)
	}
	return out, nil
}

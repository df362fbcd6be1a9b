package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/storage"
	"repro/internal/types"
)

// outItem is one output column of a select list after star expansion:
// either a passthrough of input column idx or a computed expression.
type outItem struct {
	idx  int // >= 0 for passthrough
	expr sqlast.Expr
	name string
	qual string
}

// finishSelect layers grouping, windows, projection, DISTINCT, ORDER BY
// and LIMIT over the planned FROM/WHERE subtree.
func (b *builder) finishSelect(sel *sqlast.SelectStmt, pl *planned, scope *cteScope) (*planned, error) {
	// A bare "SELECT * FROM ..." needs no projection at all; the rewrite
	// engine generates such shells around cleansing stages constantly and
	// copying wide intermediate results would dominate their cost.
	bareStar := len(sel.Items) == 1 && sel.Items[0].Star && sel.Items[0].StarTable == "" &&
		len(sel.GroupBy) == 0 && sel.Having == nil
	var err error

	items, err := expandItems(sel.Items, pl)
	if err != nil {
		return nil, err
	}
	having := foldConsts(sel.Having)
	orderBy := make([]sqlast.OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderBy[i] = sqlast.OrderItem{Expr: foldConsts(o.Expr), Desc: o.Desc}
	}

	grouped := len(sel.GroupBy) > 0 || having != nil || itemsHaveAgg(items)
	if grouped {
		pl, items, having, orderBy, err = b.planGrouping(sel, pl, items, having, orderBy, scope)
		if err != nil {
			return nil, err
		}
		if having != nil {
			pl, err = b.filterNode(pl, having, scope)
			if err != nil {
				return nil, err
			}
		}
	} else {
		pl, items, orderBy, err = b.planWindows(pl, items, orderBy)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY runs before the projection so it may reference any input
	// column, not just projected ones ("SELECT epc ... ORDER BY rtime").
	// Select-list aliases are substituted by their definitions first.
	// Projection and DISTINCT (first-occurrence) both preserve row order,
	// so the final output order is unchanged.
	if len(orderBy) > 0 {
		aliasRepl := map[string]sqlast.Expr{}
		for _, it := range items {
			if it.idx < 0 && it.name != "" {
				if _, exists := aliasRepl[it.name]; !exists {
					aliasRepl[it.name] = it.expr
				}
			}
		}
		resolved := make([]sqlast.OrderItem, len(orderBy))
		for i, o := range orderBy {
			e := o.Expr
			if cr, ok := e.(*sqlast.ColRef); ok && cr.Table == "" {
				if repl, hit := aliasRepl[strings.ToLower(cr.Name)]; hit {
					// Prefer the input column itself when the name also
					// exists in the input (SQL resolves ORDER BY names
					// against the select list first only for pure aliases).
					if _, err := pl.scope.Resolve("", cr.Name); err != nil {
						e = sqlast.CloneExpr(repl)
					}
				}
			}
			resolved[i] = sqlast.OrderItem{Expr: e, Desc: o.Desc}
		}
		pl, err = b.planOrderBy(pl, resolved)
		if err != nil {
			return nil, err
		}
	}
	if !bareStar {
		pl, err = b.planProject(pl, items)
		if err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		n := exec.NewDistinct(pl.node)
		rows := b.distinctEstimate(pl)
		exec.SetEstimates(n, rows, pl.node.EstCost()+evalCPU(pl.node.EstRows(), costGroupRow))
		pl = pl.over(n)
	}
	if sel.Limit != nil || sel.Offset != nil {
		limit := int64(-1)
		if sel.Limit != nil {
			limit = *sel.Limit
		}
		n := exec.NewLimitNode(pl.node, limit)
		if sel.Offset != nil {
			n.Offset = *sel.Offset
		}
		rows := pl.node.EstRows() - float64(n.Offset)
		if rows < 0 {
			rows = 0
		}
		if limit >= 0 {
			rows = math.Min(float64(limit), rows)
		}
		exec.SetEstimates(n, rows, pl.node.EstCost())
		pl = pl.over(n)
	}
	return pl, nil
}

func expandItems(items []sqlast.SelectItem, pl *planned) ([]outItem, error) {
	var out []outItem
	sch := pl.scope
	for i, it := range items {
		switch {
		case it.Star:
			want := strings.ToLower(it.StarTable)
			matched := false
			for idx, c := range sch.Columns {
				if want != "" && c.Table != want {
					continue
				}
				matched = true
				out = append(out, outItem{idx: idx, name: c.Name, qual: c.Table})
			}
			if want != "" && !matched {
				return nil, fmt.Errorf("plan: %s.* matches no input columns", it.StarTable)
			}
		default:
			name := strings.ToLower(it.Alias)
			qual := ""
			if name == "" {
				if cr, ok := it.Expr.(*sqlast.ColRef); ok {
					name = strings.ToLower(cr.Name)
					qual = strings.ToLower(cr.Table)
				} else {
					name = fmt.Sprintf("col_%d", i+1)
				}
			}
			out = append(out, outItem{idx: -1, expr: foldConsts(it.Expr), name: name, qual: qual})
		}
	}
	return out, nil
}

// visitSkippingWindows walks an expression but does not descend into
// window expressions (whose arguments are not aggregate contexts).
func visitSkippingWindows(e sqlast.Expr, f func(sqlast.Expr)) {
	if e == nil {
		return
	}
	if _, isWin := e.(*sqlast.WindowExpr); isWin {
		f(e)
		return
	}
	f(e)
	switch e := e.(type) {
	case *sqlast.Bin:
		visitSkippingWindows(e.L, f)
		visitSkippingWindows(e.R, f)
	case *sqlast.Un:
		visitSkippingWindows(e.E, f)
	case *sqlast.IsNull:
		visitSkippingWindows(e.E, f)
	case *sqlast.Case:
		for _, w := range e.Whens {
			visitSkippingWindows(w.Cond, f)
			visitSkippingWindows(w.Then, f)
		}
		visitSkippingWindows(e.Else, f)
	case *sqlast.In:
		visitSkippingWindows(e.E, f)
		for _, x := range e.List {
			visitSkippingWindows(x, f)
		}
	case *sqlast.FuncCall:
		for _, a := range e.Args {
			visitSkippingWindows(a, f)
		}
	}
}

func itemsHaveAgg(items []outItem) bool {
	for _, it := range items {
		if it.idx >= 0 {
			continue
		}
		found := false
		visitSkippingWindows(it.expr, func(x sqlast.Expr) {
			if fc, ok := x.(*sqlast.FuncCall); ok && isAggName(fc.Name) {
				found = true
			}
		})
		if found {
			return true
		}
	}
	return false
}

// planGrouping builds the hash-aggregation stage and rewrites the select
// items, HAVING, and ORDER BY to reference its output columns.
func (b *builder) planGrouping(sel *sqlast.SelectStmt, pl *planned, items []outItem, having sqlast.Expr, orderBy []sqlast.OrderItem, scope *cteScope) (*planned, []outItem, sqlast.Expr, []sqlast.OrderItem, error) {
	inSchema := pl.scope

	// Collect distinct aggregate calls across items, HAVING, ORDER BY.
	var aggCalls []*sqlast.FuncCall
	seenAgg := map[string]bool{}
	collect := func(e sqlast.Expr) {
		visitSkippingWindows(e, func(x sqlast.Expr) {
			fc, ok := x.(*sqlast.FuncCall)
			if !ok || !isAggName(fc.Name) {
				return
			}
			canon := sqlast.ExprSQL(fc)
			if !seenAgg[canon] {
				seenAgg[canon] = true
				aggCalls = append(aggCalls, fc)
			}
		})
	}
	for _, it := range items {
		if it.idx < 0 {
			collect(it.expr)
		} else {
			return nil, nil, nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY")
		}
	}
	collect(having)
	for _, o := range orderBy {
		collect(o.Expr)
	}

	keyExprs := make([]sqlast.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		keyExprs[i] = foldConsts(g)
	}

	outSchema := &schema.Schema{}
	outStats := []*storage.ColStats{}
	keyFns := make([]*eval.Compiled, len(keyExprs))
	repl := map[string]sqlast.Expr{}
	rowsEst := 1.0
	for i, k := range keyExprs {
		f, err := eval.Compile(k, &eval.Env{Schema: inSchema})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		keyFns[i] = f
		col := schema.Column{Name: fmt.Sprintf("__key_%d", i), Kind: inferKind(k, inSchema)}
		var st *storage.ColStats
		if cr, ok := k.(*sqlast.ColRef); ok {
			col.Table, col.Name = strings.ToLower(cr.Table), strings.ToLower(cr.Name)
			st = b.statsFor(cr, pl)
		}
		outSchema.Columns = append(outSchema.Columns, col)
		outStats = append(outStats, st)
		repl[sqlast.ExprSQL(k)] = &sqlast.ColRef{Table: col.Table, Name: col.Name}
		if st != nil {
			rowsEst *= st.DistinctAfter(pl.node.EstRows())
		} else {
			rowsEst *= math.Sqrt(pl.node.EstRows() + 1)
		}
	}
	if rowsEst > pl.node.EstRows() {
		rowsEst = pl.node.EstRows()
	}
	if len(keyExprs) == 0 {
		rowsEst = 1
	}

	aggs := make([]exec.AggSpec, len(aggCalls))
	for i, fc := range aggCalls {
		spec := exec.AggSpec{Func: strings.ToLower(fc.Name), Distinct: fc.Distinct, OutName: fmt.Sprintf("__agg_%d", i)}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, nil, nil, fmt.Errorf("plan: aggregate %s takes one argument", fc.Name)
			}
			f, err := eval.Compile(fc.Args[0], &eval.Env{Schema: inSchema})
			if err != nil {
				return nil, nil, nil, nil, err
			}
			spec.Arg = f
		}
		aggs[i] = spec
		kind := types.KindFloat
		switch spec.Func {
		case "count":
			kind = types.KindInt
		case "min", "max", "sum", "avg":
			if !fc.Star {
				kind = inferKind(fc.Args[0], inSchema)
			}
		}
		outSchema.Columns = append(outSchema.Columns, schema.Column{Name: spec.OutName, Kind: kind})
		outStats = append(outStats, nil)
		repl[sqlast.ExprSQL(fc)] = &sqlast.ColRef{Name: spec.OutName}
	}

	n := exec.NewGroupNode(pl.node, outSchema, keyFns, aggs)
	exec.SetEstimates(n, rowsEst, pl.node.EstCost()+evalCPU(pl.node.EstRows(), costGroupRow))
	out := &planned{node: n, scope: outSchema, stats: outStats}

	// Rewrite consumers to reference the aggregation output.
	newItems := make([]outItem, len(items))
	for i, it := range items {
		newItems[i] = outItem{idx: -1, expr: replaceByCanon(it.expr, repl), name: it.name, qual: it.qual}
	}
	newHaving := replaceByCanon(having, repl)
	newOrder := make([]sqlast.OrderItem, len(orderBy))
	for i, o := range orderBy {
		newOrder[i] = sqlast.OrderItem{Expr: replaceByCanon(o.Expr, repl), Desc: o.Desc}
	}
	return out, newItems, newHaving, newOrder, nil
}

// planWindows extracts window expressions from the select items, groups
// them by (PARTITION BY, ORDER BY) signature, and adds one Window operator
// per signature — preceded by a sort only when the input's ordering does
// not already satisfy the signature.
func (b *builder) planWindows(pl *planned, items []outItem, orderBy []sqlast.OrderItem) (*planned, []outItem, []sqlast.OrderItem, error) {
	type winGroup struct {
		sig   string
		wins  []*sqlast.WindowExpr
		canon []string
	}
	var groups []*winGroup
	bySig := map[string]*winGroup{}
	seen := map[string]bool{}
	for _, it := range items {
		if it.idx >= 0 {
			continue
		}
		sqlast.VisitExprs(it.expr, func(x sqlast.Expr) {
			w, ok := x.(*sqlast.WindowExpr)
			if !ok {
				return
			}
			canon := sqlast.ExprSQL(w)
			if seen[canon] {
				return
			}
			seen[canon] = true
			sig := windowSignature(w)
			g := bySig[sig]
			if g == nil {
				g = &winGroup{sig: sig}
				bySig[sig] = g
				groups = append(groups, g)
			}
			g.wins = append(g.wins, w)
			g.canon = append(g.canon, canon)
		})
	}
	if len(groups) == 0 {
		return pl, items, orderBy, nil
	}

	repl := map[string]sqlast.Expr{}
	winIdx := 0
	for _, g := range groups {
		var err error
		pl, err = b.ensureWindowOrder(pl, g.wins[0])
		if err != nil {
			return nil, nil, nil, err
		}
		inSchema := pl.scope
		partFns, err := compileList(g.wins[0].Partition, inSchema)
		if err != nil {
			return nil, nil, nil, err
		}
		orderFns := make([]*eval.Compiled, len(g.wins[0].Order))
		orderDesc := make([]bool, len(g.wins[0].Order))
		for i, o := range g.wins[0].Order {
			f, err := eval.Compile(o.Expr, &eval.Env{Schema: inSchema})
			if err != nil {
				return nil, nil, nil, err
			}
			orderFns[i] = f
			orderDesc[i] = o.Desc
		}
		outSchema := inSchema.Clone()
		outStats := append([]*storage.ColStats{}, pl.stats...)
		aggs := make([]exec.WindowAgg, len(g.wins))
		for i, w := range g.wins {
			agg, kind, err := b.buildWindowAgg(w, inSchema)
			if err != nil {
				return nil, nil, nil, err
			}
			agg.OutName = fmt.Sprintf("__win_%d", winIdx)
			aggs[i] = agg
			outSchema.Columns = append(outSchema.Columns, schema.Column{Name: agg.OutName, Kind: kind})
			outStats = append(outStats, nil)
			repl[g.canon[i]] = &sqlast.ColRef{Name: agg.OutName}
			winIdx++
		}
		n := exec.NewWindowNode(pl.node, outSchema, partFns, orderFns, orderDesc, aggs)
		cost := pl.node.EstCost() + evalCPU(pl.node.EstRows(), float64(len(aggs))*costWindowAgg)
		exec.SetEstimates(n, pl.node.EstRows(), cost)
		exec.SetOrdering(n, pl.node.Ordering())
		pl = &planned{node: n, scope: outSchema, stats: outStats}
	}

	newItems := make([]outItem, len(items))
	for i, it := range items {
		if it.idx >= 0 {
			newItems[i] = it
			continue
		}
		newItems[i] = outItem{idx: -1, expr: replaceByCanon(it.expr, repl), name: it.name, qual: it.qual}
	}
	newOrder := make([]sqlast.OrderItem, len(orderBy))
	for i, o := range orderBy {
		newOrder[i] = sqlast.OrderItem{Expr: replaceByCanon(o.Expr, repl), Desc: o.Desc}
	}
	return pl, newItems, newOrder, nil
}

func windowSignature(w *sqlast.WindowExpr) string {
	var b strings.Builder
	for _, p := range w.Partition {
		b.WriteString(sqlast.ExprSQL(p))
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, o := range w.Order {
		b.WriteString(sqlast.ExprSQL(o.Expr))
		if o.Desc {
			b.WriteString(" desc")
		}
		b.WriteByte(';')
	}
	return b.String()
}

// ensureWindowOrder inserts a sort when the input ordering does not
// already satisfy (partition keys, order keys). Shared sort orders between
// cleansing rules and application OLAP functions are detected here.
func (b *builder) ensureWindowOrder(pl *planned, w *sqlast.WindowExpr) (*planned, error) {
	inSchema := pl.scope
	var want []exec.OrderCol
	known := true
	resolveCol := func(e sqlast.Expr, desc bool) {
		cr, ok := e.(*sqlast.ColRef)
		if !ok {
			known = false
			return
		}
		idx, err := inSchema.Resolve(cr.Table, cr.Name)
		if err != nil {
			known = false
			return
		}
		want = append(want, exec.OrderCol{Col: idx, Desc: desc})
	}
	for _, p := range w.Partition {
		resolveCol(p, false)
	}
	for _, o := range w.Order {
		resolveCol(o.Expr, o.Desc)
	}
	if known && orderingSatisfies(pl.node.Ordering(), want) {
		return pl, nil
	}
	keys := make([]*eval.Compiled, 0, len(w.Partition)+len(w.Order))
	desc := make([]bool, 0, cap(keys))
	for _, p := range w.Partition {
		f, err := eval.Compile(p, &eval.Env{Schema: inSchema})
		if err != nil {
			return nil, err
		}
		keys = append(keys, f)
		desc = append(desc, false)
	}
	for _, o := range w.Order {
		f, err := eval.Compile(o.Expr, &eval.Env{Schema: inSchema})
		if err != nil {
			return nil, err
		}
		keys = append(keys, f)
		desc = append(desc, o.Desc)
	}
	n := exec.NewSortNode(pl.node, keys, desc)
	rows := pl.node.EstRows()
	exec.SetEstimates(n, rows, pl.node.EstCost()+rows*math.Log2(rows+2)*costSortFactor)
	if known {
		exec.SetOrdering(n, want)
	}
	return pl.over(n), nil
}

func orderingSatisfies(have, want []exec.OrderCol) bool {
	if len(want) == 0 {
		return true
	}
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i] != w {
			return false
		}
	}
	return true
}

// buildWindowAgg translates one window expression into an executable
// WindowAgg with a constant-resolved frame.
func (b *builder) buildWindowAgg(w *sqlast.WindowExpr, inSchema *schema.Schema) (exec.WindowAgg, types.Kind, error) {
	fn := strings.ToLower(w.Func)
	agg := exec.WindowAgg{Func: fn}
	var kind types.Kind
	switch fn {
	case "row_number":
		kind = types.KindInt
		if w.Frame != nil {
			return agg, kind, fmt.Errorf("plan: ROW_NUMBER does not take a frame")
		}
		return agg, kind, nil
	case "count":
		kind = types.KindInt
	case "sum", "avg", "min", "max":
		if w.Arg == nil {
			return agg, kind, fmt.Errorf("plan: window %s needs an argument", strings.ToUpper(fn))
		}
		kind = inferKind(w.Arg, inSchema)
		if fn == "avg" && kind != types.KindInterval {
			kind = types.KindFloat
		}
	default:
		return agg, kind, fmt.Errorf("plan: unsupported window function %s", strings.ToUpper(fn))
	}
	if w.Arg != nil {
		f, err := eval.Compile(w.Arg, &eval.Env{Schema: inSchema})
		if err != nil {
			return agg, kind, err
		}
		agg.Arg = f
	} else if !w.Star && fn != "count" {
		return agg, kind, fmt.Errorf("plan: window %s needs an argument", strings.ToUpper(fn))
	}

	if w.Frame == nil {
		if len(w.Order) > 0 {
			agg.Frame = exec.FrameSpec{Mode: exec.FramePeers}
		} else {
			agg.Frame = exec.FrameSpec{Mode: exec.FramePartition}
		}
		return agg, kind, nil
	}
	spec := exec.FrameSpec{
		StartType: w.Frame.Start.Type,
		EndType:   w.Frame.End.Type,
	}
	if w.Frame.Unit == sqlast.FrameRows {
		spec.Mode = exec.FrameRowsMode
	} else {
		spec.Mode = exec.FrameRangeMode
		if len(w.Order) == 0 {
			return agg, kind, fmt.Errorf("plan: RANGE frame requires ORDER BY")
		}
	}
	var err error
	if spec.StartOff, err = frameOffset(w.Frame.Start, w.Frame.Unit); err != nil {
		return agg, kind, err
	}
	if spec.EndOff, err = frameOffset(w.Frame.End, w.Frame.Unit); err != nil {
		return agg, kind, err
	}
	agg.Frame = spec
	return agg, kind, nil
}

func frameOffset(fb sqlast.FrameBound, unit sqlast.FrameUnit) (int64, error) {
	if fb.Type != sqlast.BoundPreceding && fb.Type != sqlast.BoundFollowing {
		return 0, nil
	}
	c, ok := foldConsts(fb.Offset).(*sqlast.Const)
	if !ok {
		return 0, fmt.Errorf("plan: window frame offsets must be constants")
	}
	switch c.V.Kind() {
	case types.KindInt:
		if c.V.Int() < 0 {
			return 0, fmt.Errorf("plan: negative frame offset")
		}
		return c.V.Int(), nil
	case types.KindInterval:
		if unit != sqlast.FrameRange {
			return 0, fmt.Errorf("plan: interval offsets require a RANGE frame")
		}
		if c.V.IntervalUsec() < 0 {
			return 0, fmt.Errorf("plan: negative frame offset")
		}
		return c.V.IntervalUsec(), nil
	}
	return 0, fmt.Errorf("plan: unsupported frame offset kind %s", c.V.Kind())
}

func compileList(exprs []sqlast.Expr, s *schema.Schema) ([]*eval.Compiled, error) {
	out := make([]*eval.Compiled, len(exprs))
	for i, e := range exprs {
		f, err := eval.Compile(e, &eval.Env{Schema: s})
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// planProject emits the final column computation.
func (b *builder) planProject(pl *planned, items []outItem) (*planned, error) {
	inSchema := pl.scope
	outSchema := &schema.Schema{}
	outStats := make([]*storage.ColStats, 0, len(items))
	exprs := make([]*eval.Compiled, len(items))
	inToOut := map[int]int{}
	for i, it := range items {
		var kind types.Kind
		var st *storage.ColStats
		if it.idx >= 0 {
			idx := it.idx
			exprs[i] = eval.Column(idx)
			kind = inSchema.Columns[idx].Kind
			if idx < len(pl.stats) {
				st = pl.stats[idx]
			}
			if _, dup := inToOut[idx]; !dup {
				inToOut[idx] = i
			}
		} else {
			f, err := eval.Compile(it.expr, &eval.Env{Schema: inSchema})
			if err != nil {
				return nil, err
			}
			exprs[i] = f
			kind = inferKind(it.expr, inSchema)
			if cr, ok := it.expr.(*sqlast.ColRef); ok {
				if idx, err := inSchema.Resolve(cr.Table, cr.Name); err == nil {
					if idx < len(pl.stats) {
						st = pl.stats[idx]
					}
					if _, dup := inToOut[idx]; !dup {
						inToOut[idx] = i
					}
				}
			}
		}
		outSchema.Columns = append(outSchema.Columns, schema.Column{Table: it.qual, Name: it.name, Kind: kind})
		outStats = append(outStats, st)
	}
	n := exec.NewProjectNode(pl.node, outSchema, exprs)
	exec.SetEstimates(n, pl.node.EstRows(), pl.node.EstCost()+evalCPU(pl.node.EstRows(), float64(len(items))*costProjectRow))
	// Ordering survives projection for the prefix of keys that pass through.
	var ord []exec.OrderCol
	for _, oc := range pl.node.Ordering() {
		outIdx, ok := inToOut[oc.Col]
		if !ok {
			break
		}
		ord = append(ord, exec.OrderCol{Col: outIdx, Desc: oc.Desc})
	}
	exec.SetOrdering(n, ord)
	return &planned{node: n, scope: outSchema, stats: outStats}, nil
}

func (b *builder) distinctEstimate(pl *planned) float64 {
	if pl.scope.Len() == 1 && len(pl.stats) == 1 && pl.stats[0] != nil {
		return pl.stats[0].DistinctAfter(pl.node.EstRows())
	}
	return pl.node.EstRows() * 0.5
}

func (b *builder) planOrderBy(pl *planned, orderBy []sqlast.OrderItem) (*planned, error) {
	inSchema := pl.scope
	keys := make([]*eval.Compiled, len(orderBy))
	desc := make([]bool, len(orderBy))
	var ord []exec.OrderCol
	known := true
	for i, o := range orderBy {
		f, err := eval.Compile(o.Expr, &eval.Env{Schema: inSchema})
		if err != nil {
			return nil, err
		}
		keys[i] = f
		desc[i] = o.Desc
		if cr, ok := o.Expr.(*sqlast.ColRef); ok && known {
			if idx, err := inSchema.Resolve(cr.Table, cr.Name); err == nil {
				ord = append(ord, exec.OrderCol{Col: idx, Desc: o.Desc})
				continue
			}
		}
		known = false
	}
	n := exec.NewSortNode(pl.node, keys, desc)
	rows := pl.node.EstRows()
	exec.SetEstimates(n, rows, pl.node.EstCost()+rows*math.Log2(rows+2)*costSortFactor)
	if known {
		exec.SetOrdering(n, ord)
	}
	return pl.over(n), nil
}

// inferKind derives a best-effort output kind for schema metadata.
func inferKind(e sqlast.Expr, s *schema.Schema) types.Kind {
	switch e := e.(type) {
	case *sqlast.ColRef:
		if idx, err := s.Resolve(e.Table, e.Name); err == nil {
			return s.Columns[idx].Kind
		}
	case *sqlast.Const:
		return e.V.Kind()
	case *sqlast.Bin:
		if e.Op.IsComparison() || e.Op == sqlast.OpAnd || e.Op == sqlast.OpOr {
			return types.KindBool
		}
		lk, rk := inferKind(e.L, s), inferKind(e.R, s)
		switch {
		case lk == types.KindTime && rk == types.KindTime && e.Op == sqlast.OpSub:
			return types.KindInterval
		case lk == types.KindTime || rk == types.KindTime:
			return types.KindTime
		case lk == types.KindInterval || rk == types.KindInterval:
			return types.KindInterval
		case lk == types.KindFloat || rk == types.KindFloat:
			return types.KindFloat
		default:
			return types.KindInt
		}
	case *sqlast.Un:
		if e.Op == sqlast.OpNot {
			return types.KindBool
		}
		return inferKind(e.E, s)
	case *sqlast.IsNull:
		return types.KindBool
	case *sqlast.In, *sqlast.Exists:
		return types.KindBool
	case *sqlast.Case:
		for _, w := range e.Whens {
			if k := inferKind(w.Then, s); k != types.KindNull {
				return k
			}
		}
		return inferKind(e.Else, s)
	case *sqlast.FuncCall:
		switch strings.ToLower(e.Name) {
		case "count", "length":
			return types.KindInt
		case "avg":
			if len(e.Args) == 1 && inferKind(e.Args[0], s) == types.KindInterval {
				return types.KindInterval
			}
			return types.KindFloat
		case "sum", "min", "max", "abs", "coalesce":
			if len(e.Args) > 0 {
				return inferKind(e.Args[0], s)
			}
		}
	case *sqlast.WindowExpr:
		switch strings.ToLower(e.Func) {
		case "count", "row_number":
			return types.KindInt
		case "avg":
			if e.Arg != nil && inferKind(e.Arg, s) == types.KindInterval {
				return types.KindInterval
			}
			return types.KindFloat
		default:
			if e.Arg != nil {
				return inferKind(e.Arg, s)
			}
		}
	}
	return types.KindNull
}

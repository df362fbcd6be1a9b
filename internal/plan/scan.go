package plan

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/sqlast"
	"repro/internal/storage"
	"repro/internal/types"
)

// Cost model constants, in abstract row-touch units. Only relative
// magnitudes matter: they decide index-vs-sequential scans, join orders,
// and which candidate rewrite the rewriter submits.
const (
	costSeqRow     = 1.0  // sequential scan, per row
	costIndexRow   = 2.5  // index range scan, per matched row (random access)
	costFilterRow  = 0.2  // predicate evaluation, per input row
	costSortFactor = 0.35 // n·log₂(n) multiplier
	costWindowAgg  = 0.6  // per row per scalar aggregate
	costHashRow    = 1.2  // hash build/probe, per row
	costProjectRow = 0.15 // per output row per column (approx)
	costGroupRow   = 1.5  // hash aggregation, per input row
	costUnionRow   = 0.2

	// Vectorized evaluation: each MorselSize-row batch pays one kernel
	// dispatch, and the per-row expression work shrinks because the
	// interpreter overhead (closure calls, per-row dispatch) amortizes
	// over the batch.
	costBatchDispatch = 4.0 // per vector-kernel batch
	costVecDiscount   = 0.6 // fraction of row-at-a-time eval work left
)

// planScan plans a base-table access: an index range scan when a sargable
// predicate makes one attractive, otherwise a sequential scan with the
// subquery-free predicate fused into the scan operator itself — the fused
// scan evaluates it over the columnar segment vectors and uses per-column
// range summaries (zone preds) derived from the sargable conjuncts to
// skip whole segments via their zone maps. Conjuncts containing
// subqueries stay in a filter on top.
func (b *builder) planScan(t *storage.Table, binding string, conjs []sqlast.Expr, scope *cteScope) (*planned, error) {
	stats := make([]*storage.ColStats, t.Schema.Len())
	for i := range stats {
		stats[i] = t.Stats(i)
	}
	total := float64(t.RowCount())

	// Gather sargable bounds per column — every column feeds the zone
	// preds of a fused sequential scan; indexed ones additionally compete
	// for an index range scan. Bounds over placeholders are costed under
	// the planning binding and recorded as bands.
	byCol := sargBounds(conjs, t, binding, b.params())

	// Choose the most selective indexed column.
	var best *colBounds
	for i := range byCol {
		cb := &byCol[i]
		cb.sel = boundsSelectivity(stats[cb.ord], cb.bounds)
		if cb.param {
			b.noteColBand(t, binding, cb, total)
		}
		if !t.HasIndex(cb.ord) {
			continue
		}
		if best == nil || cb.sel < best.sel {
			best = cb
		}
	}

	scan := exec.NewScanNode(t)
	pl := &planned{node: scan, scope: t.Schema.WithQualifier(binding), stats: stats}

	// Split the conjuncts a fused scan could take (no subqueries) from
	// those that need the filter machinery above the scan. Zone preds may
	// only summarize conjuncts that are actually fused: the scan skips a
	// segment on their evidence, so each must be implied by the fused
	// predicate.
	var fuse, residual []sqlast.Expr
	for _, c := range conjs {
		if hasSubquery(c) {
			residual = append(residual, c)
		} else {
			fuse = append(fuse, c)
		}
	}
	zone := zonePreds(byCol)

	// Zone-aware sequential cost: consult the actual segment zone maps for
	// how many rows survive pruning (safe at plan time — the plan cache is
	// keyed by catalog epoch, so any data change replans). The fused
	// predicate itself is charged at the filter rate over surviving rows.
	seqRows := total
	if len(zone) > 0 && len(fuse) > 0 {
		seqRows = float64(zoneKept(t, zone))
		b.noteZoneBand(t, binding, conjs, seqRows)
	}
	seqCost := seqRows * costSeqRow
	if len(fuse) > 0 {
		seqCost += evalCPU(seqRows, costFilterRow)
	}

	if best != nil {
		matched := total * best.sel
		idxCost := matched*costIndexRow + math.Log2(total+2)
		// The index-vs-seq decision compares row touches only (the fused
		// predicate's eval cost applies to the residual filter of the
		// index path just as much); zone pruning still discounts the
		// sequential side via seqRows.
		if idxCost < seqRows*costSeqRow {
			var used, remaining []sqlast.Expr
			for _, c := range conjs {
				if slices.Contains(best.used, c) {
					used = append(used, c)
				} else {
					remaining = append(remaining, c)
				}
			}
			ord := best.ord
			bind, err := atOpen(b, best.param, func(params []types.Value) (exec.ScanBinding, error) {
				cb := boundsOf(sargBounds(used, t, binding, params), ord)
				if cb == nil {
					return exec.ScanBinding{}, fmt.Errorf("plan: index bounds of %s.%s: %w", t.Name, t.Schema.Columns[ord].Name, eval.ErrUnbound)
				}
				return exec.ScanBinding{Bounds: cb.bounds}, nil
			})
			if err != nil {
				return nil, err
			}
			scan.IndexOrd, scan.Bind = ord, bind
			exec.SetEstimates(scan, matched, idxCost)
			exec.SetOrdering(scan, []exec.OrderCol{{Col: ord}})
			return b.applyFilter(pl, remaining, scope)
		}
	}

	if len(fuse) == 0 {
		exec.SetEstimates(scan, total, seqCost)
		return b.applyFilter(pl, residual, scope)
	}
	expr := sqlast.And(fuse...)
	bind, err := atOpen(b, sqlast.HasParam(expr), func(params []types.Value) (exec.ScanBinding, error) {
		pred, err := eval.Compile(expr, &eval.Env{Schema: pl.scope, Params: params})
		return exec.ScanBinding{Pred: pred, Zone: zonePreds(sargBounds(fuse, t, binding, params))}, err
	})
	if err != nil {
		return nil, err
	}
	scan.Bind, scan.Pred = bind, exec.LabelOf(expr)
	exec.SetEstimates(scan, total*b.selectivity(expr, pl, nil), seqCost)
	return b.applyFilter(pl, residual, scope)
}

// noteColBand records a placeholder-dependent column selectivity, in
// rows, as a band.
func (b *builder) noteColBand(t *storage.Table, binding string, cb *colBounds, total float64) {
	deps, st, ord := cb.used, t.Stats(cb.ord), cb.ord
	b.bind.note(sqlast.And(deps...), t.Name+"."+t.Schema.Columns[ord].Name+" rows", total*cb.sel,
		func(params []types.Value) (float64, bool) {
			nb := boundsOf(sargBounds(deps, t, binding, params), ord)
			if nb == nil {
				return 0, false
			}
			return total * boundsSelectivity(st, nb.bounds), true
		})
}

// noteZoneBand records the rows a scan's zone maps keep as a band when
// its zone preds depend on placeholders.
func (b *builder) noteZoneBand(t *storage.Table, binding string, conjs []sqlast.Expr, kept float64) {
	deps := sqlast.And(conjs...)
	if !sqlast.HasParam(deps) {
		return
	}
	b.bind.note(deps, t.Name+" zone-kept rows", kept, func(params []types.Value) (float64, bool) {
		return float64(zoneKept(t, zonePreds(sargBounds(conjs, t, binding, params)))), true
	})
}

// hasSubquery reports whether the expression contains an IN or EXISTS
// subquery (which the scan cannot evaluate itself).
func hasSubquery(e sqlast.Expr) bool {
	found := false
	sqlast.VisitExprs(e, func(x sqlast.Expr) {
		switch x := x.(type) {
		case *sqlast.In:
			if x.Sub != nil {
				found = true
			}
		case *sqlast.Exists:
			found = true
		}
	})
	return found
}

// sargable matches "col op operand" (or flipped) on the given table
// binding, the operand a literal, a placeholder, or arithmetic over them
// (`$1 + INTERVAL ...`), and returns the column ordinal, normalized
// operator, and operand.
func sargable(e sqlast.Expr, t *storage.Table, binding string) (int, sqlast.BinOp, sqlast.Expr, bool) {
	bin, ok := e.(*sqlast.Bin)
	if !ok || !bin.Op.IsComparison() || bin.Op == sqlast.OpNe {
		return 0, 0, nil, false
	}
	cr, val, op := matchColConst(bin)
	if cr == nil {
		return 0, 0, nil, false
	}
	if cr.Table != "" && cr.Table != binding {
		return 0, 0, nil, false
	}
	ord := t.Schema.IndexOf(cr.Name)
	if ord < 0 {
		return 0, 0, nil, false
	}
	return ord, op, val, true
}

// matchColConst extracts (colref, operand, op-with-col-on-left) where the
// operand is constLike.
func matchColConst(bin *sqlast.Bin) (*sqlast.ColRef, sqlast.Expr, sqlast.BinOp) {
	if cr, ok := bin.L.(*sqlast.ColRef); ok && constLike(bin.R) {
		return cr, bin.R, bin.Op
	}
	if cr, ok := bin.R.(*sqlast.ColRef); ok && constLike(bin.L) {
		return cr, bin.L, bin.Op.Flip()
	}
	return nil, nil, bin.Op
}

func tightenLo(b *storage.Bounds, v types.Value, incl bool) {
	if b.Lo == nil {
		b.Lo, b.LoIncl = &v, incl
		return
	}
	c, err := types.Compare(v, *b.Lo)
	if err != nil {
		return
	}
	if c > 0 || (c == 0 && !incl) {
		b.Lo, b.LoIncl = &v, incl
	}
}

func tightenHi(b *storage.Bounds, v types.Value, incl bool) {
	if b.Hi == nil {
		b.Hi, b.HiIncl = &v, incl
		return
	}
	c, err := types.Compare(v, *b.Hi)
	if err != nil {
		return
	}
	if c < 0 || (c == 0 && !incl) {
		b.Hi, b.HiIncl = &v, incl
	}
}

func boundsSelectivity(st *storage.ColStats, b storage.Bounds) float64 {
	if b.Equals != nil {
		return st.EqSelectivity()
	}
	return st.RangeSelectivity(b.Lo, b.Hi)
}

// Key-driven index access. A pipeline binds its operators top down (see
// pipeline.open), so when the plain scan at the bottom of a chain opens,
// the operator directly above it may already know every key it can keep:
// a semi-join filter's `col IN (subquery)` has run its subquery, and an
// inner hash join has built its table. When those keys are few and the
// column is indexed, the scan reads only the rows whose value is one of
// them, in table order, instead of the whole table. The operator above
// still evaluates its whole predicate or join condition — the probe only
// narrows its input to a superset of the rows that can pass — so results
// and row order are the full scan's.
package exec

import (
	"slices"

	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/types"
)

// probeShare bounds a probe: when more than a probeShare-th of the table's
// rows (or keys) would be looked up, the scan reads the whole table.
const probeShare = 8

// scanProbe is the keys an operator bound at open for the plain scan
// below it, on the scan's column col.
type scanProbe struct {
	scan *ScanNode
	col  int
	keys []types.Value
}

// ProbeScan returns n when it is a plain scan — no index bounds, no fused
// predicate — or nil. It is the scan a FilterNode's or HashJoinNode's
// ProbeCol refers to.
func ProbeScan(n Node) *ScanNode {
	if s, ok := n.(*ScanNode); ok && s.Plain() {
		return s
	}
	return nil
}

// probeFor starts the probe an operator over input binds on column col
// (negative: none). The row path never probes: like zone pruning, it
// reads every row and stays the oracle.
func (c *Ctx) probeFor(input Node, col int) *scanProbe {
	if col < 0 || !c.vec {
		return nil
	}
	if s := ProbeScan(input); s != nil {
		return &scanProbe{scan: s, col: col}
	}
	return nil
}

// ids returns the IDs of the rows of s's table whose probed column holds
// one of the keys, ascending, and the number of distinct keys looked up.
// False means s reads the whole table: the probe is not for s, a key's
// kind differs from the column's (NULL's differs from every column's),
// the column is FLOAT (NaN breaks the index order), the index is gone, or
// there are more keys or matching rows than a probeShare-th of the rows.
func (p *scanProbe) ids(s *ScanNode) ([]int32, int, bool) {
	if p == nil || p.scan != s || p.keys == nil {
		return nil, 0, false
	}
	t := s.Table
	kind := t.Schema.Columns[p.col].Kind
	limit := t.RowCount() / probeShare
	if kind == types.KindFloat || len(p.keys) > limit {
		return nil, 0, false
	}
	for _, k := range p.keys {
		if k.Kind() != kind {
			return nil, 0, false
		}
	}
	keys := slices.Clone(p.keys)
	cmp := func(a, b types.Value) int {
		c, _ := types.Compare(a, b) // one kind, so always comparable
		return c
	}
	slices.SortFunc(keys, cmp)
	keys = slices.CompactFunc(keys, func(a, b types.Value) bool { return cmp(a, b) == 0 })
	ranges := make([]storage.Bounds, len(keys))
	for i := range keys {
		ranges[i].Equals = &keys[i]
	}
	parts := t.Lookup(p.col, ranges)
	if parts == nil {
		return nil, 0, false
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	if n > limit {
		return nil, 0, false
	}
	ids := make([]int32, 0, n)
	for _, part := range parts {
		ids = append(ids, part...)
	}
	slices.Sort(ids)
	return ids, len(keys), true
}

// keys evaluates key over one row of every distinct build key — the values
// a probe row can meet — or returns nil past limit distinct keys.
func (jt *joinTable) keys(key *eval.Compiled, limit int) []types.Value {
	n := 0
	for _, p := range jt.parts {
		n += p.len()
	}
	if n > limit {
		return nil
	}
	out := make([]types.Value, 0, n)
	for _, p := range jt.parts {
		for _, e := range p.ents {
			v, err := key.Eval(e.val[0])
			if err != nil {
				return nil
			}
			out = append(out, v)
		}
	}
	return out
}

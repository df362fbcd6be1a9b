// Vectorized (batch) expression evaluation. Compile produces a Compiled
// expression carrying two executable forms: the row-at-a-time closure
// (Func, unchanged from the original engine) and, for every construct
// with a vector kernel, a BatchFunc that evaluates a whole morsel per
// call through a selection vector. Kernels amortize closure dispatch
// into tight loops; lazy constructs (AND/OR, CASE, COALESCE) keep their
// short-circuit semantics by narrowing the selection vector instead of
// branching per row.
//
// Kernels read from an Input — either materialized rows or a window of
// columnar segment vectors (see input.go). Over columnar inputs the hot
// comparison shapes (column vs literal) run directly on the typed
// arrays: int64 payloads, float64s, or dictionary codes, with the null
// bitmap consulted instead of boxing each cell.
//
// The contract is strict parity: the batch path returns byte-identical
// values to the row path, and identical errors. Kernels that hit any
// error abort without a result, and the caller re-runs the row path over
// the same selection so the error that surfaces is exactly the one serial
// execution would report first. Anything without a kernel (for example IN
// with non-constant list members) simply reports Vectorized() == false
// and evaluates through the row closure.
package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/colvec"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/types"
)

// BatchFunc evaluates an expression for every position listed in sel,
// writing the result for position i into out[i]. Positions outside sel
// are left untouched. out must have at least in.Len() slots. Kernels
// require a non-nil selection; EvalBatch and TryBatch normalize nil to
// "all rows". A non-nil error means the batch produced no usable output
// and the caller must fall back to the row path for exact error
// reporting.
type BatchFunc func(in Input, out []types.Value, sel []int) error

// BoolBatchFunc is the predicate-specialized batch form: it writes one
// three-valued truth value per selected position into a byte vector.
// Boolean operators (comparisons, AND/OR/NOT, IS NULL, IN, LIKE) compose
// through it so a predicate tree never materializes intermediate
// []types.Value vectors — a tristate costs one byte and no GC write
// barrier, where a Value costs 48 bytes with pointer fields the collector
// must track.
type BoolBatchFunc func(in Input, dst []types.Tristate, sel []int) error

// Compiled is an executable expression produced by Compile. It is
// immutable and safe for concurrent use from any number of goroutines;
// kernels draw scratch space from pools rather than the receiver.
type Compiled struct {
	row     Func
	batch   BatchFunc
	bbatch  BoolBatchFunc // native tristate kernel for boolean-valued operators
	isConst bool
	constV  types.Value
	isCol   bool // bare column reference; kernels read the column in place
	colIdx  int
}

// Eval evaluates the expression row-at-a-time.
func (c *Compiled) Eval(row schema.Row) (types.Value, error) { return c.row(row) }

// Row exposes the row-at-a-time closure.
func (c *Compiled) Row() Func { return c.row }

// Vectorized reports whether the whole expression tree has vector
// kernels; when false, EvalBatch transparently uses the row path.
func (c *Compiled) Vectorized() bool { return c.batch != nil }

// ConstValue returns the compile-time value of a literal-only expression
// (after constant folding) and whether the expression is such a constant.
func (c *Compiled) ConstValue() (types.Value, bool) { return c.constV, c.isConst }

// ColumnOrdinal returns the input ordinal of a bare column reference and
// whether the expression is one.
func (c *Compiled) ColumnOrdinal() (int, bool) { return c.colIdx, c.isCol }

// ColumnOrdinals returns the input ordinal each expression reads when
// every one of them is a bare column reference, and nil otherwise — a
// projection that only selects columns can copy cells instead of
// evaluating anything.
func ColumnOrdinals(exprs []*Compiled) []int {
	ords := make([]int, len(exprs))
	for j, c := range exprs {
		if !c.isCol {
			return nil
		}
		ords[j] = c.colIdx
	}
	return ords
}

// EvalBatch evaluates the selected rows (sel == nil means all), writing
// out[i] for each selected i. Values and errors are guaranteed identical
// to evaluating the row closure over sel in order: any vector-path error
// triggers a row-path re-run, so the first serial error is what surfaces.
func (c *Compiled) EvalBatch(rows []schema.Row, out []types.Value, sel []int) error {
	if sel == nil {
		sel = identitySel(len(rows))
	}
	if c.batch != nil && c.batch(RowInput(rows), out, sel) == nil {
		return nil
	}
	for _, i := range sel {
		v, err := c.row(rows[i])
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// TryBatch runs the vector kernel and reports whether it produced a full
// result. False — no kernel, or the kernel hit an error — means out is
// unspecified and the caller must evaluate its original row loop, which
// reproduces serial behaviour (including interleaved non-expression
// errors) exactly.
func (c *Compiled) TryBatch(rows []schema.Row, out []types.Value, sel []int) bool {
	if c.batch == nil {
		return false
	}
	if sel == nil {
		sel = identitySel(len(rows))
	}
	return c.batch(RowInput(rows), out, sel) == nil
}

// FromFunc wraps a raw row closure as a Compiled with no vector kernel;
// tests and ad-hoc executor callers use it where they used to pass a bare
// Func.
func FromFunc(f Func) *Compiled { return &Compiled{row: f} }

// Column returns a compiled reference to column idx — the vectorized
// equivalent of func(r) { return r[idx], nil }.
func Column(idx int) *Compiled {
	return &Compiled{
		row:    func(row schema.Row) (types.Value, error) { return row[idx], nil },
		batch:  batchColumn(idx),
		isCol:  true,
		colIdx: idx,
	}
}

// Const returns a compiled constant v.
func Const(v types.Value) *Compiled { return constCompiled(v) }

func constCompiled(v types.Value) *Compiled {
	return &Compiled{
		row:     func(schema.Row) (types.Value, error) { return v, nil },
		batch:   batchConst(v),
		isConst: true,
		constV:  v,
	}
}

// foldIfConst replaces c with a compile-time constant when every input is
// itself constant and evaluation succeeds. Expressions whose evaluation
// errors stay unfolded so the error still surfaces at run time, exactly
// as the row path reports it.
func foldIfConst(c *Compiled, inputsConst bool) *Compiled {
	if !inputsConst || c.isConst {
		return c
	}
	if v, err := c.row(nil); err == nil {
		return constCompiled(v)
	}
	return c
}

func allConst(cs ...*Compiled) bool {
	for _, c := range cs {
		if c != nil && !c.isConst {
			return false
		}
	}
	return true
}

func allVectorized(cs ...*Compiled) bool {
	for _, c := range cs {
		if c != nil && c.batch == nil {
			return false
		}
	}
	return true
}

// EvalPredicateBatch appends to dst the positions from sel (nil = all
// rows) where the predicate evaluates to TRUE — exactly the rows
// EvalPredicate keeps, with the identical first error on failure.
func EvalPredicateBatch(c *Compiled, rows []schema.Row, sel []int, dst []int) ([]int, error) {
	if sel == nil {
		sel = identitySel(len(rows))
	}
	base := len(dst)
	if bb := triOf(c); bb != nil {
		out, ok := tryPredicate(bb, RowInput(rows), sel, dst)
		if ok {
			return out, nil
		}
	}
	for _, i := range sel {
		ok, err := EvalPredicate(c, rows[i])
		if err != nil {
			return dst[:base], err
		}
		if ok {
			dst = append(dst, i)
		}
	}
	return dst, nil
}

// TryPredicateCols runs the predicate's vector kernels over a window
// [off, off+n) of columnar segment vectors, appending the
// window-relative positions where it evaluates TRUE to dst. It reports
// false — no kernel, or any kernel error — when the caller must
// materialize rows and use the row path instead; dst is unchanged in
// that case.
func TryPredicateCols(c *Compiled, cols []*colvec.Vec, off, n int, dst []int) ([]int, bool) {
	bb := triOf(c)
	if bb == nil {
		return dst, false
	}
	return tryPredicate(bb, ColInput(cols, off, n), identitySel(n), dst)
}

// tryPredicate runs a tristate kernel over in and appends TRUE positions
// to dst; ok is false (dst unchanged) on kernel error.
func tryPredicate(bb BoolBatchFunc, in Input, sel []int, dst []int) ([]int, bool) {
	tp := getTri(in.n)
	defer putTri(tp)
	if bb(in, *tp, sel) != nil {
		return dst, false
	}
	tv := *tp
	for _, i := range sel {
		if tv[i] == types.True {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// ---- scratch pools ----

// batchAlloc sizes pooled scratch for the executor's morsel width; larger
// batches still work, the pool just reallocates.
const batchAlloc = 4096

var vecPool = sync.Pool{New: func() any { s := make([]types.Value, 0, batchAlloc); return &s }}

func getVec(n int) *[]types.Value {
	p := vecPool.Get().(*[]types.Value)
	if cap(*p) < n {
		*p = make([]types.Value, n)
	}
	*p = (*p)[:n]
	return p
}

func putVec(p *[]types.Value) { vecPool.Put(p) }

var triPool = sync.Pool{New: func() any { s := make([]types.Tristate, 0, batchAlloc); return &s }}

func getTri(n int) *[]types.Tristate {
	p := triPool.Get().(*[]types.Tristate)
	if cap(*p) < n {
		*p = make([]types.Tristate, n)
	}
	*p = (*p)[:n]
	return p
}

func putTri(p *[]types.Tristate) { triPool.Put(p) }

var selPool = sync.Pool{New: func() any { s := make([]int, 0, batchAlloc); return &s }}

func getSel() *[]int {
	p := selPool.Get().(*[]int)
	*p = (*p)[:0]
	return p
}

func putSel(p *[]int) { selPool.Put(p) }

// identitySel returns the shared selection vector {0, 1, ..., n-1}. The
// backing array only ever grows and existing elements never change, so
// returned slices stay valid for concurrent readers.
var (
	identityMu  sync.Mutex
	identityBuf []int
)

func identitySel(n int) []int {
	identityMu.Lock()
	defer identityMu.Unlock()
	for len(identityBuf) < n {
		identityBuf = append(identityBuf, len(identityBuf))
	}
	return identityBuf[:n]
}

// ---- operand sources ----
//
// Kernels bind each child to a source before their element loop:
// constants and bare column references are read in place — no scratch
// vector, no per-row Value copy, no write barrier — while computed
// children run their own kernel into pooled scratch exactly once. This
// is where batching beats the row path: the common rule-expression
// leaves (column vs literal) cost an index into the input, not a closure
// call.

const (
	srcConst uint8 = iota
	srcCol
	srcVec
)

type opSrc struct {
	kind uint8
	idx  int
	v    types.Value
	vec  []types.Value
	pool *[]types.Value
}

// bindSrc resolves child c over the selected positions. On error nothing
// is retained; otherwise the caller must release() the source.
func bindSrc(c *Compiled, in Input, sel []int) (opSrc, error) {
	if c.isConst {
		return opSrc{kind: srcConst, v: c.constV}, nil
	}
	if c.isCol {
		return opSrc{kind: srcCol, idx: c.colIdx}, nil
	}
	p := getVec(in.n)
	if err := c.batch(in, *p, sel); err != nil {
		putVec(p)
		return opSrc{}, err
	}
	return opSrc{kind: srcVec, vec: *p, pool: p}, nil
}

// at reads the operand's value for position i; i must be in the selection
// the source was bound with.
func (s *opSrc) at(in Input, i int) types.Value {
	switch s.kind {
	case srcConst:
		return s.v
	case srcCol:
		return in.value(i, s.idx)
	}
	return s.vec[i]
}

func (s *opSrc) release() {
	if s.pool != nil {
		putVec(s.pool)
	}
}

// triOf returns the boolean batch form of c: its native tristate kernel
// when the top operator is boolean, a constant fill for literals, or a
// TruthOf wrapper over the value kernel. nil when c has no vector kernel.
func triOf(c *Compiled) BoolBatchFunc {
	if c.bbatch != nil {
		return c.bbatch
	}
	if c.isConst {
		cv := c.constV
		return func(in Input, dst []types.Tristate, sel []int) error {
			t, err := types.TruthOf(cv)
			if err != nil {
				return err
			}
			for _, i := range sel {
				dst[i] = t
			}
			return nil
		}
	}
	if c.batch == nil {
		return nil
	}
	return func(in Input, dst []types.Tristate, sel []int) error {
		s, err := bindSrc(c, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			t, err := types.TruthOf(s.at(in, i))
			if err != nil {
				return err
			}
			dst[i] = t
		}
		return nil
	}
}

// batchFromTri adapts a tristate kernel to the value-batch interface for
// the occasional context that consumes a predicate's result as a value.
func batchFromTri(bb BoolBatchFunc) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		tp := getTri(in.n)
		defer putTri(tp)
		if err := bb(in, *tp, sel); err != nil {
			return err
		}
		tv := *tp
		for _, i := range sel {
			out[i] = types.ValueOfTristate(tv[i])
		}
		return nil
	}
}

// ---- kernels ----
//
// Every kernel mirrors its row closure in eval.go operation for
// operation; the loops differ only in evaluating children over the whole
// selection before combining. Eager sub-evaluation can hit an error the
// serial path would not reach first (or at all, for lazily-skipped
// operands) — returning it aborts the batch and the caller's row-path
// fallback restores exact serial error semantics.

func batchConst(v types.Value) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		for _, i := range sel {
			out[i] = v
		}
		return nil
	}
}

func batchColumn(idx int) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		for _, i := range sel {
			out[i] = in.value(i, idx)
		}
		return nil
	}
}

// triAnd evaluates the left operand everywhere and the right operand
// only where the left is not FALSE — the same work the short-circuiting
// row closure does, expressed as selection-vector narrowing.
func triAnd(l, r *Compiled) BoolBatchFunc {
	lb, rb := triOf(l), triOf(r)
	return func(in Input, dst []types.Tristate, sel []int) error {
		if err := lb(in, dst, sel); err != nil {
			return err
		}
		restp := getSel()
		defer putSel(restp)
		rest := *restp
		for _, i := range sel {
			if dst[i] != types.False {
				rest = append(rest, i)
			}
		}
		*restp = rest
		if len(rest) == 0 {
			return nil
		}
		rp := getTri(in.n)
		defer putTri(rp)
		if err := rb(in, *rp, rest); err != nil {
			return err
		}
		rv := *rp
		for _, i := range rest {
			dst[i] = types.And(dst[i], rv[i])
		}
		return nil
	}
}

func triOr(l, r *Compiled) BoolBatchFunc {
	lb, rb := triOf(l), triOf(r)
	return func(in Input, dst []types.Tristate, sel []int) error {
		if err := lb(in, dst, sel); err != nil {
			return err
		}
		restp := getSel()
		defer putSel(restp)
		rest := *restp
		for _, i := range sel {
			if dst[i] != types.True {
				rest = append(rest, i)
			}
		}
		*restp = rest
		if len(rest) == 0 {
			return nil
		}
		rp := getTri(in.n)
		defer putTri(rp)
		if err := rb(in, *rp, rest); err != nil {
			return err
		}
		rv := *rp
		for _, i := range rest {
			dst[i] = types.Or(dst[i], rv[i])
		}
		return nil
	}
}

func triCompare(op sqlast.BinOp, l, r *Compiled) BoolBatchFunc {
	if l.isCol && r.isConst {
		return triCmpColConst(op, l.colIdx, r.constV, false)
	}
	if l.isConst && r.isCol {
		return triCmpColConst(op, r.colIdx, l.constV, true)
	}
	return func(in Input, dst []types.Tristate, sel []int) error {
		ls, err := bindSrc(l, in, sel)
		if err != nil {
			return err
		}
		defer ls.release()
		rs, err := bindSrc(r, in, sel)
		if err != nil {
			return err
		}
		defer rs.release()
		for _, i := range sel {
			a, b := ls.at(in, i), rs.at(in, i)
			if a.IsNull() || b.IsNull() {
				dst[i] = types.Unknown
				continue
			}
			c, err := types.Compare(a, b)
			if err != nil {
				return err
			}
			dst[i] = types.TristateOf(cmpHolds(op, c))
		}
		return nil
	}
}

// triCmpColConst is the dominant rule-expression comparison shape —
// column versus literal — with the types.Compare switch hoisted out of
// the loop. flipped means the literal was the left operand. Over
// columnar inputs the typed encodings compare raw int64 payloads, raw
// float64s, or dictionary codes with no boxing at all.
func triCmpColConst(op sqlast.BinOp, idx int, cv types.Value, flipped bool) BoolBatchFunc {
	if cv.IsNull() {
		return func(in Input, dst []types.Tristate, sel []int) error {
			for _, i := range sel {
				dst[i] = types.Unknown
			}
			return nil
		}
	}
	isInt := cv.Kind() == types.KindInt
	var cn int64
	if isInt {
		cn = cv.Int()
	}
	return func(in Input, dst []types.Tristate, sel []int) error {
		if vec, off := in.vec(idx); vec != nil {
			if cmpVecConst(op, vec, off, cv, flipped, dst, sel) {
				return nil
			}
		}
		for _, i := range sel {
			v := in.value(i, idx)
			if isInt && v.Kind() == types.KindInt {
				a, b := v.Int(), cn
				if flipped {
					a, b = b, a
				}
				dst[i] = types.TristateOf(cmpHoldsInt(op, a, b))
				continue
			}
			if v.IsNull() {
				dst[i] = types.Unknown
				continue
			}
			a, b := v, cv
			if flipped {
				a, b = b, a
			}
			c, err := types.Compare(a, b)
			if err != nil {
				return err
			}
			dst[i] = types.TristateOf(cmpHolds(op, c))
		}
		return nil
	}
}

// cmpVecConst compares a typed column vector window against a constant
// directly on the raw arrays, reporting whether the encoding/kind pair
// was handled. Results are identical to the boxed path: the int64 loop
// is cmpHoldsInt, the float loop reproduces types.Compare's float
// semantics (NaN compares "equal" to everything, so NaN rows answer
// exactly as the row path does), and the dictionary path precomputes one
// verdict per distinct string.
func cmpVecConst(op sqlast.BinOp, vec *colvec.Vec, off int, cv types.Value, flipped bool, dst []types.Tristate, sel []int) bool {
	switch vec.Encoding() {
	case colvec.EncInt64:
		k := vec.Kind()
		if k != cv.Kind() {
			// Int column vs float literal still has a raw path: the boxed
			// comparison is float64(int) against the literal's float.
			if k == types.KindInt && cv.Kind() == types.KindFloat {
				cmpVecFloatConst(op, vec.Int64s(), nil, vec, off, cv.Float(), flipped, dst, sel)
				return true
			}
			return false
		}
		switch k {
		case types.KindInt, types.KindTime, types.KindInterval, types.KindBool:
		default:
			return false
		}
		cn := cv.Raw()
		ints := vec.Int64s()
		if !vec.HasNulls() {
			for _, i := range sel {
				a, b := ints[off+i], cn
				if flipped {
					a, b = b, a
				}
				dst[i] = types.TristateOf(cmpHoldsInt(op, a, b))
			}
			return true
		}
		for _, i := range sel {
			if vec.Null(off + i) {
				dst[i] = types.Unknown
				continue
			}
			a, b := ints[off+i], cn
			if flipped {
				a, b = b, a
			}
			dst[i] = types.TristateOf(cmpHoldsInt(op, a, b))
		}
		return true
	case colvec.EncFloat:
		switch cv.Kind() {
		case types.KindFloat, types.KindInt:
			cmpVecFloatConst(op, nil, vec.Floats(), vec, off, cv.Float(), flipped, dst, sel)
			return true
		}
		return false
	case colvec.EncDict:
		if cv.Kind() != types.KindString {
			return false
		}
		// One comparison per distinct string, then a code-indexed lookup.
		dict := vec.Dict()
		verdict := make([]types.Tristate, len(dict))
		for c, s := range dict {
			cmp := strings.Compare(s, cv.Str())
			if flipped {
				cmp = -cmp
			}
			verdict[c] = types.TristateOf(cmpHolds(op, cmp))
		}
		codes := vec.Codes()
		for _, i := range sel {
			c := codes[off+i]
			if c < 0 {
				dst[i] = types.Unknown
				continue
			}
			dst[i] = verdict[c]
		}
		return true
	}
	return false
}

// cmpVecFloatConst runs a float comparison over either a raw float array
// or a raw int64 array widened per element (exactly what the boxed
// Compare does for mixed int/float operands).
func cmpVecFloatConst(op sqlast.BinOp, ints []int64, floats []float64, vec *colvec.Vec, off int, cf float64, flipped bool, dst []types.Tristate, sel []int) {
	for _, i := range sel {
		if vec.Null(off + i) {
			dst[i] = types.Unknown
			continue
		}
		var af float64
		if floats != nil {
			af = floats[off+i]
		} else {
			af = float64(ints[off+i])
		}
		// types.Compare float semantics: only < and > decide; NaN falls
		// through to 0 ("equal") on both sides.
		cmp := 0
		switch {
		case af < cf:
			cmp = -1
		case af > cf:
			cmp = 1
		}
		if flipped {
			cmp = -cmp
		}
		dst[i] = types.TristateOf(cmpHolds(op, cmp))
	}
}

// cmpHoldsInt is cmpHolds ∘ types.Compare for the INT/INT case, inlined
// into one branch.
func cmpHoldsInt(op sqlast.BinOp, a, b int64) bool {
	switch op {
	case sqlast.OpEq:
		return a == b
	case sqlast.OpNe:
		return a != b
	case sqlast.OpLt:
		return a < b
	case sqlast.OpLe:
		return a <= b
	case sqlast.OpGt:
		return a > b
	case sqlast.OpGe:
		return a >= b
	}
	return false
}

func batchArith(aop types.ArithOp, l, r *Compiled) BatchFunc {
	// Column ⊕ literal (either order) skips operand binding entirely.
	if l.isCol && r.isConst {
		idx, cv := l.colIdx, r.constV
		return func(in Input, out []types.Value, sel []int) error {
			for _, i := range sel {
				v, err := types.Arith(aop, in.value(i, idx), cv)
				if err != nil {
					return err
				}
				out[i] = v
			}
			return nil
		}
	}
	if l.isConst && r.isCol {
		cv, idx := l.constV, r.colIdx
		return func(in Input, out []types.Value, sel []int) error {
			for _, i := range sel {
				v, err := types.Arith(aop, cv, in.value(i, idx))
				if err != nil {
					return err
				}
				out[i] = v
			}
			return nil
		}
	}
	return func(in Input, out []types.Value, sel []int) error {
		ls, err := bindSrc(l, in, sel)
		if err != nil {
			return err
		}
		defer ls.release()
		rs, err := bindSrc(r, in, sel)
		if err != nil {
			return err
		}
		defer rs.release()
		for _, i := range sel {
			v, err := types.Arith(aop, ls.at(in, i), rs.at(in, i))
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
}

func triNot(inner *Compiled) BoolBatchFunc {
	ib := triOf(inner)
	return func(in Input, dst []types.Tristate, sel []int) error {
		if err := ib(in, dst, sel); err != nil {
			return err
		}
		for _, i := range sel {
			dst[i] = types.Not(dst[i])
		}
		return nil
	}
}

func batchNeg(inner *Compiled) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		s, err := bindSrc(inner, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			v := s.at(in, i)
			if v.Kind() == types.KindInterval {
				out[i] = types.NewInterval(-v.IntervalUsec())
				continue
			}
			nv, err := types.Arith(types.OpSub, types.NewInt(0), v)
			if err != nil {
				return err
			}
			out[i] = nv
		}
		return nil
	}
}

func triIsNull(inner *Compiled, neg bool) BoolBatchFunc {
	return func(in Input, dst []types.Tristate, sel []int) error {
		s, err := bindSrc(inner, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			dst[i] = types.TristateOf(s.at(in, i).IsNull() != neg)
		}
		return nil
	}
}

// batchCase evaluates each WHEN condition only over the rows no earlier
// arm matched and each THEN only over the rows its condition matched —
// the selection-vector form of the row closure's lazy arm evaluation.
func batchCase(arms []caseArm, elseC *Compiled) BatchFunc {
	conds := make([]BoolBatchFunc, len(arms))
	for i, a := range arms {
		conds[i] = triOf(a.cond)
	}
	return func(in Input, out []types.Value, sel []int) error {
		tp := getTri(in.n)
		defer putTri(tp)
		bufA, bufB, matchp := getSel(), getSel(), getSel()
		defer putSel(bufA)
		defer putSel(bufB)
		defer putSel(matchp)
		rem := append(*bufA, sel...)
		*bufA = rem
		spare := (*bufB)[:0]
		for ai, a := range arms {
			if len(rem) == 0 {
				break
			}
			if err := conds[ai](in, *tp, rem); err != nil {
				return err
			}
			tv := *tp
			match := (*matchp)[:0]
			next := spare[:0]
			for _, i := range rem {
				if tv[i] == types.True {
					match = append(match, i)
				} else {
					next = append(next, i)
				}
			}
			if len(match) > 0 {
				if err := a.then.batch(in, out, match); err != nil {
					return err
				}
			}
			*matchp = match
			spare = rem[:0]
			rem = next
		}
		if len(rem) == 0 {
			return nil
		}
		if elseC != nil {
			return elseC.batch(in, out, rem)
		}
		for _, i := range rem {
			out[i] = types.Null
		}
		return nil
	}
}

// triIn handles IN over a compile-time member set (literals or an
// uncorrelated subquery). It improves on the row closure by probing the
// set with a reused scratch key instead of allocating a string per row.
func triIn(operand *Compiled, set map[string]struct{}, setHasNull, neg bool) BoolBatchFunc {
	return func(in Input, dst []types.Tristate, sel []int) error {
		s, err := bindSrc(operand, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		var key []byte
		for _, i := range sel {
			v := s.at(in, i)
			if v.IsNull() {
				dst[i] = types.Unknown
				continue
			}
			key = types.AppendSortKey(key[:0], v, false)
			_, found := set[string(key)]
			switch {
			case found:
				dst[i] = types.TristateOf(!neg)
			case setHasNull:
				dst[i] = types.Unknown
			default:
				dst[i] = types.TristateOf(neg)
			}
		}
		return nil
	}
}

func triLike(operand, pattern *Compiled, neg bool) BoolBatchFunc {
	return func(in Input, dst []types.Tristate, sel []int) error {
		vs, err := bindSrc(operand, in, sel)
		if err != nil {
			return err
		}
		defer vs.release()
		ps, err := bindSrc(pattern, in, sel)
		if err != nil {
			return err
		}
		defer ps.release()
		for _, i := range sel {
			v, p := vs.at(in, i), ps.at(in, i)
			if v.IsNull() || p.IsNull() {
				dst[i] = types.Unknown
				continue
			}
			if v.Kind() != types.KindString || p.Kind() != types.KindString {
				return errors.New("eval: LIKE needs string operands")
			}
			dst[i] = types.TristateOf(likeMatch(v.Str(), p.Str()) != neg)
		}
		return nil
	}
}

// batchCoalesce evaluates each argument only over the rows still NULL
// after the previous ones, mirroring the row closure's lazy scan.
func batchCoalesce(args []*Compiled) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		bufA, bufB := getSel(), getSel()
		defer putSel(bufA)
		defer putSel(bufB)
		rem := append(*bufA, sel...)
		*bufA = rem
		spare := (*bufB)[:0]
		for _, a := range args {
			if len(rem) == 0 {
				break
			}
			s, err := bindSrc(a, in, rem)
			if err != nil {
				return err
			}
			next := spare[:0]
			for _, i := range rem {
				if v := s.at(in, i); v.IsNull() {
					next = append(next, i)
				} else {
					out[i] = v
				}
			}
			s.release()
			spare = rem[:0]
			rem = next
		}
		for _, i := range rem {
			out[i] = types.Null
		}
		return nil
	}
}

func batchAbs(arg *Compiled) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		s, err := bindSrc(arg, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			v := s.at(in, i)
			if v.IsNull() {
				out[i] = v
				continue
			}
			switch v.Kind() {
			case types.KindInt:
				if v.Int() < 0 {
					v = types.NewInt(-v.Int())
				}
			case types.KindFloat:
				if v.Float() < 0 {
					v = types.NewFloat(-v.Float())
				}
			case types.KindInterval:
				if v.IntervalUsec() < 0 {
					v = types.NewInterval(-v.IntervalUsec())
				}
			default:
				return fmt.Errorf("eval: ABS on %s", v.Kind())
			}
			out[i] = v
		}
		return nil
	}
}

func batchCaseFold(arg *Compiled, toUpper bool) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		s, err := bindSrc(arg, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			v := s.at(in, i)
			if v.IsNull() {
				out[i] = v
				continue
			}
			if v.Kind() != types.KindString {
				name := "LOWER"
				if toUpper {
					name = "UPPER"
				}
				return fmt.Errorf("eval: %s on %s", name, v.Kind())
			}
			if toUpper {
				out[i] = types.NewString(strings.ToUpper(v.Str()))
			} else {
				out[i] = types.NewString(strings.ToLower(v.Str()))
			}
		}
		return nil
	}
}

func batchLength(arg *Compiled) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		s, err := bindSrc(arg, in, sel)
		if err != nil {
			return err
		}
		defer s.release()
		for _, i := range sel {
			v := s.at(in, i)
			if v.IsNull() {
				out[i] = v
				continue
			}
			if v.Kind() != types.KindString {
				return fmt.Errorf("eval: LENGTH on %s", v.Kind())
			}
			out[i] = types.NewInt(int64(len(v.Str())))
		}
		return nil
	}
}

// batchSubstr keeps the row closure's laziness: the start (and length)
// arguments are only evaluated where the string operand is non-NULL.
func batchSubstr(args []*Compiled) BatchFunc {
	return func(in Input, out []types.Value, sel []int) error {
		s0, err := bindSrc(args[0], in, sel)
		if err != nil {
			return err
		}
		defer s0.release()
		livep := getSel()
		defer putSel(livep)
		live := *livep
		for _, i := range sel {
			v := s0.at(in, i)
			if v.IsNull() {
				out[i] = v
				continue
			}
			if v.Kind() != types.KindString {
				return fmt.Errorf("eval: SUBSTR on %s", v.Kind())
			}
			live = append(live, i)
		}
		*livep = live
		if len(live) == 0 {
			return nil
		}
		s1, err := bindSrc(args[1], in, live)
		if err != nil {
			return err
		}
		defer s1.release()
		var s2 opSrc
		hasLen := false
		if len(args) == 3 {
			fullp := getSel()
			defer putSel(fullp)
			full := (*fullp)[:0]
			for _, i := range live {
				if s1.at(in, i).IsNull() {
					out[i] = types.Null
				} else {
					full = append(full, i)
				}
			}
			*fullp = full
			live = full
			if len(live) == 0 {
				return nil
			}
			s2, err = bindSrc(args[2], in, live)
			if err != nil {
				return err
			}
			defer s2.release()
			hasLen = true
		}
		for _, i := range live {
			v1 := s1.at(in, i)
			if v1.IsNull() {
				out[i] = types.Null
				continue
			}
			str := s0.at(in, i).Str()
			start := v1.Int() - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > int64(len(str)) {
				start = int64(len(str))
			}
			end := int64(len(str))
			if hasLen {
				v2 := s2.at(in, i)
				if v2.IsNull() {
					out[i] = types.Null
					continue
				}
				end = start + v2.Int()
				if end < start {
					end = start
				}
				if end > int64(len(str)) {
					end = int64(len(str))
				}
			}
			out[i] = types.NewString(str[start:end])
		}
		return nil
	}
}

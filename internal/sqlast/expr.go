// Package sqlast defines the abstract syntax tree shared by the SQL
// parser, the SQL-TS rule compiler, and the query-rewrite engine, together
// with a deterministic printer. Rewrites in this system are genuine SQL
// text transformations — a rewritten query can be printed, inspected, and
// re-parsed — mirroring the paper's architecture where the rewrite unit
// sits outside the DBMS and submits SQL to it.
package sqlast

import (
	"repro/internal/types"
)

// Expr is a SQL scalar expression.
type Expr interface {
	exprNode()
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string
	Name  string
}

// Const is a literal value.
type Const struct {
	V types.Value
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// IsComparison reports whether op is one of =, !=, <, <=, >, >=.
func (op BinOp) IsComparison() bool { return op <= OpGe }

// IsArith reports whether op is one of +, -, *, /.
func (op BinOp) IsArith() bool { return op >= OpAdd }

func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Negate returns the comparison with operands' order preserved but the
// relation complemented (e.g. < becomes >=). Only valid for comparisons.
func (op BinOp) Negate() BinOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Flip returns the comparison that holds when the operands are swapped
// (e.g. a < b  ⇔  b > a). Only valid for comparisons.
func (op BinOp) Flip() BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
)

// Un is a unary expression.
type Un struct {
	Op UnOp
	E  Expr
}

// IsNull is "E IS [NOT] NULL".
type IsNull struct {
	E   Expr
	Neg bool
}

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil (NULL)
}

// In is "E [NOT] IN (list)" or "E [NOT] IN (subquery)".
type In struct {
	E    Expr
	List []Expr
	Sub  Stmt // non-nil for subquery form
	Neg  bool
}

// Exists is "[NOT] EXISTS (subquery)".
type Exists struct {
	Sub Stmt
	Neg bool
}

// Like is "E [NOT] LIKE pattern" with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern Expr
	Neg     bool
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

// OrderItem is one ORDER BY / window-order element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// FrameUnit distinguishes ROWS from RANGE frames.
type FrameUnit uint8

// Frame units.
const (
	FrameRows FrameUnit = iota
	FrameRange
)

func (u FrameUnit) String() string {
	if u == FrameRange {
		return "RANGE"
	}
	return "ROWS"
}

// BoundType enumerates window frame bound kinds.
type BoundType uint8

// Frame bound kinds, in increasing frame order.
const (
	BoundUnboundedPreceding BoundType = iota
	BoundPreceding
	BoundCurrentRow
	BoundFollowing
	BoundUnboundedFollowing
)

// FrameBound is one endpoint of a window frame.
type FrameBound struct {
	Type   BoundType
	Offset Expr // for BoundPreceding / BoundFollowing
}

// Frame is a window frame specification.
type Frame struct {
	Unit  FrameUnit
	Start FrameBound
	End   FrameBound
}

// WindowExpr is "func(arg) OVER (PARTITION BY ... ORDER BY ... frame)".
type WindowExpr struct {
	Func      string
	Arg       Expr // nil for COUNT(*) / ROW_NUMBER()
	Star      bool
	Partition []Expr
	Order     []OrderItem
	Frame     *Frame // nil means the SQL default frame
}

func (*ColRef) exprNode()     {}
func (*Const) exprNode()      {}
func (*Bin) exprNode()        {}
func (*Un) exprNode()         {}
func (*IsNull) exprNode()     {}
func (*Case) exprNode()       {}
func (*In) exprNode()         {}
func (*Exists) exprNode()     {}
func (*Like) exprNode()       {}
func (*FuncCall) exprNode()   {}
func (*WindowExpr) exprNode() {}

// Helper constructors keep rewrite-engine code terse.

// Col returns a column reference.
func Col(table, name string) *ColRef { return &ColRef{Table: table, Name: name} }

// Lit returns a literal.
func Lit(v types.Value) *Const { return &Const{V: v} }

// And conjoins non-nil expressions; it returns nil when all are nil.
func And(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Bin{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Or disjoins non-nil expressions; it returns nil when all are nil.
func Or(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Bin{Op: OpOr, L: out, R: e}
		}
	}
	return out
}

// Cmp returns a comparison expression.
func Cmp(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Conjuncts flattens an expression tree into its top-level AND-ed parts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Disjuncts flattens an expression tree into its top-level OR-ed parts.
func Disjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == OpOr {
		return append(Disjuncts(b.L), Disjuncts(b.R)...)
	}
	return []Expr{e}
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ColRef:
		c := *e
		return &c
	case *Const:
		c := *e
		return &c
	case *Param:
		c := *e
		return &c
	case *Bin:
		return &Bin{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *Un:
		return &Un{Op: e.Op, E: CloneExpr(e.E)}
	case *IsNull:
		return &IsNull{E: CloneExpr(e.E), Neg: e.Neg}
	case *Case:
		out := &Case{Whens: make([]When, len(e.Whens)), Else: CloneExpr(e.Else)}
		for i, w := range e.Whens {
			out.Whens[i] = When{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)}
		}
		return out
	case *In:
		out := &In{E: CloneExpr(e.E), Neg: e.Neg, Sub: CloneStmt(e.Sub)}
		for _, x := range e.List {
			out.List = append(out.List, CloneExpr(x))
		}
		return out
	case *Exists:
		return &Exists{Sub: CloneStmt(e.Sub), Neg: e.Neg}
	case *Like:
		return &Like{E: CloneExpr(e.E), Pattern: CloneExpr(e.Pattern), Neg: e.Neg}
	case *FuncCall:
		out := &FuncCall{Name: e.Name, Distinct: e.Distinct, Star: e.Star}
		for _, a := range e.Args {
			out.Args = append(out.Args, CloneExpr(a))
		}
		return out
	case *WindowExpr:
		out := &WindowExpr{Func: e.Func, Arg: CloneExpr(e.Arg), Star: e.Star}
		for _, p := range e.Partition {
			out.Partition = append(out.Partition, CloneExpr(p))
		}
		for _, o := range e.Order {
			out.Order = append(out.Order, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
		}
		if e.Frame != nil {
			f := *e.Frame
			f.Start.Offset = CloneExpr(e.Frame.Start.Offset)
			f.End.Offset = CloneExpr(e.Frame.End.Offset)
			out.Frame = &f
		}
		return out
	}
	panic("sqlast: CloneExpr: unknown node")
}

// VisitExprs walks e depth-first, calling f on every sub-expression.
// Subquery bodies are not entered.
func VisitExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *Bin:
		VisitExprs(e.L, f)
		VisitExprs(e.R, f)
	case *Un:
		VisitExprs(e.E, f)
	case *IsNull:
		VisitExprs(e.E, f)
	case *Case:
		for _, w := range e.Whens {
			VisitExprs(w.Cond, f)
			VisitExprs(w.Then, f)
		}
		VisitExprs(e.Else, f)
	case *In:
		VisitExprs(e.E, f)
		for _, x := range e.List {
			VisitExprs(x, f)
		}
	case *Like:
		VisitExprs(e.E, f)
		VisitExprs(e.Pattern, f)
	case *FuncCall:
		for _, a := range e.Args {
			VisitExprs(a, f)
		}
	case *WindowExpr:
		VisitExprs(e.Arg, f)
		for _, p := range e.Partition {
			VisitExprs(p, f)
		}
		for _, o := range e.Order {
			VisitExprs(o.Expr, f)
		}
	}
}

// MapColRefs returns a copy of e with every column reference replaced by
// f's result. Subquery bodies are not entered.
func MapColRefs(e Expr, f func(*ColRef) Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ColRef:
		return f(e)
	case *Const, *Param:
		return e
	case *Bin:
		return &Bin{Op: e.Op, L: MapColRefs(e.L, f), R: MapColRefs(e.R, f)}
	case *Un:
		return &Un{Op: e.Op, E: MapColRefs(e.E, f)}
	case *IsNull:
		return &IsNull{E: MapColRefs(e.E, f), Neg: e.Neg}
	case *Case:
		out := &Case{Whens: make([]When, len(e.Whens)), Else: MapColRefs(e.Else, f)}
		for i, w := range e.Whens {
			out.Whens[i] = When{Cond: MapColRefs(w.Cond, f), Then: MapColRefs(w.Then, f)}
		}
		return out
	case *In:
		out := &In{E: MapColRefs(e.E, f), Neg: e.Neg, Sub: e.Sub}
		for _, x := range e.List {
			out.List = append(out.List, MapColRefs(x, f))
		}
		return out
	case *Exists:
		return e
	case *Like:
		return &Like{E: MapColRefs(e.E, f), Pattern: MapColRefs(e.Pattern, f), Neg: e.Neg}
	case *FuncCall:
		out := &FuncCall{Name: e.Name, Distinct: e.Distinct, Star: e.Star}
		for _, a := range e.Args {
			out.Args = append(out.Args, MapColRefs(a, f))
		}
		return out
	case *WindowExpr:
		out := &WindowExpr{Func: e.Func, Arg: MapColRefs(e.Arg, f), Star: e.Star, Frame: e.Frame}
		for _, p := range e.Partition {
			out.Partition = append(out.Partition, MapColRefs(p, f))
		}
		for _, o := range e.Order {
			out.Order = append(out.Order, OrderItem{Expr: MapColRefs(o.Expr, f), Desc: o.Desc})
		}
		return out
	}
	panic("sqlast: MapColRefs: unknown node")
}

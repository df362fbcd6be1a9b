// Package sqlparser parses the SQL subset used throughout this system:
// WITH, SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, comma joins and
// ANSI [LEFT] JOIN ... ON, UNION [ALL], IN (list|subquery), EXISTS, CASE,
// BETWEEN, scalar and aggregate functions, and SQL/OLAP window functions
// with ROWS/RANGE frames — everything the paper's queries, generated
// cleansing templates, and rewrites require.
package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/types"
)

// Parse parses a single statement, requiring EOF (or a trailing
// semicolon) afterwards.
func Parse(src string) (sqlast.Stmt, error) {
	p := &parser{lex: sqllex.New(src)}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseExpr parses a standalone scalar expression (used by the SQL-TS rule
// parser for conditions and by tests).
func ParseExpr(src string) (sqlast.Expr, error) {
	p := &parser{lex: sqllex.New(src)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return e, nil
}

type parser struct {
	lex *sqllex.Lexer
}

func (p *parser) expectEOF() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	if t.Kind == sqllex.TokOp && t.Text == ";" {
		t, err = p.lex.Next()
		if err != nil {
			return err
		}
	}
	if t.Kind != sqllex.TokEOF {
		return p.lex.Errorf(t.Pos, "unexpected %q after statement", t.Text)
	}
	return nil
}

func (p *parser) peek() (sqllex.Token, error) { return p.lex.Peek() }

func (p *parser) next() (sqllex.Token, error) { return p.lex.Next() }

// peekKeyword reports whether the next token is the given (lower-case)
// keyword.
func (p *parser) peekKeyword(kw string) bool {
	t, err := p.lex.Peek()
	if err != nil {
		return false
	}
	return t.Kind == sqllex.TokIdent && t.Text == kw
}

// acceptKeyword consumes the next token when it matches kw.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.lex.Next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.Kind != sqllex.TokIdent || t.Text != kw {
		return p.lex.Errorf(t.Pos, "expected %s, found %q", strings.ToUpper(kw), t.Text)
	}
	return nil
}

func (p *parser) peekOp(op string) bool {
	t, err := p.lex.Peek()
	if err != nil {
		return false
	}
	return t.Kind == sqllex.TokOp && t.Text == op
}

func (p *parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.lex.Next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.Kind != sqllex.TokOp || t.Text != op {
		return p.lex.Errorf(t.Pos, "expected %q, found %q", op, t.Text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t, err := p.next()
	if err != nil {
		return "", err
	}
	if t.Kind != sqllex.TokIdent {
		return "", p.lex.Errorf(t.Pos, "expected identifier, found %q", t.Text)
	}
	return t.Text, nil
}

// ---- statements ----

func (p *parser) parseStmt() (sqlast.Stmt, error) {
	var with []sqlast.CTE
	if p.acceptKeyword("with") {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("as"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			with = append(with, sqlast.CTE{Name: name, Query: q})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	s, err := p.parseSetExpr()
	if err != nil {
		return nil, err
	}
	if len(with) == 0 {
		return s, nil
	}
	if sel, ok := s.(*sqlast.SelectStmt); ok && len(sel.With) == 0 {
		sel.With = with
		return sel, nil
	}
	// WITH over a union: wrap so the CTE scope covers the whole body.
	return &sqlast.SelectStmt{
		With:  with,
		Items: []sqlast.SelectItem{{Star: true}},
		From:  []sqlast.TableExpr{&sqlast.SubqueryTable{Query: s, Alias: "__with_body"}},
	}, nil
}

func (p *parser) parseSetExpr() (sqlast.Stmt, error) {
	left, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.SetOpType
		switch {
		case p.acceptKeyword("union"):
			op = sqlast.SetUnion
		case p.acceptKeyword("except"):
			op = sqlast.SetExcept
		case p.acceptKeyword("intersect"):
			op = sqlast.SetIntersect
		default:
			return left, nil
		}
		all := false
		if op == sqlast.SetUnion {
			all = p.acceptKeyword("all")
		}
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		left = &sqlast.SetOpStmt{Op: op, All: all, L: left, R: right}
	}
}

func (p *parser) parseSelectCore() (sqlast.Stmt, error) {
	if p.peekOp("(") {
		p.next()
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &sqlast.SelectStmt{}
	sel.Distinct = p.acceptKeyword("distinct")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("from") {
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, te)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderList()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = items
	}
	if p.acceptKeyword("limit") {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.Kind != sqllex.TokNumber {
			return nil, p.lex.Errorf(t.Pos, "expected LIMIT count, found %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.lex.Errorf(t.Pos, "bad LIMIT count: %v", err)
		}
		sel.Limit = &n
	}
	if p.acceptKeyword("offset") {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.Kind != sqllex.TokNumber {
			return nil, p.lex.Errorf(t.Pos, "expected OFFSET count, found %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.lex.Errorf(t.Pos, "bad OFFSET count: %v", err)
		}
		sel.Offset = &n
	}
	return sel, nil
}

func (p *parser) parseOrderList() ([]sqlast.OrderItem, error) {
	var items []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := sqlast.OrderItem{Expr: e}
		if p.acceptKeyword("desc") {
			it.Desc = true
		} else {
			p.acceptKeyword("asc")
		}
		items = append(items, it)
		if !p.acceptOp(",") {
			break
		}
	}
	return items, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.acceptOp("*") {
		return sqlast.SelectItem{Star: true}, nil
	}
	// Look for "ident.*".
	t, err := p.peek()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	if t.Kind == sqllex.TokIdent && !isReserved(t.Text) {
		// Tentatively detect "ident . *" with a sub-lexer? The lexer has
		// single-token lookahead, so parse the expression and recover the
		// qualified-star case before the expression parser runs: consume
		// ident, then check for ".*".
		name := t.Text
		p.next()
		if p.peekOp(".") {
			p.next()
			if p.acceptOp("*") {
				return sqlast.SelectItem{Star: true, StarTable: name}, nil
			}
			col, err := p.expectIdent()
			if err != nil {
				return sqlast.SelectItem{}, err
			}
			e, err := p.continueExpr(&sqlast.ColRef{Table: name, Name: col})
			if err != nil {
				return sqlast.SelectItem{}, err
			}
			return p.finishSelectItem(e)
		}
		e, err := p.continuePrimary(name)
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		e, err = p.continueExpr(e)
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		return p.finishSelectItem(e)
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	return p.finishSelectItem(e)
}

func (p *parser) finishSelectItem(e sqlast.Expr) (sqlast.SelectItem, error) {
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		a, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if t, err := p.peek(); err == nil && t.Kind == sqllex.TokIdent && !isReserved(t.Text) {
		p.next()
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseTableExpr() (sqlast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt sqlast.JoinType
		switch {
		case p.peekKeyword("join"):
			p.next()
			jt = sqlast.JoinInner
		case p.peekKeyword("inner"):
			p.next()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = sqlast.JoinInner
		case p.peekKeyword("left"):
			p.next()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = sqlast.JoinLeft
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.JoinExpr{Type: jt, Left: left, Right: right, On: on}
	}
}

func (p *parser) parseTablePrimary() (sqlast.TableExpr, error) {
	if p.acceptOp("(") {
		q, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		alias := ""
		p.acceptKeyword("as")
		if t, err := p.peek(); err == nil && t.Kind == sqllex.TokIdent && !isReserved(t.Text) {
			p.next()
			alias = t.Text
		}
		return &sqlast.SubqueryTable{Query: q, Alias: alias}, nil
	}
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	name := ""
	switch t.Kind {
	case sqllex.TokIdent:
		name = t.Text
	case sqllex.TokParam:
		name = "$" + t.Text
	default:
		return nil, p.lex.Errorf(t.Pos, "expected table name, found %q", t.Text)
	}
	te := &sqlast.TableName{Name: name}
	p.acceptKeyword("as")
	if nt, err := p.peek(); err == nil && nt.Kind == sqllex.TokIdent && !isReserved(nt.Text) {
		p.next()
		te.Alias = nt.Text
	}
	return te, nil
}

// isReserved lists keywords that terminate an implicit alias position.
func isReserved(kw string) bool {
	switch kw {
	case "select", "from", "where", "group", "having", "order", "limit",
		"union", "on", "join", "inner", "left", "outer", "as", "and", "or",
		"not", "in", "is", "between", "case", "when", "then", "else", "end",
		"exists", "asc", "desc", "with", "distinct", "over", "partition",
		"rows", "range", "like", "except", "intersect", "offset",
		"interval", "timestamp", "null", "true", "false":
		return true
	}
	return false
}

// ---- expressions (precedence climbing) ----

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

// continueExpr resumes precedence climbing after a primary has already
// been consumed (used by the select-item fast path for qualified stars).
func (p *parser) continueExpr(left sqlast.Expr) (sqlast.Expr, error) {
	e, err := p.parsePostfixFrom(left)
	if err != nil {
		return nil, err
	}
	e, err = p.parseMulFrom(e)
	if err != nil {
		return nil, err
	}
	e, err = p.parseAddFrom(e)
	if err != nil {
		return nil, err
	}
	e, err = p.parseCmpFrom(e)
	if err != nil {
		return nil, err
	}
	e, err = p.parseAndFrom(e)
	if err != nil {
		return nil, err
	}
	return p.parseOrFrom(e)
}

func (p *parser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	return p.parseOrFrom(l)
}

func (p *parser) parseOrFrom(l sqlast.Expr) (sqlast.Expr, error) {
	for p.acceptKeyword("or") || p.acceptOp("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Bin{Op: sqlast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	return p.parseAndFrom(l)
}

func (p *parser) parseAndFrom(l sqlast.Expr) (sqlast.Expr, error) {
	for p.acceptKeyword("and") || p.acceptOp("&&") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Bin{Op: sqlast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Un{Op: sqlast.OpNot, E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]sqlast.BinOp{
	"=": sqlast.OpEq, "<>": sqlast.OpNe, "!=": sqlast.OpNe,
	"<": sqlast.OpLt, "<=": sqlast.OpLe, ">": sqlast.OpGt, ">=": sqlast.OpGe,
}

func (p *parser) parseCmp() (sqlast.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return p.parseCmpFrom(l)
}

func (p *parser) parseCmpFrom(l sqlast.Expr) (sqlast.Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.Kind == sqllex.TokOp {
		if op, ok := cmpOps[t.Text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &sqlast.Bin{Op: op, L: l, R: r}, nil
		}
	}
	return p.parsePostfixFrom(l)
}

// parsePostfixFrom handles IS [NOT] NULL, [NOT] IN, BETWEEN.
func (p *parser) parsePostfixFrom(l sqlast.Expr) (sqlast.Expr, error) {
	switch {
	case p.acceptKeyword("is"):
		neg := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &sqlast.IsNull{E: l, Neg: neg}, nil
	case p.peekKeyword("not") || p.peekKeyword("in") || p.peekKeyword("between") || p.peekKeyword("like"):
		neg := p.acceptKeyword("not")
		switch {
		case p.acceptKeyword("like"):
			pat, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &sqlast.Like{E: l, Pattern: pat, Neg: neg}, nil
		case p.acceptKeyword("in"):
			return p.parseInTail(l, neg)
		case p.acceptKeyword("between"):
			lo, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			between := sqlast.And(
				sqlast.Cmp(sqlast.OpGe, l, lo),
				sqlast.Cmp(sqlast.OpLe, sqlast.CloneExpr(l), hi),
			)
			if neg {
				return &sqlast.Un{Op: sqlast.OpNot, E: between}, nil
			}
			return between, nil
		case neg:
			// A bare NOT after an operand is not valid ("a NOT b").
			t, _ := p.peek()
			return nil, p.lex.Errorf(t.Pos, "expected IN, BETWEEN, or LIKE after NOT")
		}
	}
	return l, nil
}

func (p *parser) parseInTail(l sqlast.Expr, neg bool) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.peekKeyword("select") || p.peekKeyword("with") {
		sub, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.In{E: l, Sub: sub, Neg: neg}, nil
	}
	var list []sqlast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.In{E: l, List: list, Neg: neg}, nil
}

func (p *parser) parseAdd() (sqlast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	return p.parseAddFrom(l)
}

func (p *parser) parseAddFrom(l sqlast.Expr) (sqlast.Expr, error) {
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &sqlast.Bin{Op: sqlast.OpAdd, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &sqlast.Bin{Op: sqlast.OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (sqlast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseMulFrom(l)
}

func (p *parser) parseMulFrom(l sqlast.Expr) (sqlast.Expr, error) {
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &sqlast.Bin{Op: sqlast.OpMul, L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &sqlast.Bin{Op: sqlast.OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold only plain numeric literals into negative constants; the
		// general folding lives in the planner, and folding here would
		// break print→parse stability for other kinds (e.g. -NULL).
		if c, ok := e.(*sqlast.Const); ok && (c.V.Kind() == types.KindInt || c.V.Kind() == types.KindFloat) {
			if v, err := types.Arith(types.OpSub, types.NewInt(0), c.V); err == nil {
				return &sqlast.Const{V: v}, nil
			}
		}
		return &sqlast.Un{Op: sqlast.OpNeg, E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case sqllex.TokNumber:
		return p.numberOrInterval(t)
	case sqllex.TokString:
		return sqlast.Lit(types.NewString(t.Text)), nil
	case sqllex.TokParam:
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 || n > sqlast.MaxParams || strconv.Itoa(n) != t.Text {
			return nil, p.lex.Errorf(t.Pos, "bad placeholder $%s: want $1 … $%d", t.Text, sqlast.MaxParams)
		}
		return &sqlast.Param{N: n}, nil
	case sqllex.TokOp:
		if t.Text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.lex.Errorf(t.Pos, "unexpected %q in expression", t.Text)
	case sqllex.TokIdent:
		switch t.Text {
		case "null":
			return sqlast.Lit(types.Null), nil
		case "true":
			return sqlast.Lit(types.NewBool(true)), nil
		case "false":
			return sqlast.Lit(types.NewBool(false)), nil
		case "case":
			return p.parseCase()
		case "exists":
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.Exists{Sub: sub}, nil
		case "timestamp":
			lt, err := p.next()
			if err != nil {
				return nil, err
			}
			if lt.Kind != sqllex.TokString {
				return nil, p.lex.Errorf(lt.Pos, "expected string after TIMESTAMP")
			}
			v, err := parseTimestamp(lt.Text)
			if err != nil {
				return nil, p.lex.Errorf(lt.Pos, "bad timestamp %q: %v", lt.Text, err)
			}
			return sqlast.Lit(v), nil
		case "interval":
			lt, err := p.next()
			if err != nil {
				return nil, err
			}
			if lt.Kind != sqllex.TokString && lt.Kind != sqllex.TokNumber {
				return nil, p.lex.Errorf(lt.Pos, "expected quantity after INTERVAL")
			}
			n, err := strconv.ParseInt(strings.TrimSpace(lt.Text), 10, 64)
			if err != nil {
				return nil, p.lex.Errorf(lt.Pos, "bad interval quantity %q", lt.Text)
			}
			ut, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			usec, ok := unitUsec(ut)
			if !ok {
				return nil, p.lex.Errorf(lt.Pos, "unknown interval unit %q", ut)
			}
			return sqlast.Lit(types.NewInterval(n * usec)), nil
		}
		return p.continuePrimary(t.Text)
	}
	return nil, p.lex.Errorf(t.Pos, "unexpected token in expression")
}

// continuePrimary finishes a primary that begins with an identifier that
// has already been consumed: a column reference, a qualified reference, or
// a function call (optionally windowed).
func (p *parser) continuePrimary(name string) (sqlast.Expr, error) {
	if p.acceptOp("(") {
		return p.parseCallTail(name)
	}
	if p.acceptOp(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.ColRef{Table: name, Name: col}, nil
	}
	return &sqlast.ColRef{Name: name}, nil
}

func (p *parser) parseCallTail(name string) (sqlast.Expr, error) {
	fc := &sqlast.FuncCall{Name: name}
	if p.acceptOp("*") {
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	} else {
		if p.acceptKeyword("distinct") {
			fc.Distinct = true
		}
		if !p.acceptOp(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
	}
	if !p.acceptKeyword("over") {
		return fc, nil
	}
	if fc.Distinct {
		return nil, fmt.Errorf("sqlparser: DISTINCT is not supported in window functions")
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	w := &sqlast.WindowExpr{Func: name, Star: fc.Star}
	if len(fc.Args) == 1 {
		w.Arg = fc.Args[0]
	} else if len(fc.Args) > 1 {
		return nil, fmt.Errorf("sqlparser: window function %s takes at most one argument", name)
	}
	if p.acceptKeyword("partition") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.Partition = append(w.Partition, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderList()
		if err != nil {
			return nil, err
		}
		w.Order = items
	}
	if p.peekKeyword("rows") || p.peekKeyword("range") {
		f, err := p.parseFrame()
		if err != nil {
			return nil, err
		}
		w.Frame = f
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) parseFrame() (*sqlast.Frame, error) {
	f := &sqlast.Frame{}
	if p.acceptKeyword("range") {
		f.Unit = sqlast.FrameRange
	} else if err := p.expectKeyword("rows"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("between") {
		start, err := p.parseBound()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		end, err := p.parseBound()
		if err != nil {
			return nil, err
		}
		f.Start, f.End = start, end
		return f, nil
	}
	// Single-bound shorthand: "ROWS n PRECEDING" = BETWEEN n PRECEDING AND
	// CURRENT ROW (SQL standard).
	start, err := p.parseBound()
	if err != nil {
		return nil, err
	}
	f.Start = start
	f.End = sqlast.FrameBound{Type: sqlast.BoundCurrentRow}
	return f, nil
}

func (p *parser) parseBound() (sqlast.FrameBound, error) {
	switch {
	case p.acceptKeyword("unbounded"):
		switch {
		case p.acceptKeyword("preceding"):
			return sqlast.FrameBound{Type: sqlast.BoundUnboundedPreceding}, nil
		case p.acceptKeyword("following"):
			return sqlast.FrameBound{Type: sqlast.BoundUnboundedFollowing}, nil
		}
		t, _ := p.peek()
		return sqlast.FrameBound{}, p.lex.Errorf(t.Pos, "expected PRECEDING or FOLLOWING after UNBOUNDED")
	case p.acceptKeyword("current"):
		if err := p.expectKeyword("row"); err != nil {
			return sqlast.FrameBound{}, err
		}
		return sqlast.FrameBound{Type: sqlast.BoundCurrentRow}, nil
	}
	off, err := p.parseAdd()
	if err != nil {
		return sqlast.FrameBound{}, err
	}
	switch {
	case p.acceptKeyword("preceding"):
		return sqlast.FrameBound{Type: sqlast.BoundPreceding, Offset: off}, nil
	case p.acceptKeyword("following"):
		return sqlast.FrameBound{Type: sqlast.BoundFollowing, Offset: off}, nil
	}
	t, _ := p.peek()
	return sqlast.FrameBound{}, p.lex.Errorf(t.Pos, "expected PRECEDING or FOLLOWING in frame bound")
}

func (p *parser) parseCase() (sqlast.Expr, error) {
	c := &sqlast.Case{}
	for {
		if err := p.expectKeyword("when"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Then: then})
		if !p.peekKeyword("when") {
			break
		}
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// numberOrInterval turns "5" into an INT and "5 MINS" into an INTERVAL.
func (p *parser) numberOrInterval(t sqllex.Token) (sqlast.Expr, error) {
	if nt, err := p.peek(); err == nil && nt.Kind == sqllex.TokIdent {
		if usec, ok := unitUsec(nt.Text); ok {
			p.next()
			n, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil {
				return nil, p.lex.Errorf(t.Pos, "bad interval quantity %q", t.Text)
			}
			return sqlast.Lit(types.NewInterval(n * usec)), nil
		}
	}
	if strings.Contains(t.Text, ".") {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.lex.Errorf(t.Pos, "bad number %q", t.Text)
		}
		return sqlast.Lit(types.NewFloat(f)), nil
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return nil, p.lex.Errorf(t.Pos, "bad number %q", t.Text)
	}
	return sqlast.Lit(types.NewInt(n)), nil
}

// unitUsec maps a time-unit keyword to microseconds. The paper's rules use
// spellings like "5 mins"; the generated OLAP templates use
// "1 MICROSECOND".
func unitUsec(u string) (int64, bool) {
	switch u {
	case "microsecond", "microseconds", "usec", "usecs":
		return 1, true
	case "second", "seconds", "sec", "secs":
		return 1_000_000, true
	case "minute", "minutes", "min", "mins":
		return 60 * 1_000_000, true
	case "hour", "hours":
		return 3600 * 1_000_000, true
	case "day", "days":
		return 24 * 3600 * 1_000_000, true
	}
	return 0, false
}

func parseTimestamp(s string) (types.Value, error) {
	for _, layout := range []string{
		"2006-01-02 15:04:05.000000",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if ts, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return types.NewTimeFrom(ts), nil
		}
	}
	return types.Null, fmt.Errorf("unrecognized timestamp format")
}

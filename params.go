package repro

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// ErrParams reports placeholder values that do not fit their statement:
// a count other than the statement's highest $n, or a value whose kind
// the compared column does not admit. The server answers it with 400
// bad_request.
var ErrParams = errors.New("repro: bad parameters")

// WithParams binds the statement's $1, $2, … placeholders for Query,
// QueryStream, Explain and Rewrite (Prepared runs take theirs as
// arguments). A value compared with a TIME, INT or FLOAT column is
// coerced to it where that is exact: an RFC 3339 or SQL timestamp
// string to TIME, an integral float to INT, an int to FLOAT.
func WithParams(vals ...Value) QueryOption {
	return func(o *queryOpts) { o.params = vals }
}

// compiled is one statement resolved through the plan cache: the shared
// plan, the binding this execution runs it under, and what callers see
// of the rewrite.
type compiled struct {
	res    *core.Result
	params []types.Value
	info   RewriteInfo
	key    cacheKey
	// start is when compilation began, parse how long parsing took, and
	// compile how long the whole resolution took — on a hit, parse,
	// parameterize, lookup and bind.
	start   time.Time
	parse   time.Duration
	compile time.Duration
}

// compile resolves sql under args through the plan cache. It parses the
// statement, binds the caller's placeholders, and lifts its remaining
// comparison literals into placeholders (sqlast.Parameterize), so every
// statement of one shape shares one entry: a hit binds the values
// without calling the rewriter or the planner. A shape keeps a few plans,
// each for one band of bindings (plan.Binding.Holds); a binding that fits
// none re-plans, and the new plan joins the shape's others. A shape the
// rewrite cannot carry symbolically is marked concrete and compiled with
// its values folded in, keyed by that text. Callers must hold db.mu
// (either side).
func (db *DB) compile(sql string, args []Value, o *queryOpts) (*compiled, error) {
	start := time.Now()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.compileStmt(stmt, start, args, o)
}

// compileStmt is compile of a parsed statement, whose compilation began
// at start. It does not modify stmt.
func (db *DB) compileStmt(stmt sqlast.Stmt, start time.Time, args []Value, o *queryOpts) (*compiled, error) {
	c := &compiled{start: start, parse: time.Since(start)}
	var err error
	if args, err = db.checkParams(stmt, args); err != nil {
		return nil, err
	}
	shape, lifted := sqlast.Parameterize(stmt)
	params := append(append([]types.Value(nil), args...), lifted...)
	c.key = newCacheKey(sqlast.SQL(shape), params, o, db.Catalog.Epoch())
	e, ok := db.cache.lookup(c.key)
	if ok && e.concrete {
		return db.compileConcrete(c, stmt, args, o, true)
	}
	if ok {
		if res, holds := e.plan(params); holds {
			db.cache.count(true)
			return c.bindTo(db, res, params, true), nil
		}
		db.cache.noteReplan()
	}
	db.cache.count(false)
	var bind *plan.Binding
	if len(params) > 0 {
		bind = &plan.Binding{Params: params}
	}
	res, err := db.Rewriter.RewriteStmt(shape, o.rules, o.strategy, bind)
	if err != nil {
		if len(params) > 0 && (errors.Is(err, core.ErrConcrete) || errors.Is(err, eval.ErrUnbound)) {
			db.cache.put(c.key, &planEntry{concrete: true})
			return db.compileConcrete(c, stmt, args, o, false)
		}
		return nil, err
	}
	db.cache.put(c.key, e.with(res))
	return c.bindTo(db, res, params, false), nil
}

// compileConcrete compiles stmt with the caller's values folded in, under
// the text key of that literal statement. count says whether this lookup
// is the statement's counted one.
func (db *DB) compileConcrete(c *compiled, stmt sqlast.Stmt, args []Value, o *queryOpts, count bool) (*compiled, error) {
	lit := sqlast.BindStmt(stmt, args)
	c.key = newCacheKey(sqlast.SQL(lit), nil, o, c.key.epoch)
	e, ok := db.cache.lookup(c.key)
	if count {
		db.cache.count(ok)
	}
	if ok {
		return c.bindTo(db, e.plans[0], nil, true), nil
	}
	res, err := db.Rewriter.RewriteStmt(lit, o.rules, o.strategy, nil)
	if err != nil {
		return nil, err
	}
	db.cache.put(c.key, e.with(res))
	return c.bindTo(db, res, nil, false), nil
}

// bindTo finishes a compilation with plan res under params.
func (c *compiled) bindTo(db *DB, res *core.Result, params []types.Value, hit bool) *compiled {
	c.res, c.params = res, params
	c.info = info(res, params)
	c.info.CacheHit = hit
	c.info.CacheHits, c.info.CacheMisses = db.cache.counters()
	c.compile = time.Since(c.start)
	return c
}

// checkCompiles compiles a statement with n placeholders once, each bound
// to a stand-in of the kind of the column it is compared with, so that
// Prepare reports what a run would — an unknown table, column or rule.
// The plan is not kept: it was costed for no real binding.
func (db *DB) checkCompiles(stmt sqlast.Stmt, n int, o *queryOpts) error {
	kinds := plan.ParamKinds(stmt, db.Catalog)
	stand := make([]types.Value, n)
	for i := range stand {
		stand[i] = standIn(kinds[i+1])
	}
	_, err := db.Rewriter.RewriteStmt(sqlast.BindStmt(stmt, stand), o.rules, o.strategy, nil)
	return err
}

// standIn is a value of kind k — NULL for a kind it has no value for.
func standIn(k Kind) Value {
	switch k {
	case KindInt:
		return types.NewInt(0)
	case KindFloat:
		return types.NewFloat(0)
	case KindString:
		return types.NewString("")
	case KindTime:
		return types.NewTime(0)
	}
	return types.Null
}

// checkParams checks the caller's values against the statement's
// placeholders — one value per $1 … $n — and coerces each to the kind of
// the column it is compared with, where known.
func (db *DB) checkParams(stmt sqlast.Stmt, args []Value) ([]Value, error) {
	n := sqlast.MaxParam(stmt)
	if len(args) != n {
		return nil, fmt.Errorf("%w: the statement has %d placeholders, got %d values", ErrParams, n, len(args))
	}
	if n == 0 {
		return nil, nil
	}
	kinds := plan.ParamKinds(stmt, db.Catalog)
	out := make([]Value, n)
	for i, v := range args {
		k, known := kinds[i+1]
		if !known {
			out[i] = v
			continue
		}
		cv, ok := coerce(v, k)
		if !ok {
			return nil, fmt.Errorf("%w: $%d is compared with a %s column, got %s %s", ErrParams, i+1, k, v.Kind(), v.SQL())
		}
		out[i] = cv
	}
	return out, nil
}

// coerce converts v to kind k where the conversion is exact.
func coerce(v Value, k Kind) (Value, bool) {
	if v.IsNull() || v.Kind() == k {
		return v, true
	}
	switch {
	case k == KindTime && v.Kind() == KindString:
		s := v.Str()
		for _, layout := range []string{time.RFC3339Nano, "2006-01-02 15:04:05.999999", "2006-01-02"} {
			if t, err := time.Parse(layout, s); err == nil {
				return types.NewTimeFrom(t), true
			}
		}
	case k == KindInt && v.Kind() == KindFloat:
		if f := v.Float(); f == float64(int64(f)) {
			return types.NewInt(int64(f)), true
		}
	case k == KindFloat && v.Kind() == KindInt:
		return types.NewFloat(float64(v.Int())), true
	}
	return v, false
}

// paramsLine renders a binding for EXPLAIN, with the band each
// value-dependent placeholder was planned for; "" without placeholders.
func paramsLine(res *core.Result, params []types.Value) string {
	if len(params) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- params:")
	for i, v := range params {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " $%d = %s", i+1, v.SQL())
	}
	b.WriteString("\n")
	if res.Bind != nil {
		for _, bd := range res.Bind.Bands {
			fmt.Fprintf(&b, "-- band %s\n", bd)
		}
	}
	return b.String()
}

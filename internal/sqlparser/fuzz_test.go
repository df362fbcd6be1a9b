package sqlparser

import (
	"math/rand"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/types"
)

// genExpr builds a random expression tree; depth bounds recursion.
func genExpr(rng *rand.Rand, depth int) sqlast.Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return sqlast.Col("", colNames[rng.Intn(len(colNames))])
		case 1:
			return sqlast.Col("t"+string(rune('0'+rng.Intn(3))), colNames[rng.Intn(len(colNames))])
		case 2:
			return sqlast.Lit(types.NewInt(int64(rng.Intn(200) - 100)))
		case 3:
			return sqlast.Lit(types.NewString(randString(rng)))
		case 4:
			return sqlast.Lit(types.NewInterval(int64(rng.Intn(1_000_000)))) // µs
		default:
			return sqlast.Lit(types.Null)
		}
	}
	switch rng.Intn(10) {
	case 0, 1, 2:
		ops := []sqlast.BinOp{
			sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe,
			sqlast.OpAnd, sqlast.OpOr, sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv,
		}
		return &sqlast.Bin{Op: ops[rng.Intn(len(ops))], L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
	case 3:
		if rng.Intn(2) == 0 {
			return &sqlast.Un{Op: sqlast.OpNot, E: genExpr(rng, depth-1)}
		}
		return &sqlast.Un{Op: sqlast.OpNeg, E: genExpr(rng, depth-1)}
	case 4:
		return &sqlast.IsNull{E: genExpr(rng, depth-1), Neg: rng.Intn(2) == 0}
	case 5:
		c := &sqlast.Case{Else: genExpr(rng, depth-1)}
		for i := 0; i <= rng.Intn(2); i++ {
			c.Whens = append(c.Whens, sqlast.When{Cond: genExpr(rng, depth-1), Then: genExpr(rng, depth-1)})
		}
		return c
	case 6:
		in := &sqlast.In{E: genExpr(rng, depth-1), Neg: rng.Intn(2) == 0}
		for i := 0; i <= rng.Intn(3); i++ {
			in.List = append(in.List, genExpr(rng, depth-1))
		}
		return in
	case 7:
		return &sqlast.Like{E: genExpr(rng, depth-1), Pattern: sqlast.Lit(types.NewString(randString(rng))), Neg: rng.Intn(2) == 0}
	case 8:
		fns := []string{"coalesce", "abs", "length", "lower", "upper"}
		fc := &sqlast.FuncCall{Name: fns[rng.Intn(len(fns))]}
		for i := 0; i <= rng.Intn(2); i++ {
			fc.Args = append(fc.Args, genExpr(rng, depth-1))
		}
		return fc
	default:
		return genExpr(rng, depth-1)
	}
}

var colNames = []string{"epc", "rtime", "biz_loc", "reader", "v", "n"}

func randString(rng *rand.Rand) string {
	alphabet := []rune("ab%_' \\xé")
	n := rng.Intn(6)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// genSelect builds a random (syntactically valid) SELECT.
func genSelect(rng *rand.Rand, depth int) *sqlast.SelectStmt {
	s := &sqlast.SelectStmt{Distinct: rng.Intn(4) == 0}
	nItems := 1 + rng.Intn(3)
	for i := 0; i < nItems; i++ {
		it := sqlast.SelectItem{Expr: genExpr(rng, 2)}
		if rng.Intn(2) == 0 {
			it.Alias = "a" + string(rune('0'+i))
		}
		s.Items = append(s.Items, it)
	}
	s.From = []sqlast.TableExpr{&sqlast.TableName{Name: "r", Alias: pick(rng, "", "x")}}
	if depth > 0 && rng.Intn(3) == 0 {
		s.From = append(s.From, &sqlast.SubqueryTable{Query: genSelect(rng, depth-1), Alias: "sq"})
	}
	if rng.Intn(2) == 0 {
		s.Where = genExpr(rng, 3)
	}
	if rng.Intn(4) == 0 {
		s.GroupBy = []sqlast.Expr{sqlast.Col("", "epc")}
		s.Items = []sqlast.SelectItem{{Expr: sqlast.Col("", "epc")}, {Expr: &sqlast.FuncCall{Name: "count", Star: true}}}
	}
	if rng.Intn(4) == 0 {
		s.OrderBy = []sqlast.OrderItem{{Expr: genExpr(rng, 1), Desc: rng.Intn(2) == 0}}
	}
	if rng.Intn(5) == 0 {
		l := int64(rng.Intn(20))
		s.Limit = &l
	}
	return s
}

func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

// Fuzz-style property: any AST we can construct prints to SQL that parses
// back to an AST printing identically. This guards every rewrite the core
// engine emits.
func TestRandomASTPrintParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stmt sqlast.Stmt = genSelect(rng, 2)
		if rng.Intn(5) == 0 {
			stmt = &sqlast.SetOpStmt{
				Op:  sqlast.SetOpType(rng.Intn(3)),
				All: rng.Intn(2) == 0,
				L:   stmt, R: genSelect(rng, 1),
			}
		}
		p1 := sqlast.SQL(stmt)
		re, err := Parse(p1)
		if err != nil {
			t.Fatalf("seed %d: printed SQL does not reparse: %v\nsql: %s", seed, err, p1)
		}
		p2 := sqlast.SQL(re)
		if p1 != p2 {
			t.Fatalf("seed %d: round-trip mismatch\nfirst : %s\nsecond: %s", seed, p1, p2)
		}
	}
}

// Expressions alone, deeper trees.
func TestRandomExprPrintParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 800; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		e := genExpr(rng, 4)
		p1 := sqlast.ExprSQL(e)
		re, err := ParseExpr(p1)
		if err != nil {
			t.Fatalf("seed %d: expr does not reparse: %v\nexpr: %s", seed, err, p1)
		}
		p2 := sqlast.ExprSQL(re)
		if p1 != p2 {
			t.Fatalf("seed %d: expr round-trip mismatch\nfirst : %s\nsecond: %s", seed, p1, p2)
		}
	}
}

// parseSeeds are the fuzz corpus's starting points: the paper's
// queries, the join-back and window shapes rewrites produce, `$n`
// placeholders, and a rule template's `$input` table name.
var parseSeeds = []string{
	"SELECT rtime, reader, biz_loc, biz_step FROM caser WHERE epc = 'urn:epc:1' ORDER BY rtime",
	"SELECT epc, rtime, reader, biz_loc FROM caser WHERE rtime <= TIMESTAMP '2021-03-04 05:06:07.000001'",
	`WITH v1 AS (SELECT biz_loc AS current_loc, rtime, MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_time FROM caser WHERE rtime <= TIMESTAMP '2021-01-01 00:00:00')
	 SELECT l1.loc_desc, AVG(rtime - prev_time) FROM v1, locs l1 WHERE v1.current_loc = l1.gln GROUP BY l1.loc_desc`,
	`SELECT p.manufacturer, COUNT(DISTINCT s.type) FROM caser c, steps s, locs l, epc_info i, product p
	 WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln AND c.epc = i.epc AND i.product = p.product AND c.rtime >= TIMESTAMP '2021-06-01 00:00:00' AND l.site = 'dc 1' GROUP BY p.manufacturer`,
	"SELECT * FROM caser WHERE epc IN (SELECT DISTINCT epc FROM caser WHERE epc = 'e1') AND rtime >= 5 minutes AND rtime <= TIMESTAMP '2021-01-01 00:00:00' + INTERVAL '5' MINUTE",
	"SELECT * FROM caser WHERE epc = $1 AND rtime >= $2 - INTERVAL '300000000' MICROSECOND ORDER BY rtime LIMIT 10",
	"SELECT a FROM t WHERE a > -5 AND b <> 'x' AND c >= 1.5 AND d = TRUE OR e < $3",
	"SELECT epc, rtime FROM $input WHERE epc = 'e'",
	"select a from t where a between $1 and $2 union all select b from u where b = 'k'",
	"SELECT '\x000\x00', -$1, -(a + $2), a FROM t WHERE a = 'x\x00' AND b < $2 * 2 AND c IN ($1, 3)",
}

// FuzzParse feeds arbitrary text to the parser. It must not panic or
// hang; whatever parses must print to text that parses back to the same
// print (a fixed point); and lifting a statement's literals into
// placeholders and binding them back must print the original.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		printed := sqlast.SQL(stmt)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed statement does not parse: %v\n%s", err, printed)
		}
		if p2 := sqlast.SQL(again); p2 != printed {
			t.Fatalf("print→parse→print is not a fixed point:\n%s\n%s", printed, p2)
		}
		if sqlast.MaxParam(stmt) > 0 {
			return
		}
		shape, vals := sqlast.Parameterize(stmt)
		if bound := sqlast.SQL(sqlast.BindStmt(shape, vals)); bound != printed {
			t.Fatalf("parameterize→bind→print differs:\n%s\n%s", printed, bound)
		}
	})
}

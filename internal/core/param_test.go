package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlast"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// TestTheorem1PropertyUnderBindings is Theorem 1 for statement shapes:
// each random interval query is rewritten once with its literals lifted
// into placeholders and planned under one binding (v1), then its plan
// runs under another (v2). Every strategy's rows under v2 must equal the
// naive rewrite of the v2 query written with literals.
func TestTheorem1PropertyUnderBindings(t *testing.T) {
	ruleSets := [][]string{
		{tDup}, {tReader}, {tReplacing}, {tCycle},
		{tDup, tReader}, {tReader, tReplacing}, {tDup, tReader, tReplacing},
		{tDup, tReader, tReplacing, tCycle},
	}
	locs := []string{"locA", "loc1", "loc2", "locB"}
	readers := []string{"readerX", "readerY", "readerZ"}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rows [][5]string
		for e := 0; e < 1+rng.Intn(4); e++ {
			minute := int64(0)
			for i := 0; i < 1+rng.Intn(12); i++ {
				minute += int64(rng.Intn(15))
				rows = append(rows, [5]string{fmt.Sprintf("e%d", e), fmt.Sprint(minute), locs[rng.Intn(len(locs))], readers[rng.Intn(len(readers))], "s"})
			}
		}
		rules := ruleSets[rng.Intn(len(ruleSets))]
		query := func() string {
			lo := int64(rng.Intn(60))
			q := fmt.Sprintf("select * from caser where rtime >= %s and rtime <= %s", minuteTS(lo), minuteTS(lo+int64(rng.Intn(90))))
			if seed%3 == 2 {
				q += fmt.Sprintf(" and biz_loc = '%s'", locs[rng.Intn(len(locs))])
			}
			return q
		}
		q1, q2 := query(), query()
		db := mkReads(t, rows)
		reg := NewRegistry(db)
		defineAll(t, reg, rules...)
		rw := NewRewriter(db, reg)
		want := rewriteRun(t, db, reg, q2, nil, StrategyNaive)

		shape1, v1 := lift(t, q1)
		shape2, v2 := lift(t, q2)
		if sqlast.SQL(shape1) != sqlast.SQL(shape2) {
			t.Fatalf("seed %d: the two queries have different shapes:\n%s\n%s", seed, sqlast.SQL(shape1), sqlast.SQL(shape2))
		}
		for _, strat := range []Strategy{StrategyNaive, StrategyExpanded, StrategyJoinBack, StrategyAuto} {
			r, err := rw.RewriteStmt(shape1, nil, strat, &plan.Binding{Params: v1})
			if err != nil {
				if strat == StrategyExpanded {
					continue
				}
				t.Fatalf("seed %d %v: %v", seed, strat, err)
			}
			for _, mode := range bindModes {
				got := runBound(t, r.Plan, v2, mode)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("seed %d rules %d %v %+v mismatch under a second binding\nshape: %s\ngot:  %v\nwant: %v", seed, len(rules), strat, mode, r.SQL, got, want)
				}
			}
		}
	}
}

// TestRelaxedBoundIsSymbolic checks the expanded rewrite of a lifted
// sequence-key bound: the relaxation is the placeholder shifted by the
// rule's threshold, and binding the planning value prints the literal
// rewrite's text.
func TestRelaxedBoundIsSymbolic(t *testing.T) {
	db := mkReads(t, [][5]string{{"e1", "0", "locA", "r", "s"}})
	reg := NewRegistry(db)
	defineAll(t, reg, tReader)
	rw := NewRewriter(db, reg)
	q := "select * from caser where rtime <= " + minuteTS(60)
	lit, err := rw.RewriteSQL(q, nil, StrategyExpanded)
	if err != nil {
		t.Fatal(err)
	}
	shape, vals := lift(t, q)
	sym, err := rw.RewriteStmt(shape, nil, StrategyExpanded, &plan.Binding{Params: vals})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sym.SQL, "rtime <= $1 + INTERVAL '599999999' MICROSECOND") {
		t.Errorf("relaxed bound is not symbolic:\n%s", sym.SQL)
	}
	if got := sqlast.SQL(sqlast.BindStmt(sym.Stmt, vals)); got != lit.SQL {
		t.Errorf("bound symbolic rewrite differs from the literal one:\n got %s\nwant %s", got, lit.SQL)
	}
}

// bindMode is one way of executing a bound plan: row or vector
// evaluation, serial or parallel, drained eagerly or streamed.
type bindMode struct {
	vec    bool
	par    int
	stream bool
}

var bindModes = []bindMode{{true, 1, false}, {true, 4, false}, {false, 1, false}, {false, 4, false}, {true, 4, true}, {false, 1, true}}

// runBound executes plan under params in one mode and returns its rows,
// rendered and sorted.
func runBound(t *testing.T, plan exec.Node, params []types.Value, m bindMode) []string {
	t.Helper()
	ctx := exec.NewCtx().SetParams(params).SetVectorize(m.vec).SetParallelism(m.par)
	var rows [][]types.Value
	if m.stream {
		st := exec.Open(ctx, plan)
		for {
			batch, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			for _, r := range batch {
				rows = append(rows, append([]types.Value(nil), r...))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		res, err := exec.Run(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			rows = append(rows, r)
		}
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func lift(t *testing.T, q string) (sqlast.Stmt, []types.Value) {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return sqlast.Parameterize(stmt)
}

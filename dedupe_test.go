// Tests for the engine's one hash-key equality: DISTINCT, GROUP BY, the
// set operations, IN sets and hash joins all key values by their sort
// key, so composite keys never run together and INT and FLOAT compare as
// numbers on every hash path, as WHERE's = and the nested-loop join do.
package repro_test

import (
	"fmt"
	"slices"
	"testing"

	"repro"
)

// dedupeDB holds two string pairs that run together when a tuple's values
// are joined with a 0x1f separator, and an INT and a FLOAT column sharing
// the number 1.
func dedupeDB(t *testing.T) *repro.DB {
	t.Helper()
	db := repro.Open()
	str := repro.ColumnDef{Kind: repro.KindString}
	a, b := str, str
	a.Name, b.Name = "a", "b"
	if err := db.CreateTable("s", a, b); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("s",
		[]repro.Value{repro.NewString("x\x1f\x00sy"), repro.NewString("z")},
		[]repro.Value{repro.NewString("x"), repro.NewString("y\x1f\x00sz")},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t1", repro.ColumnDef{Name: "n", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t2", repro.ColumnDef{Name: "f", Kind: repro.KindFloat}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t1", []repro.Value{repro.NewInt(1)}, []repro.Value{repro.NewInt(2)}, []repro.Value{repro.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t2", []repro.Value{repro.NewFloat(1)}, []repro.Value{repro.NewFloat(7)}, []repro.Value{repro.NewFloat(2.5)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// cells renders a result's rows for comparison.
func cells(rows *repro.Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func TestHashKeysAreSortKeys(t *testing.T) {
	db := dedupeDB(t)
	twoRows := []string{"[x\x1f\x00sy z]", "[x y\x1f\x00sz]"}
	one := []string{"[1]"}
	cases := []struct {
		sql  string
		want []string
	}{
		// The crafted string pairs stay two rows on every hash path.
		{"SELECT DISTINCT a, b FROM s", twoRows},
		{"SELECT a, b FROM s GROUP BY a, b", twoRows},
		{"SELECT a, b FROM s UNION SELECT a, b FROM s", twoRows},
		{"SELECT a, b FROM s EXCEPT SELECT a, b FROM s WHERE a = 'none'", twoRows},
		{"SELECT a, b FROM s EXCEPT SELECT a, b FROM s WHERE b = 'z'", twoRows[1:]},
		{"SELECT s1.a, s1.b FROM s s1, s s2 WHERE s1.a = s2.a AND s1.b = s2.b", twoRows},
		// INT 1 and FLOAT 1.0 match on every path, as WHERE's = and the
		// nested-loop join match them. Results keep first-appearance order.
		{"SELECT n FROM t1 WHERE n = 1.0", one},
		{"SELECT t1.n FROM t1, t2 WHERE t1.n <= t2.f AND t1.n >= t2.f", one},
		{"SELECT t1.n FROM t1, t2 WHERE t1.n = t2.f", one},
		{"SELECT n FROM t1 WHERE n IN (1.0, 7.0)", one},
		{"SELECT n FROM t1 WHERE n IN (SELECT f FROM t2)", one},
		{"SELECT n FROM t1 INTERSECT SELECT f FROM t2", one},
		{"SELECT n FROM t1 UNION SELECT f FROM t2", []string{"[1]", "[2]", "[3]", "[7]", "[2.5]"}},
		{"SELECT n FROM t1 EXCEPT SELECT f FROM t2", []string{"[2]", "[3]"}},
	}
	for _, c := range cases {
		for _, par := range []int{1, 4} {
			for _, opts := range [][]repro.QueryOption{{}, {repro.WithRowEval()}} {
				rows, err := db.Query(c.sql, append(opts, repro.WithParallelism(par))...)
				if err != nil {
					t.Fatalf("%s par=%d: %v", c.sql, par, err)
				}
				if got := cells(rows); !slices.Equal(got, c.want) {
					t.Errorf("%s par=%d row-eval=%v: got %q, want %q", c.sql, par, len(opts) > 0, got, c.want)
				}
			}
		}
	}
}

package repro_test

// Tests for the stable error-code surface (Code), the context-accepting
// method variants added for the serving layer, and the
// WithHistogramBuckets observability option.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

func TestCodeMapsSentinelsToStableStrings(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{repro.ErrNoTable, repro.CodeNoTable},
		{repro.ErrUnknownRule, repro.CodeUnknownRule},
		{repro.ErrCanceled, repro.CodeCanceled},
		{repro.ErrOverloaded, repro.CodeOverloaded},
		{repro.ErrResourceExhausted, repro.CodeResourceExhausted},
		{repro.ErrInternal, repro.CodeInternal},
		// Bare context errors classify as canceled even without the
		// engine sentinel in the chain.
		{context.Canceled, repro.CodeCanceled},
		{context.DeadlineExceeded, repro.CodeCanceled},
		// Wrapping must not change the code: Code follows errors.Is.
		{fmt.Errorf("outer: %w", repro.ErrOverloaded), repro.CodeOverloaded},
		{fmt.Errorf("a: %w", fmt.Errorf("b: %w", repro.ErrNoTable)), repro.CodeNoTable},
		// Anything unrecognized is a caller error.
		{errors.New("parse error at line 1"), repro.CodeInvalid},
	}
	for _, tc := range cases {
		if got := repro.Code(tc.err); got != tc.want {
			t.Errorf("Code(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestCodeMatchesLiveErrors pins the mapping against errors the engine
// actually produces, not just the sentinels.
func TestCodeMatchesLiveErrors(t *testing.T) {
	db := repro.Open()
	if _, err := db.Query("SELECT * FROM ghost"); repro.Code(err) != repro.CodeNoTable {
		t.Errorf("missing table: Code = %q (%v)", repro.Code(err), err)
	}
	if _, err := db.Query("SELECT FROM WHERE"); repro.Code(err) != repro.CodeInvalid {
		t.Errorf("parse error: Code = %q (%v)", repro.Code(err), err)
	}
}

// TestContextVariants: the ...Context forms honor an already-canceled
// context, and their non-context wrappers keep working.
func TestContextVariants(t *testing.T) {
	db := repro.Open()
	if err := db.CreateTable("reads",
		repro.ColumnDef{Name: "epc", Kind: repro.KindString},
		repro.ColumnDef{Name: "rtime", Kind: repro.KindTime},
		repro.ColumnDef{Name: "biz_loc", Kind: repro.KindString},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("reads",
		[]repro.Value{repro.NewString("e1"), timeValue(0), repro.NewString("dock")},
		[]repro.Value{repro.NewString("e1"), timeValue(2), repro.NewString("dock")},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRule(`DEFINE dedup ON reads
		AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
		ACTION DELETE B`); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := db.RewriteContext(canceled, "SELECT count(*) FROM reads"); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("RewriteContext(canceled) = %v, want ErrCanceled", err)
	}
	if _, err := db.DryRunRuleContext(canceled, "dedup", 10); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("DryRunRuleContext(canceled) = %v, want ErrCanceled", err)
	}
	if _, err := db.MaterializeCleansedContext(canceled, "reads", "reads_clean", "dedup"); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("MaterializeCleansedContext(canceled) = %v, want ErrCanceled", err)
	}

	// The plain forms are context.Background() wrappers and still work.
	if info, err := db.Rewrite("SELECT count(*) FROM reads"); err != nil || info.SQL() == "" {
		t.Errorf("Rewrite = %+v, %v", info, err)
	}
	if eff, err := db.DryRunRule("dedup", 10); err != nil || eff == nil {
		t.Errorf("DryRunRule = %+v, %v", eff, err)
	}
	// 2 source rows, dedup deletes one → 1 row in the cleansed table.
	if n, err := db.MaterializeCleansed("reads", "reads_clean", "dedup"); err != nil || n != 1 {
		t.Errorf("MaterializeCleansed = %d, %v, want 1 row", n, err)
	}
}

// TestWithHistogramBuckets swaps the latency-histogram bounds at Open
// time and checks the exposition reflects them.
func TestWithHistogramBuckets(t *testing.T) {
	db := repro.Open(repro.WithHistogramBuckets([]float64{0.002, 7.5}))
	if err := db.CreateTable("t", repro.ColumnDef{Name: "a", Kind: repro.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []repro.Value{repro.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{`le="0.002"`, `le="7.5"`, `le="+Inf"`} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing bucket %s", want)
		}
	}
	// Default bounds must be gone from the latency families.
	if strings.Contains(body, `repro_query_duration_seconds_bucket{le="0.0001"}`) {
		t.Error("default bucket bounds still present after WithHistogramBuckets")
	}
}

func TestWithHistogramBucketsRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithHistogramBuckets(nil) did not panic")
		}
	}()
	repro.WithHistogramBuckets(nil)
}

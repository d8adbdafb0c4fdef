package adskip

import (
	"strings"
	"testing"

	"adskip/internal/obs"
)

// TestMetricsThroughFacade checks the public observability surface: every
// query is traced, the shared registry accumulates across tables, and both
// exposition formats render.
func TestMetricsThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	res, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on facade result")
	}
	if res.Trace.Table != "sales" || res.Trace.RowsTotal != 5 {
		t.Fatalf("trace identity: %+v", res.Trace)
	}

	var prom strings.Builder
	if err := db.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`adskip_queries_total{table="sales"} 1`,
		`# TYPE adskip_query_seconds histogram`,
		`adskip_adapt_events_total{column="price",kind="skipper-built",table="sales"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom.String())
		}
	}

	var js strings.Builder
	if err := db.Metrics().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, `"histograms"`, `adskip_queries_total{table=\"sales\"}`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json exposition missing %q:\n%s", want, js.String())
		}
	}

	// Enabling skipping journaled a build record for all three columns.
	recs := db.AdaptationEvents()
	if len(recs) < 3 {
		t.Fatalf("adaptation records = %d, want >= 3 (skipper-built per column)", len(recs))
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if rec.Table != "sales" {
			t.Fatalf("record with wrong table: %+v", rec)
		}
		if rec.Kind == obs.EventSkipperBuilt && rec.Cause == "build" && rec.RowHi == 5 {
			seen[rec.Column] = true
		}
	}
	for _, col := range []string{"id", "price", "city"} {
		if !seen[col] {
			t.Errorf("no build record for column %q: %v", col, recs)
		}
	}
}

// TestExplainAnalyzeThroughFacade runs the one-call convenience path.
func TestExplainAnalyzeThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	lines, res, err := db.ExplainAnalyze("SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !res.Aggs[0].Equal(IntValue(3)) {
		t.Fatalf("result: %+v", res)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"EXPLAIN ANALYZE", "3 rows matched", "pruning:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q:\n%s", want, joined)
		}
	}
	// The SQL route produces the same rendering as rows.
	sres, err := db.Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != len(lines) {
		t.Fatalf("SQL route rows = %d, direct lines = %d", len(sres.Rows), len(lines))
	}
	// Unknown table errors cleanly.
	if _, _, err := db.ExplainAnalyze("SELECT COUNT(*) FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

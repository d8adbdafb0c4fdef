package engine

import (
	"context"
	"strings"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/obs"
)

const ledgerFP = "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?"

// adaptiveLedgerEngine builds a clustered adaptive engine sharing the
// given ledger, sized so a hot range query forces splits quickly.
func adaptiveLedgerEngine(t *testing.T, ledger *obs.Ledger) *Engine {
	t.Helper()
	tb := sortedTable(t, 1<<14)
	e := New(tb, Options{
		Policy: PolicyAdaptive,
		Adaptive: adaptive.Config{
			InitialZoneRows: 4096, MinZoneRows: 64,
		},
		Ledger: ledger,
	})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLedgerSplitProvenance: a hot fingerprinted range query drives the
// adaptive zonemap to split, and every split lands in the ledger with
// full provenance — table, column, cause, and the triggering template.
func TestLedgerSplitProvenance(t *testing.T) {
	ledger := obs.NewLedger(0)
	e := adaptiveLedgerEngine(t, ledger)

	// The build itself is journaled before any query runs.
	recs := ledger.Records()
	if len(recs) != 1 || recs[0].Kind != obs.EventSkipperBuilt || recs[0].Cause != "build" {
		t.Fatalf("build record = %+v, want one skipper-built/build record", recs)
	}
	if recs[0].Table != "t" || recs[0].Column != "a" {
		t.Fatalf("build record provenance = %+v", recs[0])
	}

	ctx := obs.WithTemplate(context.Background(), ledgerFP)
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 5000, 5200)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 12; i++ {
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	var splits []obs.LedgerRecord
	for _, r := range ledger.Records() {
		if r.Kind == obs.EventSplit {
			splits = append(splits, r)
		}
	}
	if len(splits) == 0 {
		t.Fatal("hot range query produced no split records")
	}
	for _, r := range splits {
		if r.Table != "t" || r.Column != "a" {
			t.Fatalf("split record misattributed: %+v", r)
		}
		if r.Cause != "split-gain" {
			t.Fatalf("split cause = %q, want split-gain (%+v)", r.Cause, r)
		}
		if r.Fingerprint != ledgerFP {
			t.Fatalf("split fingerprint = %q, want the triggering template (%+v)", r.Fingerprint, r)
		}
		if r.ZonesAfter <= r.ZonesBefore {
			t.Fatalf("split did not grow the zone count: %+v", r)
		}
		if r.RowHi <= r.RowLo {
			t.Fatalf("split row window empty: %+v", r)
		}
	}

	// The per-table totals fold at append time and remember the splitter.
	tot := ledger.Totals("t")
	if tot.Splits != uint64(len(splits)) {
		t.Fatalf("totals.Splits = %d, want %d", tot.Splits, len(splits))
	}
	if tot.LastSplitCause != ledgerFP {
		t.Fatalf("LastSplitCause = %q, want the fingerprint", tot.LastSplitCause)
	}

	// The per-kind event counter tracked every append.
	var counted int64
	for _, kind := range []string{"skipper-built", "split"} {
		counted += e.Metrics().Counter("adskip_adapt_events_total", "",
			obs.L("table", "t"), obs.L("column", "a"), obs.L("kind", kind)).Load()
	}
	if counted < int64(1+len(splits)) {
		t.Fatalf("adskip_adapt_events_total = %d, want >= %d", counted, 1+len(splits))
	}
}

// TestExplainAnalyzeWhyNotSkipped: a predicate that straddles a zone
// boundary leaves unpruned zones, and the trace classifies each miss —
// rendered as the "not skipped" reason line.
func TestExplainAnalyzeWhyNotSkipped(t *testing.T) {
	e := adaptiveLedgerEngine(t, obs.NewLedger(0))
	// Straddles the first 4096-row zone's upper bound mid-zone: the
	// touched zones genuinely overlap the predicate boundary.
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 3000, 5000)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	_, res, err := e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Trace.Predicates[0]
	if p.NotSkippedOverlap == 0 {
		t.Fatalf("no overlap misses classified: %+v", p)
	}
	rendered := strings.Join(AnalyzeLines(res, false), "\n")
	if !strings.Contains(rendered, "not skipped:") || !strings.Contains(rendered, "bounds-overlap") {
		t.Fatalf("reason line missing from rendering:\n%s", rendered)
	}
}

// TestAdaptationROICreditsAndDebits: after convergence the ROI row
// credits the skipped rows, debits probes and maintenance, and nets out
// positive for a well-behaved hot range.
func TestAdaptationROICreditsAndDebits(t *testing.T) {
	e := adaptiveLedgerEngine(t, obs.NewLedger(0))
	ctx := obs.WithTemplate(context.Background(), ledgerFP)
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 5000, 5200)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 12; i++ {
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	rois := e.AdaptationROI(16)
	if len(rois) != 1 {
		t.Fatalf("ROI rows = %d, want 1", len(rois))
	}
	r := rois[0]
	if r.Table != "t" || r.Column != "a" || r.Kind == "" {
		t.Fatalf("ROI identity: %+v", r)
	}
	if r.RowsSkipped == 0 || r.ZoneProbes == 0 {
		t.Fatalf("ROI has no activity: %+v", r)
	}
	if r.BytesSkipped != r.RowsSkipped*8 {
		t.Fatalf("BytesSkipped = %d, want rows*8 = %d", r.BytesSkipped, r.RowsSkipped*8)
	}
	if r.MaintEvents == 0 || r.MaintZones == 0 {
		t.Fatalf("splits happened but maintenance was never debited: %+v", r)
	}
	if r.NetRows <= 0 {
		t.Fatalf("hot range should net positive: %+v", r)
	}
	if r.CandidateRows == 0 {
		t.Fatalf("candidate-row join from engine counters missing: %+v", r)
	}
}

// TestAdaptationROIDeadZones: metadata that is probed but never prunes
// is pure overhead, and the ROI row must surface it — count plus
// bounded per-zone detail.
func TestAdaptationROIDeadZones(t *testing.T) {
	// Column "b" is uniform random, so every zone's hull spans nearly the
	// whole domain: a narrow predicate overlaps every zone (no prune) yet
	// covers none (no short-circuit) — all probes are misses.
	tb := buildTable(t, 4096, 1)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: adaptive.Config{
		InitialZoneRows: 1024, MinZoneRows: 1024,
	}, Ledger: obs.NewLedger(0)})
	if err := e.EnableSkipping("b"); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Where: expr.And(intPred("b", expr.Between, 400, 420)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	rois := e.AdaptationROI(2)
	if len(rois) != 1 {
		t.Fatalf("ROI rows = %d, want 1", len(rois))
	}
	r := rois[0]
	if r.DeadZones != r.Zones || r.DeadZones == 0 {
		t.Fatalf("dead zones = %d of %d, want every zone dead", r.DeadZones, r.Zones)
	}
	if len(r.DeadZoneDetail) != 2 {
		t.Fatalf("detail entries = %d, want the maxDead cap of 2", len(r.DeadZoneDetail))
	}
	for _, z := range r.DeadZoneDetail {
		if z.Hits != 0 || z.Misses == 0 || z.Hi <= z.Lo {
			t.Fatalf("dead-zone detail malformed: %+v", z)
		}
	}
	// With detail disabled the counts survive.
	r0 := e.AdaptationROI(0)[0]
	if r0.DeadZones != r.DeadZones || r0.DeadZoneDetail != nil {
		t.Fatalf("maxDead=0: %+v", r0)
	}
}

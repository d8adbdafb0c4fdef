package engine

import (
	"context"
	"fmt"

	"adskip/internal/obs"
)

// ExplainAnalyze executes q and renders the observed plan: per-phase wall
// clock timings (plan → metadata probe → scan → feedback) and, per
// predicate column, the probe's estimated pruning against what execution
// actually observed. Unlike Explain, the query really runs — the output
// reports actuals, and adaptive skippers receive their normal feedback,
// so repeating an EXPLAIN ANALYZE shows the structure converging.
//
// The returned result is the executed query's result (rows, aggregates,
// stats, trace), so callers pay for one execution, not two.
func (e *Engine) ExplainAnalyze(q Query) ([]string, *Result, error) {
	return e.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext is ExplainAnalyze under a caller context. The
// workload and adaptation-ledger footers are the shard manager's: they
// describe the logical table, not one engine.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q Query) ([]string, *Result, error) {
	res, err := e.QueryContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	return AnalyzeLines(res, true), res, nil
}

// AnalyzeLines renders an executed query's trace in EXPLAIN ANALYZE form.
// Timings are omitted when withTimings is false (golden tests assert on
// the deterministic remainder).
func AnalyzeLines(res *Result, withTimings bool) []string {
	tr := res.Trace
	if tr == nil {
		return []string{"no trace recorded"}
	}
	out := []string{fmt.Sprintf("EXPLAIN ANALYZE: table %q (%d rows), %d rows matched", tr.Table, tr.RowsTotal, res.Count)}
	out = append(out, tr.Lines(withTimings)[1:]...)
	out = append(out, analyzeSummary(tr))
	return out
}

// analyzeSummary is the footer: how the table's rows divided into skipped
// vs covered vs scanned, i.e. how much work pruning actually saved.
func analyzeSummary(tr *obs.QueryTrace) string {
	avoided := tr.RowsSkipped + tr.RowsCovered
	return fmt.Sprintf("pruning: %d of %d rows avoided (%.1f%%): %d skipped, %d covered; %d scanned",
		avoided, tr.RowsTotal, summaryPct(avoided, tr.RowsTotal),
		tr.RowsSkipped, tr.RowsCovered, tr.RowsScanned)
}

func summaryPct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

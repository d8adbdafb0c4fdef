package engine

import "adskip/internal/obs"

// History support: the engine contributes its cumulative totals and
// per-column skipping state to an adaptation-timeline sample. Everything
// read here is a resolved atomic handle — no registry lookups — and the
// only lock taken is colMu (never e.mu), so sampling proceeds even while
// a long query holds the engine mutex.

// FillHistory accumulates this engine's row totals into s and appends
// one HistoryColumn per column with resolved metric handles. Counters are
// added (+=) so samples aggregate naturally across the engines of a
// catalog; query, slow-query and error counts are the shard manager's
// (one logical query may run on several engines), and SkipRatio and
// AdaptEvents are left for the caller, which sees the catalog-wide totals
// (ratios do not sum).
func (e *Engine) FillHistory(s *obs.HistorySample) {
	s.RowsScanned += e.m.rowsScanned.Load()
	s.RowsSkipped += e.m.rowsSkipped.Load()
	s.RowsCovered += e.m.rowsCovered.Load()

	table := e.tbl.Name()
	e.colMu.Lock()
	defer e.colMu.Unlock()
	for name, cm := range e.colM {
		skipped := cm.rowsSkipped.Load()
		cand := cm.candidateRows.Load()
		ratio := 0.0
		if skipped+cand > 0 {
			ratio = float64(skipped) / float64(skipped+cand)
		}
		s.Columns = append(s.Columns, obs.HistoryColumn{
			Table:     table,
			Shard:     e.opts.Shard,
			Column:    name,
			SkipRatio: ratio,
			Zones:     cm.zones.Load(),
			Enabled:   cm.enabled.Load() != 0,
		})
	}
}

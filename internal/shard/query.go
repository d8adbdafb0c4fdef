package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/stats"
)

// Query executes q with a background context.
func (m *Manager) Query(q engine.Query) (*engine.Result, error) {
	return m.QueryContext(context.Background(), q)
}

// QueryContext executes one logical query and owns its accounting:
// admission, pprof template labels, the workload sample, the trace and
// slow-query rings, the slow-query counter and log, and the latency
// histogram. A 1-shard table runs q on its engine; see execute for more
// shards.
func (m *Manager) QueryContext(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if q.Limit < 0 {
		return nil, engine.ErrBadLimit
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Workload attribution: only when stats are on AND the context
	// carries a template fingerprint. The common benchmark path (no
	// fingerprint) pays one nil check and one context lookup at most.
	if m.stats != nil {
		if fp := obs.TemplateFromContext(ctx); fp != "" {
			start := time.Now()
			var (
				res *engine.Result
				err error
			)
			pprof.Do(ctx, pprof.Labels(
				"query_template", fp,
				"session", obs.SessionFromContext(ctx),
			), func(ctx context.Context) {
				res, err = m.queryAdmitted(ctx, q)
			})
			if err != nil {
				m.stats.Record(stats.Sample{
					Fingerprint: fp,
					Table:       m.name,
					Err:         true,
					CacheHit:    obs.PlanCachedFromContext(ctx),
					Latency:     time.Since(start),
				})
			}
			return res, err
		}
	}
	return m.queryAdmitted(ctx, q)
}

// queryAdmitted takes one catalog-wide admission slot for the whole
// logical query — the engines run admission-free — then executes it and
// publishes the result's trace.
func (m *Manager) queryAdmitted(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if err := m.admission.Acquire(ctx); err != nil {
		m.errQueries.Add(1)
		return nil, err
	}
	defer m.admission.Release()
	res, err := m.execute(ctx, q)
	if err != nil {
		m.errQueries.Add(1)
		return nil, err
	}
	m.queries.Add(1)
	m.publish(res)
	return res, nil
}

// execute runs q on the shards that can hold matching rows. One shard,
// or one shard left after shard pruning, runs q itself on the caller's
// goroutine and its trace becomes the logical trace. Two or more run the
// rewritten per-shard query in parallel under one shared budget and
// merge.
func (m *Manager) execute(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if len(m.shards) == 1 {
		return m.shards[0].eng.QueryContext(ctx, q)
	}
	start := time.Now()
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}
	tPrune := time.Now()
	targets, pruned := m.pruneShards(q.Where)
	prune := &obs.Span{Name: "shardprune", Start: tPrune, Duration: time.Since(tPrune),
		RowsIn: len(m.shards), RowsOut: len(targets), RowsSkipped: pruned}
	m.mPruned.Add(int64(pruned))
	m.mQueries.Inc()
	if len(targets) == 1 {
		return m.executeOne(ctx, q, start, prune, targets[0], pruned)
	}
	return m.scatterGather(ctx, q, start, prune, targets, pruned)
}

// executeOne runs q inline on the one shard pruning left — only it can
// hold matching rows — and turns that shard's trace into the logical
// trace by adding the shard-prune phase in front.
func (m *Manager) executeOne(ctx context.Context, q engine.Query, start time.Time, prune *obs.Span, target, pruned int) (*engine.Result, error) {
	s := m.shards[target]
	res, err := s.eng.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	m.mScanned.Inc()
	res.Stats.ShardsScanned, res.Stats.ShardsPruned = 1, pruned
	tr := res.Trace
	tr.Start, tr.Total = start, time.Since(start)
	tr.ShardPrune = prune.Duration
	tr.ShardsScanned, tr.ShardsPruned = 1, pruned
	tr.Shard, tr.Shards = 0, []int{s.id}
	tr.RowsTotal = m.NumRows()
	tr.Root.Start, tr.Root.Duration = start, tr.Total
	tr.Root.FinishRows(tr.RowsTotal, res.Count, res.Stats.RowsSkipped)
	tr.Root.AttachFirst(prune)
	return res, nil
}

// scatterGather fans the rewritten query out to the target shards and
// merges. Per-phase accounting mirrors one engine — plan covers the
// per-shard query rewrite, shardprune is the shard phase, probe and
// feedback are those of the shard that finished last, and scan is the
// rest of the scatter+merge wall clock. Each shard's own span tree hangs
// under its "shard N" span.
func (m *Manager) scatterGather(ctx context.Context, q engine.Query, start time.Time, prune *obs.Span, targets []int, pruned int) (*engine.Result, error) {
	total := m.NumRows()
	rw := rewriteQuery(q)
	if q.GroupBy != "" && m.limits.MaxResultRows > 0 {
		// The result cap counts every merged group, so each shard must
		// return all of its groups, not its first LIMIT.
		rw.q.Limit = 0
	}
	root := &obs.Span{Name: "query", Start: start}
	tr := &obs.QueryTrace{Table: m.name, Start: start, Root: root,
		Session:     obs.SessionFromContext(ctx),
		TraceID:     obs.TraceFromContext(ctx),
		Fingerprint: obs.TemplateFromContext(ctx),
		PlanCached:  obs.PlanCachedFromContext(ctx),
		ShardPrune:  prune.Duration}
	// Validation ran before shard pruning and the rewrite after it; both
	// are planning, reported as one phase ahead of the prune.
	tr.Plan = time.Since(start) - prune.Duration
	root.Attach(&obs.Span{Name: "plan", Start: start, Duration: tr.Plan, RowsIn: total})
	root.Attach(prune)
	tr.ShardsScanned, tr.ShardsPruned = len(targets), pruned
	for _, ti := range targets {
		tr.Shards = append(tr.Shards, m.shards[ti].id)
	}

	tScan := time.Now()
	spScan := root.StartChild("scatter")
	budget := m.budget(q)
	partials, err := m.scatter(ctx, targets, rw.q, budget)
	if err != nil {
		return nil, err
	}
	res, groups, err := m.mergeResults(q, rw, targets, partials)
	if err != nil {
		return nil, err
	}
	if q.GroupBy != "" {
		if err := budget.CheckResult(groups); err != nil {
			return nil, err
		}
	}
	scatter := time.Since(tScan)
	res.Stats.ShardsScanned, res.Stats.ShardsPruned = len(targets), pruned
	var slowest *obs.QueryTrace
	for i, p := range partials {
		if p.Trace == nil {
			continue
		}
		sp := &obs.Span{
			Name:     fmt.Sprintf("shard %d", m.shards[targets[i]].id),
			Start:    p.Trace.Start,
			Duration: p.Trace.Total,
		}
		for _, c := range p.Trace.Root.Children() {
			sp.Attach(c)
		}
		spScan.Attach(sp)
		if slowest == nil || p.Trace.Total > slowest.Total {
			slowest = p.Trace
		}
	}
	// The slowest shard set the scatter's wall clock, so its probe and
	// feedback phases are the logical query's; the rest is scan and merge.
	if slowest != nil {
		tr.Probe, tr.Feedback = slowest.Probe, slowest.Feedback
	}
	tr.Scan = max(scatter-tr.Probe-tr.Feedback, 0)
	spScan.FinishDuration(scatter)
	spScan.FinishRows(res.Stats.RowsScanned+res.Stats.RowsCovered, res.Count, res.Stats.RowsSkipped)

	tr.Total = time.Since(start)
	root.FinishDuration(tr.Total)
	root.FinishRows(total, res.Count, res.Stats.RowsSkipped)
	tr.RowsScanned = res.Stats.RowsScanned
	tr.RowsSkipped = res.Stats.RowsSkipped
	tr.RowsCovered = res.Stats.RowsCovered
	tr.ZonesProbed = res.Stats.ZonesProbed
	tr.RowsTotal = total
	tr.Matched = res.Count
	tr.Predicates = mergePredicates(partials)
	res.Trace = tr
	return res, nil
}

// budget starts the logical query's shared resource budget. Engines
// sharing it charge their scanned rows and materialized rows (projection
// rows, gathered ORDER BY matches) to one total, and the merged GROUP BY
// groups are checked once after the merge. An unordered projection whose
// LIMIT fits the result cap cannot exceed it, though its shards together
// may materialize more than LIMIT rows, so it runs without the cap.
func (m *Manager) budget(q engine.Query) *engine.Budget {
	lim := m.limits
	if q.GroupBy == "" && q.OrderBy == "" && q.Limit > 0 && q.Limit <= lim.MaxResultRows {
		lim.MaxResultRows = 0
	}
	return engine.NewBudget(lim)
}

// publish closes the logical query's accounting: latency, the slow-query
// counter, ring and log, the trace ring, and the workload sample.
func (m *Manager) publish(res *engine.Result) {
	tr := res.Trace
	m.mLatency.Observe(tr.Total.Seconds())
	if m.slowThr > 0 && tr.Total >= m.slowThr {
		tr.Slow = true
		m.mSlow.Inc()
		m.slow.Append(tr)
		if m.log != nil {
			// The fingerprint, not the raw text, is the grouping key:
			// parameterized repeats of one template aggregate in the log
			// instead of flooding it with near-duplicates.
			m.log.Warn("slow query",
				"table", tr.Table, "total", tr.Total,
				"rows_scanned", tr.RowsScanned, "rows_skipped", tr.RowsSkipped,
				"shards_scanned", tr.ShardsScanned, "shards_pruned", tr.ShardsPruned,
				"session", tr.Session, "trace_id", tr.TraceID,
				"fingerprint", tr.Fingerprint)
		}
	}
	m.traces.Append(tr)
	if m.stats != nil && tr.Fingerprint != "" {
		m.recordWorkload(res)
	}
}

// bytesPerCode is the storage cost the bytes-scanned estimate charges
// per row examined: every column is dictionary/int64-encoded into 8-byte
// codes, and the kernels read one code per row per filtered column.
const bytesPerCode = 8

// recordWorkload folds one successful attributed query into the stats
// table. Zone IDs feed the zone-touch sketch only with one shard: each
// shard numbers its zones independently.
func (m *Manager) recordWorkload(res *engine.Result) {
	tr := res.Trace
	s := stats.Sample{
		Fingerprint:   tr.Fingerprint,
		Table:         m.name,
		CacheHit:      tr.PlanCached,
		Latency:       tr.Total,
		RowsRead:      int64(res.Stats.RowsScanned),
		RowsReturned:  int64(res.Count),
		RowsSkipped:   int64(res.Stats.RowsSkipped),
		BytesScanned:  int64(res.Stats.RowsScanned) * bytesPerCode,
		ShardsScanned: int64(tr.ShardsScanned),
		ShardsPruned:  int64(tr.ShardsPruned),
		Shards:        tr.Shards,
	}
	for i := range tr.Predicates {
		p := &tr.Predicates[i]
		if !p.Active {
			continue
		}
		s.ZonesRead += int64(p.Windows)
		if len(p.ZoneIDs) > 0 && len(m.shards) == 1 {
			if s.ZoneIDs == nil {
				s.ZoneIDs = make(map[string][]int, len(tr.Predicates))
			}
			s.ZoneIDs[p.Column] = p.ZoneIDs
		}
	}
	if pruned := int64(tr.ZonesProbed) - s.ZonesRead; pruned > 0 {
		s.ZonesPruned = pruned
	}
	m.stats.Record(s)
}

// pruneShards eliminates shards whose observed key bounds cannot
// intersect the predicate's key-column intervals: the same lowering the
// engine uses for zone pruning, applied to one giant zone per shard.
// When every shard is prunable, one shard is kept (the engines'
// unsatisfiable-predicate shortcut produces the correct empty result
// shape, including aggregate NULL/zero semantics, at negligible cost).
// Returned targets are ascending shard indices (0-based).
func (m *Manager) pruneShards(where expr.Conj) (targets []int, pruned int) {
	keyCol, err := m.proto.Column(m.key)
	var cp expr.ColPred
	prune := false
	if err == nil {
		if cp, err = expr.LowerColumn(where, keyCol); err == nil {
			prune = true
		}
	}
	for si, s := range m.shards {
		if !prune {
			targets = append(targets, si)
			continue
		}
		s.mu.Lock()
		seen, lo, hi, nulls := s.seen, s.lo, s.hi, s.nulls
		s.mu.Unlock()
		keep := false
		if cp.NullOnly {
			keep = nulls > 0
		} else {
			keep = seen && cp.R.Overlaps(lo, hi)
		}
		if keep {
			targets = append(targets, si)
		} else {
			pruned++
		}
	}
	if len(targets) == 0 && len(m.shards) > 0 {
		targets = append(targets, 0)
		pruned--
	}
	return targets, pruned
}

// scatter fans the per-shard query out to the target shards on parallel
// workers. Cancellation is cooperative and bidirectional: the caller's
// context cancels every worker (each shard engine checks at its scan
// checkpoints), and the first worker error cancels the rest. The
// shard-scanned counter is incremented per COMPLETED shard scan, so a
// cancelled gather reports exactly the partial work that ran.
func (m *Manager) scatter(ctx context.Context, targets []int, q engine.Query, budget *engine.Budget) ([]*engine.Result, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, si := range targets {
		wg.Add(1)
		go func(i, si int) {
			defer wg.Done()
			res, err := m.shards[si].eng.QueryBudget(cctx, q, budget)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			results[i] = res
			m.mScanned.Inc()
		}(i, si)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		// Prefer the real failure over the cancellations it caused in the
		// other workers.
		if !errors.Is(err, engine.ErrCanceled) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// mergePredicates folds the per-shard predicate traces into one section
// per predicate column: summed probe/window counters, with the lowered
// interval string taken from the first shard (identical across shards —
// all lower the same conjunction).
func mergePredicates(partials []*engine.Result) []obs.PredicateTrace {
	var order []string
	byCol := make(map[string]*obs.PredicateTrace)
	for _, p := range partials {
		if p.Trace == nil {
			continue
		}
		for i := range p.Trace.Predicates {
			pt := &p.Trace.Predicates[i]
			mt, ok := byCol[pt.Column]
			if !ok {
				cp := *pt
				cp.Matched = -1
				byCol[pt.Column] = &cp
				order = append(order, pt.Column)
				continue
			}
			mt.ZonesProbed += pt.ZonesProbed
			mt.Windows += pt.Windows
			mt.CoveredWindows += pt.CoveredWindows
			mt.CandidateRows += pt.CandidateRows
			mt.EstRowsSkipped += pt.EstRowsSkipped
			mt.Active = mt.Active || pt.Active
			if mt.Skipper == "" {
				mt.Skipper = pt.Skipper
			}
		}
	}
	out := make([]obs.PredicateTrace, 0, len(order))
	for _, col := range order {
		out = append(out, *byCol[col])
	}
	return out
}

// Explain renders the plan without running it: a 1-shard table's is its
// engine's plan; with more shards, the shard-prune outcome followed by
// each surviving shard's own plan (real metadata probes, like an engine's
// EXPLAIN).
func (m *Manager) Explain(q engine.Query) ([]string, error) {
	if len(m.shards) == 1 {
		return m.shards[0].eng.Explain(q)
	}
	if q.Limit < 0 {
		return nil, engine.ErrBadLimit
	}
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}
	targets, pruned := m.pruneShards(q.Where)
	out := []string{
		fmt.Sprintf("sharded table %q: %d shards (key %q, %s partitioning), %d rows",
			m.name, len(m.shards), m.key, m.mode, m.NumRows()),
		fmt.Sprintf("shard prune: %d of %d shards eliminated by key bounds, %d to scan",
			pruned, len(m.shards), len(targets)),
	}
	for _, si := range targets {
		s := m.shards[si]
		lines, err := s.eng.Explain(q)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("shard %d (%d rows):", s.id, s.eng.NumRows()))
		for _, l := range lines {
			out = append(out, "  "+l)
		}
	}
	return out, nil
}

// ExplainAnalyze is ExplainAnalyzeContext with a background context.
func (m *Manager) ExplainAnalyze(q engine.Query) ([]string, *engine.Result, error) {
	return m.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext executes q and renders the observed plan: per
// phase wall clock and, per predicate column, estimated against actual
// pruning (a sharded table's trace adds the shardprune phase). The
// footers describe the logical table: the query template's workload
// totals when the query was attributed, and the table's adaptation-ledger
// totals once it has any.
func (m *Manager) ExplainAnalyzeContext(ctx context.Context, q engine.Query) ([]string, *engine.Result, error) {
	res, err := m.QueryContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	lines := engine.AnalyzeLines(res, true)
	if m.stats != nil && res.Trace.Fingerprint != "" {
		if ts, ok := m.stats.Template(res.Trace.Fingerprint); ok {
			lines = append(lines, fmt.Sprintf(
				"workload: template %q — %d calls (%d errors, %d cache hits), mean %.0fµs, p95 %.0fµs, %.1f%% rows skipped",
				ts.Fingerprint, ts.Calls, ts.Errors, ts.CacheHits, ts.MeanUS, ts.P95US, 100*ts.SkipRatio))
		}
	}
	if lt := m.ledger.Totals(m.name); lt.Events > 0 {
		line := fmt.Sprintf("ledger: %d adaptation events (%d splits)", lt.Events, lt.Splits)
		if !lt.LastSplit.IsZero() {
			line += fmt.Sprintf(", last split %s ago by %q",
				time.Since(lt.LastSplit).Round(time.Millisecond), lt.LastSplitCause)
		}
		lines = append(lines, line)
	}
	return lines, res, nil
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// Query is the engine-level query form the SQL planner lowers to: a
// conjunctive filter plus either an aggregate list or a projection.
type Query struct {
	Where  expr.Conj
	Aggs   []Agg    // aggregate query when non-empty
	Select []string // projection query otherwise (empty = count only)
	// GroupBy names a single grouping column. When set, Aggs are computed
	// per group, Select may contain only the grouping column itself, and
	// result rows are one per group in key order (NULL group last).
	GroupBy string
	// OrderBy names a column to sort projected rows by (value order,
	// NULLs last; OrderDesc reverses). Projection queries only.
	OrderBy   string
	OrderDesc bool
	Limit     int // row cap (groups for GROUP BY); 0 = unlimited
}

// ExecStats instruments one query execution; the experiment harness reads
// these to report pruning behavior alongside wall-clock time.
type ExecStats struct {
	RowsScanned  int `json:"rows_scanned"` // rows whose codes were read by a kernel
	RowsSkipped  int `json:"rows_skipped"` // rows pruned by metadata probes
	RowsCovered  int `json:"rows_covered"` // rows short-circuited by covered windows
	ZonesProbed  int `json:"zones_probed"`
	SkippersUsed int `json:"skippers_used"` // predicate columns where skipping participated
	// Shard pruning (sharded tables only; see internal/shard). Shards
	// whose key bounds cannot intersect the predicate are eliminated
	// before any zone metadata is consulted. Zero (omitted on the wire)
	// for unsharded engines.
	ShardsScanned int `json:"shards_scanned,omitempty"`
	ShardsPruned  int `json:"shards_pruned,omitempty"`
}

// Result is a query result.
type Result struct {
	Count   int             // qualifying rows (projection: rows returned)
	Aggs    []storage.Value // one per Query.Aggs
	Columns []string        // projection column names
	// Types holds the logical type of each projected column, aligned with
	// Columns. It feeds the wire encoding (MarshalJSON), which needs
	// column types even for empty result sets.
	Types []storage.Type
	Rows  [][]storage.Value
	Stats ExecStats
	// Trace records the execution's phase timings and per-predicate
	// skipping decisions. Always populated (one allocation per query).
	Trace *obs.QueryTrace
}

// maxPredicateColumns bounds the per-segment evaluation bitmask.
const maxPredicateColumns = 64

// colPlan is the per-predicate-column execution state.
type colPlan struct {
	name    string
	col     *storage.Column
	pred    expr.ColPred
	skipper core.Skipper
	res     core.PruneResult
	active  bool // skipper participated (enabled)
}

// Query plans and executes q, returning the result and feeding
// observations back into any adaptive skippers involved. It is
// QueryContext with a background context: no cancellation, but the
// engine's configured Limits still apply.
func (e *Engine) Query(q Query) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext executes q under ctx's cancellation and the engine's
// per-query resource limits. Cancellation is cooperative: scans check the
// context at least once per checkpointRows rows, so an expired context
// returns ErrCanceled within one checkpoint interval. A query whose
// skipper panics or self-reports corruption quarantines that skipper and
// retries once without it (full scan), preserving correctness.
func (e *Engine) QueryContext(ctx context.Context, q Query) (*Result, error) {
	return e.QueryBudget(ctx, q, nil)
}

// QueryBudget is QueryContext charging b instead of a fresh budget from
// the engine's own Limits (b == nil). A caller that runs one logical
// query on several engines shares one Budget between them, so the rows
// scanned, result rows and deadline are bounded per logical query. A
// quarantine retry charges the same budget: the failed attempt hands its
// rows back and the MaxDuration clock keeps running.
func (e *Engine) QueryBudget(ctx context.Context, q Query, b *Budget) (*Result, error) {
	if q.Limit < 0 {
		return nil, ErrBadLimit
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		e.m.canceled.Inc()
		return nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
	e.m.inflight.Add(1)
	defer e.m.inflight.Add(-1)
	if b == nil {
		b = NewBudget(e.opts.Limits)
	}

	retried := false
	for {
		res, err := e.queryOnce(ctx, q, b)
		if err == nil {
			return res, nil
		}
		if !retried && errors.Is(err, errQuarantineRetry) {
			retried = true
			e.m.retries.Inc()
			continue
		}
		switch {
		case errors.Is(err, ErrCanceled):
			e.m.canceled.Inc()
		case errors.Is(err, ErrBudget):
			e.m.overBudget.Inc()
		}
		return nil, err
	}
}

// queryOnce runs one planning + execution attempt under the engine mutex.
// A panic anywhere in execution is recovered here: skippers that were
// actively pruning are quarantined (the metadata is the prime corruption
// suspect) and the error is marked retryable. A failed attempt hands its
// scanned and result rows back to the budget: the retry (or the caller)
// starts from what the surviving attempts charged.
func (e *Engine) queryOnce(ctx context.Context, q Query, b *Budget) (out *Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qc := &qctx{ctx: ctx, done: ctx.Done(), b: b}
	var plans []colPlan
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, e.handleExecPanic(plans, &panicError{val: r, stack: debug.Stack()})
		}
		if err != nil {
			qc.release()
		}
	}()
	root := obs.NewSpan("query")
	tr := &obs.QueryTrace{Table: e.tbl.Name(), Start: root.Start, Root: root,
		Shard:       e.opts.Shard,
		Session:     obs.SessionFromContext(ctx),
		TraceID:     obs.TraceFromContext(ctx),
		Fingerprint: obs.TemplateFromContext(ctx),
		PlanCached:  obs.PlanCachedFromContext(ctx)}
	e.trace = tr
	defer func() { e.trace = nil }()
	spPlan := root.StartChild("plan")
	e.syncSkippers()
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}

	n := e.tbl.NumRows()
	res := &Result{}

	// Validate aggregates and projections up front.
	accs := make([]*aggAcc, len(q.Aggs))
	aggCols := make([]*storage.Column, len(q.Aggs))
	for i, a := range q.Aggs {
		col, err := e.validateAgg(a)
		if err != nil {
			return nil, err
		}
		accs[i] = newAggAcc(a.Kind, col)
		aggCols[i] = col
	}
	var grp *grouper
	if q.GroupBy != "" {
		gcol, err := e.tbl.Column(q.GroupBy)
		if err != nil {
			return nil, err
		}
		for _, name := range q.Select {
			if name != q.GroupBy {
				return nil, fmt.Errorf("engine: column %q in select list is not the GROUP BY column", name)
			}
		}
		grp = newGrouper(gcol, q.Aggs, aggCols)
	}
	var projCols []*storage.Column
	if grp == nil {
		for _, name := range q.Select {
			col, err := e.tbl.Column(name)
			if err != nil {
				return nil, err
			}
			projCols = append(projCols, col)
			res.Columns = append(res.Columns, name)
			res.Types = append(res.Types, col.Type())
		}
	}
	var orderCol *storage.Column
	if q.OrderBy != "" {
		if grp != nil {
			return nil, fmt.Errorf("engine: ORDER BY with GROUP BY is unsupported (groups come back in key order)")
		}
		if len(projCols) == 0 {
			return nil, fmt.Errorf("engine: ORDER BY requires a projection")
		}
		var err error
		orderCol, err = e.tbl.Column(q.OrderBy)
		if err != nil {
			return nil, err
		}
	}

	tr.Plan = time.Since(tr.Start)
	spPlan.FinishRows(n, 0, 0)

	// A pre-scan checkpoint so planning-heavy queries still honor limits.
	if err := qc.check(0); err != nil {
		return nil, err
	}

	// Lower predicates per column and probe skippers.
	tProbe := time.Now()
	spProbe := root.StartChild("prune")
	var unsat bool
	plans, unsat, err = e.plan(q.Where)
	if err != nil {
		return nil, err
	}
	if len(plans) > maxPredicateColumns {
		return nil, fmt.Errorf("engine: more than %d predicate columns", maxPredicateColumns)
	}
	for i := range plans {
		p := &plans[i]
		res.Stats.ZonesProbed += p.res.ZonesProbed
		res.Stats.RowsSkipped += p.res.RowsSkipped
		if p.active {
			res.Stats.SkippersUsed++
		}
	}
	tr.Probe = time.Since(tProbe)
	spProbe.FinishRows(n, candidateRows(plans), res.Stats.RowsSkipped)
	e.tracePredicates(tr, plans)
	if unsat {
		// A contradiction (or empty interval) on some column: no rows can
		// match. Skippers still observe a zero-work query.
		for i := range plans {
			e.observeTimed(&plans[i], nil)
		}
		out := e.finish(res, accs, grp, q.Limit)
		e.finishTrace(out, tr, plans, n, q.Limit)
		return out, nil
	}

	tScan := time.Now()
	qc.span = root.StartChild("scan")
	switch {
	case grp == nil && len(plans) == 1 && len(projCols) == 0 && countOnly(accs):
		err = e.execFastCount(qc, &plans[0], res, accs, n)
	case orderCol != nil:
		err = e.execOrdered(qc, plans, res, accs, projCols, orderCol, q.OrderDesc, q.Limit, n)
	default:
		err = e.execGeneral(qc, plans, res, accs, projCols, grp, q.Limit, n)
	}
	if err != nil {
		// A worker panic surfaces here as an error (recovered in its own
		// goroutine — panics cannot cross goroutines); treat it like an
		// in-line panic: quarantine the active skippers and mark retryable.
		var pe *panicError
		if errors.As(err, &pe) {
			return nil, e.handleExecPanic(plans, pe)
		}
		return nil, err
	}
	// The executors call skipper.Observe inline; observeTimed charges that
	// time to the feedback phase, so scan time is the remainder.
	tr.Scan = time.Since(tScan) - tr.Feedback
	qc.span.FinishDuration(tr.Scan)
	qc.span.FinishRows(res.Stats.RowsScanned+res.Stats.RowsCovered, res.Count, 0)
	out = e.finish(res, accs, grp, q.Limit)
	e.finishTrace(out, tr, plans, n, q.Limit)
	return out, nil
}

// handleExecPanic records a recovered execution panic: every skipper that
// was actively pruning for the query is quarantined (corrupt metadata is
// the prime suspect for out-of-range candidate windows), and when at
// least one was, the error is marked retryable — the retry runs without
// them, as full scans. Caller holds e.mu.
func (e *Engine) handleExecPanic(plans []colPlan, pe *panicError) error {
	e.m.panics.Inc()
	quarantined := 0
	for i := range plans {
		if plans[i].active && plans[i].skipper != nil {
			e.quarantineLocked(plans[i].name, pe)
			quarantined++
		}
	}
	if quarantined > 0 {
		return fmt.Errorf("%w: %w (quarantined %d skipper(s))", errQuarantineRetry, pe, quarantined)
	}
	return fmt.Errorf("engine: execution panicked: %w", pe)
}

// safeProbe probes a plan's skipper for candidate windows, converting
// panics and self-reported corruption (core.HealthChecker) into
// quarantine + full-scan fallback. Caller holds e.mu.
func (e *Engine) safeProbe(p *colPlan) {
	if p.skipper == nil {
		return
	}
	if perr := func() (err error) {
		defer recoverToError(&err)
		if p.pred.NullOnly {
			p.res = p.skipper.PruneNulls()
		} else {
			p.res = p.skipper.Prune(p.pred.R)
		}
		return nil
	}(); perr != nil {
		e.quarantineLocked(p.name, perr)
		p.skipper, p.res, p.active = nil, core.PruneResult{}, false
		return
	}
	if e.checkSkipperHealth(p.name, p.skipper) {
		// The probe detected corruption and declined; the column now runs
		// as a plain full scan.
		p.skipper, p.res, p.active = nil, core.PruneResult{}, false
		return
	}
	p.active = p.res.Enabled
}

// observeTimed hands execution feedback to a plan's skipper, charging the
// time spent in Observe (split/merge/arbitration work) to the in-flight
// trace's feedback phase. A panicking Observe quarantines the skipper:
// the query's result is already computed, so only the metadata is at
// stake. Caller holds e.mu.
func (e *Engine) observeTimed(p *colPlan, zobs []core.ZoneObservation) {
	if p.skipper == nil {
		return
	}
	t := time.Now()
	perr := func() (err error) {
		defer recoverToError(&err)
		p.skipper.Observe(p.res, zobs)
		return nil
	}()
	if e.trace != nil {
		e.trace.Feedback += time.Since(t)
	}
	if perr != nil {
		e.quarantineLocked(p.name, perr)
		p.skipper = nil
	}
}

// finish materializes aggregate or grouped output onto the result.
func (e *Engine) finish(res *Result, accs []*aggAcc, grp *grouper, limit int) *Result {
	if grp != nil {
		res.Columns, res.Types, res.Rows = grp.result()
		if limit > 0 && len(res.Rows) > limit {
			res.Rows = res.Rows[:limit]
		}
		return res
	}
	e.finishAggs(res, accs)
	return res
}

// plan lowers the conjunction per referenced column and probes skippers.
// unsat is true when some column's intervals are empty (no row can match).
func (e *Engine) plan(where expr.Conj) ([]colPlan, bool, error) {
	var plans []colPlan
	unsat := false
	for _, name := range where.Columns() {
		col, err := e.tbl.Column(name)
		if err != nil {
			return nil, false, err
		}
		cp, err := expr.LowerColumn(where, col)
		if err != nil {
			return nil, false, err
		}
		p := colPlan{name: name, col: col, pred: cp, skipper: e.skippers[name]}
		if cp.Empty() {
			unsat = true
		}
		e.safeProbe(&p)
		plans = append(plans, p)
	}
	return plans, unsat, nil
}

// candidateRows sums the rows left inside candidate windows across plans
// whose skippers participated (the prune stage's "rows out").
func candidateRows(plans []colPlan) int {
	total := 0
	for i := range plans {
		if !plans[i].active {
			continue
		}
		for _, z := range plans[i].res.Zones {
			total += z.Hi - z.Lo
		}
	}
	return total
}

// countOnly reports whether every accumulator is COUNT(*) (data-free).
func countOnly(accs []*aggAcc) bool {
	for _, a := range accs {
		if a.kind != CountStar {
			return false
		}
	}
	return true
}

// finishAggs materializes aggregate results from the accumulated state
// plus the final count.
func (e *Engine) finishAggs(res *Result, accs []*aggAcc) {
	for _, a := range accs {
		// COUNT(*) accumulators may have been bypassed by the fast count
		// path, which tracks res.Count directly.
		if a.kind == CountStar && a.rows == 0 {
			a.rows = int64(res.Count)
		}
		res.Aggs = append(res.Aggs, a.result())
	}
}

// execFastCount is the hot path: one predicate column, COUNT(*)-only.
// It scans zone-aligned so adaptive skippers receive exact per-zone
// feedback with piggybacked statistics. On error (cancellation, budget,
// worker panic) no feedback is given: partially scanned zones would
// report misleading match counts and corrupt adaptation.
func (e *Engine) execFastCount(qc *qctx, p *colPlan, res *Result, accs []*aggAcc, n int) error {
	workers := e.opts.Parallelism
	if !p.active {
		// Full scan, no metadata.
		count, err := e.parallelCountFull(qc, p, n, workers)
		if err != nil {
			return err
		}
		res.Count = count
		res.Stats.RowsScanned = n
		e.observeTimed(p, nil)
		return nil
	}
	count, obs, stats, err := e.parallelCountZones(qc, p, p.res.Zones, workers)
	if err != nil {
		return err
	}
	res.Count = count
	res.Stats.RowsScanned += stats.RowsScanned
	res.Stats.RowsCovered += stats.RowsCovered
	e.observeTimed(p, obs)
	return nil
}

// seg is one contiguous row window of the intersected candidate set.
// needEval has bit i set when plans[i]'s predicate must still be evaluated
// over the window (its metadata did not prove coverage).
type seg struct {
	lo, hi   int
	needEval uint64
}

// maxSegmentSpans bounds per-segment child spans: queries whose candidate
// set fragments into many windows get stage-level timing only, so tracing
// cost stays independent of zone count.
const maxSegmentSpans = 16

// execGeneral handles every other query shape: multi-column conjunctions,
// aggregates over data, and projections. Kernel scans are chunked at
// checkpoint granularity; covered windows (no kernel work) get one
// free check per segment so even all-covered queries stay cancelable.
func (e *Engine) execGeneral(qc *qctx, plans []colPlan, res *Result, accs []*aggAcc, projCols []*storage.Column, grp *grouper, limit, n int) error {
	segs := []seg{{lo: 0, hi: n}}
	for i := range plans {
		segs = intersectPlan(segs, &plans[i], uint64(1)<<uint(i), n)
	}

	tk := &ticker{qc: qc}
	sel := bitvec.NewSelVec(1024)
	spanPerSeg := qc.span != nil && len(segs) <= maxSegmentSpans
	done := false
	for _, s := range segs {
		if done {
			break
		}
		if err := qc.check(0); err != nil {
			return err
		}
		var sp *obs.Span
		if spanPerSeg {
			sp = qc.span.StartChild(fmt.Sprintf("segment [%d,%d)", s.lo, s.hi))
		}
		before := res.Count
		err := e.execSegment(qc, plans, res, accs, projCols, grp, limit, s, tk, sel, &done)
		if sp != nil {
			sp.FinishRows(s.hi-s.lo, res.Count-before, 0)
		}
		if err != nil {
			return err
		}
	}

	e.feedbackGeneral(plans, segs)
	return nil
}

// execSegment runs one contiguous candidate window: covered fast paths
// when no predicate needs evaluation, otherwise filter + refine + consume.
func (e *Engine) execSegment(qc *qctx, plans []colPlan, res *Result, accs []*aggAcc, projCols []*storage.Column, grp *grouper, limit int, s seg, tk *ticker, sel *bitvec.SelVec, done *bool) error {
	if s.needEval == 0 {
		// Every row in the window qualifies. Count-only coverage reads
		// no data and stays checkpoint-free; grouping, aggregation, and
		// projection all read the covered rows, so they run in
		// checkpoint-sized chunks like any other scan.
		if grp != nil {
			res.Count += s.hi - s.lo
			res.Stats.RowsCovered += s.hi - s.lo
			for lo := s.lo; lo < s.hi; {
				end := lo + checkpointRows
				if end > s.hi {
					end = s.hi
				}
				grp.addWindow(lo, end)
				if err := tk.tick(end - lo); err != nil {
					return err
				}
				if err := qc.checkGroups(len(grp.groups)); err != nil {
					return err
				}
				lo = end
			}
			return nil
		}
		if len(projCols) == 0 {
			res.Count += s.hi - s.lo
			res.Stats.RowsCovered += s.hi - s.lo
			for lo := s.lo; len(accs) > 0 && lo < s.hi; {
				end := lo + checkpointRows
				if end > s.hi {
					end = s.hi
				}
				for _, a := range accs {
					a.addWindow(lo, end)
				}
				if err := tk.tick(end - lo); err != nil {
					return err
				}
				lo = end
			}
			return nil
		}
		for row := s.lo; row < s.hi && !*done; row++ {
			if err := tk.tick(1); err != nil {
				return err
			}
			var err error
			if *done, err = e.emitRow(qc, res, accs, projCols, row, limit); err != nil {
				return err
			}
		}
		return nil
	}
	// Evaluate the first needed predicate into a selection, then
	// refine with the rest.
	sel.Reset()
	first := true
	matched := 0
	for i := range plans {
		if s.needEval&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		p := &plans[i]
		if first {
			if err := filterSegChunked(tk, p, s, sel); err != nil {
				return err
			}
			matched = sel.Len()
			res.Stats.RowsScanned += s.hi - s.lo
			first = false
			continue
		}
		res.Stats.RowsScanned += sel.Len()
		if err := tk.tick(sel.Len()); err != nil {
			return err
		}
		matched = refineSel(sel, p)
		if matched == 0 {
			break
		}
	}
	// The matched rows were already charged by the filter passes above;
	// the consumption loops below only need latency checkpoints
	// (qc.check(0)) so huge match sets stay cancelable.
	if grp != nil {
		res.Count += matched
		for rows := sel.Rows(); len(rows) > 0; {
			chunk := rows
			if len(chunk) > checkpointRows {
				chunk = chunk[:checkpointRows]
			}
			for _, row := range chunk {
				grp.addRow(int(row))
			}
			rows = rows[len(chunk):]
			if err := qc.check(0); err != nil {
				return err
			}
		}
		if err := qc.checkGroups(len(grp.groups)); err != nil {
			return err
		}
		return nil
	}
	if len(projCols) == 0 {
		res.Count += matched
		for rows := sel.Rows(); len(rows) > 0; {
			chunk := rows
			if len(chunk) > checkpointRows {
				chunk = chunk[:checkpointRows]
			}
			for _, row := range chunk {
				for _, a := range accs {
					a.addRow(int(row))
				}
			}
			rows = rows[len(chunk):]
			if err := qc.check(0); err != nil {
				return err
			}
		}
		return nil
	}
	for i, row := range sel.Rows() {
		if i%checkpointRows == checkpointRows-1 {
			if err := qc.check(0); err != nil {
				return err
			}
		}
		var err error
		if *done, err = e.emitRow(qc, res, accs, projCols, int(row), limit); err != nil {
			return err
		}
		if *done {
			break
		}
	}
	return nil
}

// filterSegChunked runs the segment's first predicate filter in
// checkpoint-sized chunks, appending matches to sel.
func filterSegChunked(tk *ticker, p *colPlan, s seg, sel *bitvec.SelVec) error {
	for lo := s.lo; lo < s.hi; lo += checkpointRows {
		hi := lo + checkpointRows
		if hi > s.hi {
			hi = s.hi
		}
		if p.pred.NullOnly {
			scan.FilterNullSel(p.col.Nulls(), lo, hi, sel)
		} else {
			scan.FilterSel(p.col.Codes(), lo, hi, p.pred.R, p.col.Nulls(), 0, sel)
		}
		if err := tk.tick(hi - lo); err != nil {
			return err
		}
	}
	return nil
}

// emitRow appends one projected row; done reports the limit being hit,
// err a blown result budget.
func (e *Engine) emitRow(qc *qctx, res *Result, accs []*aggAcc, projCols []*storage.Column, row, limit int) (done bool, err error) {
	if err := qc.checkResult(len(res.Rows) + 1); err != nil {
		return true, err
	}
	vals := make([]storage.Value, len(projCols))
	for ci, col := range projCols {
		vals[ci] = col.Value(row)
	}
	res.Rows = append(res.Rows, vals)
	res.Count++
	for _, a := range accs {
		a.addRow(row)
	}
	return limit > 0 && len(res.Rows) >= limit, nil
}

// refineSel keeps only selected rows matching plan p's predicate; returns
// the surviving count.
func refineSel(sel *bitvec.SelVec, p *colPlan) int {
	rows := sel.Rows()
	codes := p.col.Codes()
	nulls := p.col.Nulls()
	kept := rows[:0]
	if p.pred.NullOnly {
		for _, row := range rows {
			if nulls != nil && int(row) < nulls.Len() && nulls.Get(int(row)) {
				kept = append(kept, row)
			}
		}
		sel.Truncate(len(kept))
		return len(kept)
	}
	single := p.pred.R.Len() == 1
	var rlo, rhi int64
	if single {
		rlo, rhi = p.pred.R.Lo[0], p.pred.R.Hi[0]
	}
	for _, row := range rows {
		if nulls != nil && nulls.Get(int(row)) {
			continue
		}
		c := codes[row]
		var ok bool
		if single {
			ok = c >= rlo && c <= rhi
		} else {
			ok = p.pred.R.Contains(c)
		}
		if ok {
			kept = append(kept, row)
		}
	}
	// kept aliases the selection's backing array (in-place filter); shrink
	// the selection to the surviving prefix.
	sel.Truncate(len(kept))
	return len(kept)
}

// intersectPlan intersects the current segment list with one plan's
// candidate windows, OR-ing the plan's eval bit into windows it does not
// cover. Plans whose skipper declined contribute the full range,
// uncovered.
func intersectPlan(segs []seg, p *colPlan, bit uint64, n int) []seg {
	if !p.active {
		out := make([]seg, len(segs))
		for i, s := range segs {
			s.needEval |= bit
			out[i] = s
		}
		return out
	}
	var out []seg
	zi := 0
	zones := p.res.Zones
	for _, s := range segs {
		for zi < len(zones) && zones[zi].Hi <= s.lo {
			zi++
		}
		for zj := zi; zj < len(zones) && zones[zj].Lo < s.hi; zj++ {
			z := zones[zj]
			lo, hi := z.Lo, z.Hi
			if lo < s.lo {
				lo = s.lo
			}
			if hi > s.hi {
				hi = s.hi
			}
			if lo >= hi {
				continue
			}
			ns := seg{lo: lo, hi: hi, needEval: s.needEval}
			if !z.Covered {
				ns.needEval |= bit
			}
			out = append(out, ns)
		}
	}
	return out
}

// feedbackGeneral sends coarse observations to skippers after a general
// execution. Multi-column intersections scan zones partially, so zones get
// heat-only feedback (Partial), never split statistics; covered candidates
// are acknowledged as useful. This keeps adaptation conservative and
// sound: structural refinement only happens on exact single-column
// evidence (the fast path).
func (e *Engine) feedbackGeneral(plans []colPlan, segs []seg) {
	for i := range plans {
		p := &plans[i]
		if p.skipper == nil {
			continue
		}
		if !p.active {
			e.observeTimed(p, nil)
			continue
		}
		var obs []core.ZoneObservation
		si := 0
		for _, z := range p.res.Zones {
			if z.ID == core.NoZoneID {
				continue
			}
			ob := core.ZoneObservation{ID: z.ID, Lo: z.Lo, Hi: z.Hi, Covered: z.Covered}
			if !z.Covered {
				// Was any part of this zone visited?
				for si < len(segs) && segs[si].hi <= z.Lo {
					si++
				}
				visited := si < len(segs) && segs[si].lo < z.Hi
				if !visited {
					continue // fully pruned by other columns; no signal
				}
				ob.Partial = true
			}
			obs = append(obs, ob)
		}
		e.observeTimed(p, obs)
	}
}

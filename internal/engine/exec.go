package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
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
	for i, a := range q.Aggs {
		col, err := e.validateAgg(a)
		if err != nil {
			return nil, err
		}
		accs[i] = newAggAcc(a.Kind, col)
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
		aggCols := make([]*storage.Column, len(accs))
		for i, a := range accs {
			aggCols[i] = a.col
		}
		grp = newGrouper(qc, gcol, q.Aggs, aggCols)
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
	// The consumer of the walk's qualifying rows; nil for count-only
	// queries, which need nothing but the count. Only an unordered
	// projection stops the walk early, at its LIMIT.
	var sink rowSink
	var ord *orderer
	walkLimit := 0
	switch {
	case grp != nil:
		sink = grp
	case orderCol != nil:
		ord = &orderer{qc: qc, accs: accs, cols: projCols, by: orderCol, desc: q.OrderDesc, limit: q.Limit}
		sink = ord
	case len(projCols) > 0:
		sink = &projector{qc: qc, res: res, cols: projCols, accs: accs}
		walkLimit = q.Limit
	case !countOnly(accs):
		sink = aggSink(accs)
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
	if sink == nil && len(plans) == 1 {
		err = e.execFastCount(qc, &plans[0], res, n)
	} else {
		err = e.execGeneral(qc, plans, res, sink, walkLimit, n)
		if err == nil && ord != nil {
			err = ord.finish(res)
		}
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
// COUNT(*) accumulators that count-only execution bypassed take the
// final count.
func (e *Engine) finish(res *Result, accs []*aggAcc, grp *grouper, limit int) *Result {
	if grp != nil {
		res.Columns, res.Types, res.Rows = grp.result()
		if limit > 0 && len(res.Rows) > limit {
			res.Rows = res.Rows[:limit]
		}
		return res
	}
	for _, a := range accs {
		if a.kind == CountStar && a.rows == 0 {
			a.rows = int64(res.Count)
		}
		res.Aggs = append(res.Aggs, a.result())
	}
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

// execFastCount is the hot path: one predicate column, COUNT(*)-only.
// It scans zone-aligned so adaptive skippers receive exact per-zone
// feedback with piggybacked statistics; an inactive skipper's full scan
// is one unattributed window. On error (cancellation, budget, worker
// panic) no feedback is given: partially scanned zones would report
// misleading match counts and corrupt adaptation.
func (e *Engine) execFastCount(qc *qctx, p *colPlan, res *Result, n int) error {
	zones := p.res.Zones
	if !p.active {
		zones = []core.CandidateZone{{ID: core.NoZoneID, Lo: 0, Hi: n}}
	}
	count, obs, stats, err := e.parallelCountZones(qc, p, zones, e.opts.Parallelism)
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

// rowSink consumes the qualifying rows the walk finds, in row order:
// covered windows, whose rows all qualify, and batches of selected row
// ids. Batches are at most checkpointRows rows, so a sink that checks a
// result cap checks it at checkpoint granularity.
type rowSink interface {
	covered(lo, hi int) error
	selected(rows []uint32) error
}

// execGeneral is the engine's one walk over the intersected candidate
// windows, used by every query shape but the single-column COUNT fast
// path. Per window it runs a checkpoint, then either hands a covered
// window to the sink in checkpoint-sized chunks, charged as rows read,
// or filters the window by its first needed predicate, refines by the
// rest and hands over the survivors. A nil sink (count-only) only counts:
// its covered windows read no data and are not charged. res.Count sums
// the rows handed over, and limit > 0 stops the walk once it reaches
// limit.
func (e *Engine) execGeneral(qc *qctx, plans []colPlan, res *Result, sink rowSink, limit, n int) error {
	segs := []seg{{lo: 0, hi: n}}
	for i := range plans {
		segs = intersectPlan(segs, &plans[i], uint64(1)<<uint(i), n)
	}

	tk := &ticker{qc: qc}
	sel := bitvec.NewSelVec(1024)
	var spans []obs.Span
	if qc.span != nil && len(segs) <= maxSegmentSpans {
		spans = segmentSpans(segs)
	}
	for i, s := range segs {
		if limit > 0 && res.Count >= limit {
			break
		}
		if err := qc.check(0); err != nil {
			return err
		}
		var sp *obs.Span
		if spans != nil {
			sp = &spans[i]
			sp.Start = time.Now()
			qc.span.Attach(sp)
		}
		before := res.Count
		err := walkSegment(tk, plans, s, sel, res, sink, limit)
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

// segmentSpans builds one unstarted "segment [lo,hi)" span per window,
// at most maxSegmentSpans, with every span in one allocation and every
// name in another, so tracing a walk costs a fixed few allocations
// however many windows it has.
func segmentSpans(segs []seg) []obs.Span {
	var buf [maxSegmentSpans * 52]byte
	var ends [maxSegmentSpans]int
	b := buf[:0]
	for i, s := range segs {
		b = append(b, "segment ["...)
		b = strconv.AppendInt(b, int64(s.lo), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.hi), 10)
		b = append(b, ')')
		ends[i] = len(b)
	}
	names := string(b)
	spans := make([]obs.Span, len(segs))
	start := 0
	for i := range spans {
		spans[i].Name = names[start:ends[i]]
		start = ends[i]
	}
	return spans
}

// walkSegment hands one candidate window's qualifying rows to sink.
func walkSegment(tk *ticker, plans []colPlan, s seg, sel *bitvec.SelVec, res *Result, sink rowSink, limit int) error {
	if s.needEval == 0 {
		if sink == nil {
			res.Count += s.hi - s.lo
			res.Stats.RowsCovered += s.hi - s.lo
			return nil
		}
		for lo := s.lo; lo < s.hi; lo += checkpointRows {
			k := clip(min(s.hi-lo, checkpointRows), limit, res.Count)
			if k == 0 {
				return nil
			}
			if err := sink.covered(lo, lo+k); err != nil {
				return err
			}
			res.Count += k
			res.Stats.RowsCovered += k
			if err := tk.tick(k); err != nil {
				return err
			}
		}
		return nil
	}
	// Evaluate the first needed predicate into a selection, then
	// refine with the rest.
	sel.Reset()
	first := true
	for i := range plans {
		if s.needEval&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		p := &plans[i]
		if first {
			if err := filterSegChunked(tk, p, s, sel); err != nil {
				return err
			}
			res.Stats.RowsScanned += s.hi - s.lo
			first = false
			continue
		}
		res.Stats.RowsScanned += sel.Len()
		if err := tk.tick(sel.Len()); err != nil {
			return err
		}
		if refineSel(sel, p) == 0 {
			break
		}
	}
	if sink == nil {
		res.Count += sel.Len()
		return nil
	}
	// The selected rows were already charged by the filter passes above;
	// handing them over only needs latency checkpoints so huge match sets
	// stay cancelable.
	for rows := sel.Rows(); len(rows) > 0; {
		k := clip(min(len(rows), checkpointRows), limit, res.Count)
		if k == 0 {
			return nil
		}
		if err := sink.selected(rows[:k]); err != nil {
			return err
		}
		res.Count += k
		rows = rows[k:]
		if err := tk.qc.check(0); err != nil {
			return err
		}
	}
	return nil
}

// clip cuts a batch of k rows to what limit (0 = none) leaves after done.
func clip(k, limit, done int) int {
	if limit > 0 {
		return min(k, limit-done)
	}
	return k
}

// aggSink folds qualifying rows into global aggregates.
type aggSink []*aggAcc

func (as aggSink) covered(lo, hi int) error {
	for _, a := range as {
		a.add(lo, hi, nil)
	}
	return nil
}

func (as aggSink) selected(rows []uint32) error {
	for _, a := range as {
		a.add(0, 0, rows)
	}
	return nil
}

// projector materializes qualifying rows (charged against the result
// cap) and folds them into any aggregates alongside the projection.
type projector struct {
	qc   *qctx
	res  *Result
	cols []*storage.Column
	accs aggSink
	ids  []uint32 // row ids of a covered window, reused
}

func (p *projector) covered(lo, hi int) error {
	p.ids = p.ids[:0]
	for r := lo; r < hi; r++ {
		p.ids = append(p.ids, uint32(r))
	}
	return p.selected(p.ids)
}

func (p *projector) selected(rows []uint32) error {
	if err := p.qc.checkResult(len(p.res.Rows) + len(rows)); err != nil {
		return err
	}
	appendRows(p.res, p.cols, rows)
	return p.accs.selected(rows)
}

// appendRows materializes the listed rows of cols onto res.Rows, with
// every cell in one allocation.
func appendRows(res *Result, cols []*storage.Column, rows []uint32) {
	nc := len(cols)
	cells := make([]storage.Value, len(rows)*nc)
	for i, r := range rows {
		vals := cells[i*nc : (i+1)*nc : (i+1)*nc]
		for ci, col := range cols {
			vals[ci] = col.Value(int(r))
		}
		res.Rows = append(res.Rows, vals)
	}
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
			scan.FilterSel(p.col.Codes(), lo, hi, p.pred.R, p.col.Nulls(), sel)
		}
		if err := tk.tick(hi - lo); err != nil {
			return err
		}
	}
	return nil
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
// uncovered: their bit is OR-ed into segs in place.
func intersectPlan(segs []seg, p *colPlan, bit uint64, n int) []seg {
	if !p.active {
		for i := range segs {
			segs[i].needEval |= bit
		}
		return segs
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

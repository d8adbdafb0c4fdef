package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"adskip/internal/core"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
)

// Resilience layer: cooperative cancellation, per-query resource budgets,
// panic isolation, and skipper quarantine. The design constraint is that
// the hot scan loop carries no checks: kernels run in checkpointRows-sized
// chunks and all checking happens between chunks, so a 4M-row scan pays
// ~64 cheap checks rather than 4M.

// Errors returned by the resilience layer.
var (
	// ErrCanceled reports that the query's context was canceled or its
	// deadline expired before execution finished.
	ErrCanceled = errors.New("engine: query canceled")
	// ErrBudget reports that the query exceeded one of its resource
	// limits (rows scanned, result rows, or wall-clock duration).
	ErrBudget = errors.New("engine: query exceeded resource budget")
)

// Limits bounds one query's resource consumption. The zero value imposes
// no limits. Limits are enforced at cooperative checkpoints, so overshoot
// is bounded by one checkpoint interval (checkpointRows rows).
type Limits struct {
	// MaxRowsScanned caps rows whose codes a kernel reads. Rows pruned by
	// metadata are free — budgets reward skipping.
	MaxRowsScanned int64
	// MaxResultRows caps materialized result rows (projection rows, or
	// groups for GROUP BY).
	MaxResultRows int
	// MaxDuration caps wall-clock execution time, independent of any
	// context deadline.
	MaxDuration time.Duration
}

// checkpointRows is the cooperative checkpoint interval: scans check for
// cancellation and budget exhaustion at least once per this many rows.
const checkpointRows = 1 << 16

// Budget is one logical query's resource budget: the deadline and the
// rows-scanned and result-row counts charged against Limits. A query
// that runs on one engine gets a private budget for all its attempts; a
// caller that fans one logical query out over several engines creates
// one with NewBudget and passes it to every engine's QueryBudget, so the
// limits hold for the query as a whole rather than per engine.
type Budget struct {
	deadline  time.Time // from Limits.MaxDuration; zero = none
	maxRows   int64     // from Limits.MaxRowsScanned; 0 = none
	maxResult int       // from Limits.MaxResultRows; 0 = none
	rows      atomic.Int64
	results   atomic.Int64
}

// NewBudget starts a budget for lim: the MaxDuration clock starts now.
func NewBudget(lim Limits) *Budget {
	b := &Budget{maxRows: lim.MaxRowsScanned, maxResult: lim.MaxResultRows}
	if lim.MaxDuration > 0 {
		b.deadline = time.Now().Add(lim.MaxDuration)
	}
	return b
}

// CheckResult enforces the result-row cap against a result size the
// caller computed itself, such as the distinct groups of a merged GROUP
// BY (engines sharing a budget check their own groups only).
func (b *Budget) CheckResult(rows int) error {
	if b.maxResult > 0 && rows > b.maxResult {
		return fmt.Errorf("%w: result exceeds %d rows", ErrBudget, b.maxResult)
	}
	return nil
}

// qctx carries one query's cancellation and budget state. It is shared by
// every goroutine working on the query; the first failure latches so all
// peers abandon their slices promptly.
type qctx struct {
	ctx     context.Context
	done    <-chan struct{}
	b       *Budget      // one per logical query, maybe shared with other engines
	rows    atomic.Int64 // rows this attempt has charged to b (workers charge concurrently)
	results int          // result rows this attempt has charged to b
	failure atomic.Pointer[error]
	// span is the query's scan-stage span; executors attach per-segment
	// and per-worker child spans to it (StartChild is goroutine-safe).
	span *obs.Span
}

// fail latches the first failure and returns the winning error.
func (qc *qctx) fail(err error) error {
	qc.failure.CompareAndSwap(nil, &err)
	return *qc.failure.Load()
}

// failed returns the latched failure, if any.
func (qc *qctx) failed() error {
	if p := qc.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// check performs one cooperative checkpoint, charging rows scanned since
// the previous one against the row budget.
func (qc *qctx) check(rows int64) error {
	if err := qc.failed(); err != nil {
		return err
	}
	faultinject.Sleep(faultinject.ScanDelay) // no-op unless chaos is active
	b := qc.b
	if b.maxRows > 0 {
		qc.rows.Add(rows)
		if b.rows.Add(rows) > b.maxRows {
			return qc.fail(fmt.Errorf("%w: more than %d rows scanned", ErrBudget, b.maxRows))
		}
	}
	select {
	case <-qc.done:
		return qc.fail(fmt.Errorf("%w: %v", ErrCanceled, context.Cause(qc.ctx)))
	default:
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return qc.fail(fmt.Errorf("%w: ran longer than the configured MaxDuration", ErrBudget))
	}
	return nil
}

// checkResult charges the growth of this attempt's materialized result
// (projection rows, or gathered ORDER BY matches) to the budget and
// enforces the cap on the total across every engine sharing it.
func (qc *qctx) checkResult(rows int) error {
	b := qc.b
	if b.maxResult <= 0 {
		return nil
	}
	total := b.results.Add(int64(rows - qc.results))
	qc.results = rows
	if total > int64(b.maxResult) {
		return qc.fail(fmt.Errorf("%w: result exceeds %d rows", ErrBudget, b.maxResult))
	}
	return nil
}

// checkGroups enforces the result-row cap on this engine's GROUP BY
// groups. Groups are not charged to a shared budget: the same group can
// appear on several engines, so their sum overstates the merged result,
// which the fan-out caller checks with Budget.CheckResult.
func (qc *qctx) checkGroups(groups int) error {
	if err := qc.b.CheckResult(groups); err != nil {
		return qc.fail(err)
	}
	return nil
}

// release returns a failed attempt's scanned and result rows to the
// budget, so a retry (or a sibling engine) is charged only for the work
// of attempts that survive.
func (qc *qctx) release() {
	qc.b.rows.Add(-qc.rows.Swap(0))
	qc.b.results.Add(-int64(qc.results))
	qc.results = 0
}

// ticker accumulates one goroutine's scan progress and runs the shared
// checkpoint every checkpointRows rows, keeping the per-chunk cost to one
// integer add and compare.
type ticker struct {
	qc  *qctx
	acc int
}

// tick charges rows of scan progress; at checkpoint granularity it runs
// the shared check and returns its verdict.
func (t *ticker) tick(rows int) error {
	t.acc += rows
	if t.acc < checkpointRows {
		return nil
	}
	n := t.acc
	t.acc = 0
	return t.qc.check(int64(n))
}

// countChunks runs a counting kernel over [lo, hi) in checkpoint-sized
// chunks, ticking between chunks.
func countChunks(tk *ticker, lo, hi int, kernel func(lo, hi int) int) (int, error) {
	total := 0
	for lo < hi {
		end := lo + checkpointRows
		if end > hi {
			end = hi
		}
		total += kernel(lo, end)
		if err := tk.tick(end - lo); err != nil {
			return total, err
		}
		lo = end
	}
	return total, nil
}

// panicError is a panic recovered into an error, carrying the stack for
// diagnostics. Panics attributable to skipper metadata quarantine the
// column and retry the query without it.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("recovered panic: %v", p.val) }

// recoverToError converts an in-flight panic into *errp. Use as
// `defer recoverToError(&err)` at goroutine or call-boundary scope —
// panics cannot cross goroutines, so every worker must carry its own.
func recoverToError(errp *error) {
	if r := recover(); r != nil {
		*errp = &panicError{val: r, stack: debug.Stack()}
	}
}

// errQuarantineRetry marks an error whose cause was quarantined; one
// retry — now falling back to full scans — can succeed.
var errQuarantineRetry = errors.New("engine: retrying after quarantine")

// firstWorkerError picks the error to surface from a fan-out: panics win
// (they trigger quarantine) over cooperative cancellation.
func firstWorkerError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *panicError
		if errors.As(err, &pe) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Admission bounds the number of concurrently executing logical queries
// across the tables that share it (the shard manager admits each query
// once, before any engine runs). A nil *Admission admits everything.
type Admission struct {
	sem     chan struct{}
	waiting atomic.Int64
}

// NewAdmission returns an admission controller allowing n concurrent
// queries, or nil (unbounded) when n <= 0.
func NewAdmission(n int) *Admission {
	if n <= 0 {
		return nil
	}
	return &Admission{sem: make(chan struct{}, n)}
}

// Acquire takes an execution slot, waiting until one frees or ctx is
// done.
func (a *Admission) Acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	// Only the blocked path maintains the queue-depth gauge: admitted
	// queries pay nothing beyond the channel send above.
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w while waiting for admission: %v", ErrCanceled, context.Cause(ctx))
	}
}

// Release returns an execution slot taken with Acquire.
func (a *Admission) Release() {
	if a != nil {
		<-a.sem
	}
}

// Waiting reports how many queries are currently blocked waiting for an
// execution slot. Zero for a nil (unbounded) controller.
func (a *Admission) Waiting() int64 {
	if a == nil {
		return 0
	}
	return a.waiting.Load()
}

// quarantineRecord remembers why and when a column's skipper was pulled
// from service.
type quarantineRecord struct {
	cause error
	when  time.Time
}

// quarantineLocked removes a column's skipper from service, recording the
// cause. The column's queries fall back to full scans — skipping is
// strictly an optimization, so correctness is preserved — until
// RebuildSkipping (or EnableSkipping/LoadSkipper) reinstates metadata.
// Caller holds e.mu.
func (e *Engine) quarantineLocked(col string, cause error) {
	s, ok := e.skippers[col]
	if !ok {
		return
	}
	delete(e.skippers, col)
	e.quarantined[col] = quarantineRecord{cause: cause, when: time.Now()}
	e.m.quarantines.Inc()
	zones := 0
	func() {
		defer func() { recover() }() // metadata of a broken skipper may itself panic
		zones = s.Metadata().Zones
	}()
	qcause := "corruption"
	var pe *panicError
	if errors.As(cause, &pe) {
		qcause = "panic"
	}
	e.ledgerSink(col)(obs.LedgerRecord{Kind: obs.EventQuarantine, Cause: qcause, ZonesBefore: zones})
	if e.log != nil {
		e.log.Error("skipper quarantined: column falls back to full scans",
			"table", e.tbl.Name(), "column", col, "cause", cause.Error())
	}
	cm := e.colMetrics(col)
	cm.enabled.Set(0)
	cm.zones.Set(0)
	cm.bytes.Set(0)
}

// checkSkipperHealth quarantines col when its skipper self-reports
// corruption (core.HealthChecker); reports whether it did. Caller holds
// e.mu.
func (e *Engine) checkSkipperHealth(col string, s core.Skipper) bool {
	hc, ok := s.(core.HealthChecker)
	if !ok {
		return false
	}
	err := hc.Health()
	if err == nil {
		return false
	}
	e.quarantineLocked(col, err)
	return true
}

// Quarantined reports the currently quarantined columns and the error
// that benched each one.
func (e *Engine) Quarantined() map[string]error {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]error, len(e.quarantined))
	for col, rec := range e.quarantined {
		out[col] = rec.cause
	}
	return out
}

// RebuildSkipping reconstructs skipping metadata from base column data on
// the named columns (all quarantined columns when none are named),
// clearing their quarantine. Learned refinement is lost; soundness is
// restored.
func (e *Engine) RebuildSkipping(cols ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(cols) == 0 {
		for col := range e.quarantined {
			cols = append(cols, col)
		}
		sort.Strings(cols)
	}
	for _, name := range cols {
		if err := e.buildSkipperLocked(name, obs.EventRebuild); err != nil {
			return err
		}
	}
	return nil
}

// VerifySkipping revalidates each named column's metadata (all skipping
// columns when none are named) against the column's physical state — one
// O(rows) pass per column. Failing columns are quarantined; their
// failures are joined in the returned error.
func (e *Engine) VerifySkipping(cols ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(cols) == 0 {
		for col := range e.skippers {
			cols = append(cols, col)
		}
		sort.Strings(cols)
	}
	var errs []error
	for _, name := range cols {
		s, ok := e.skippers[name]
		if !ok {
			continue
		}
		ic, ok := s.(core.InvariantChecker)
		if !ok {
			continue
		}
		col, err := e.tbl.Column(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		checkErr := func() (err error) {
			defer recoverToError(&err)
			rows := s.Rows()
			if rows > col.Len() {
				return fmt.Errorf("metadata covers %d rows, column has %d", rows, col.Len())
			}
			return ic.CheckInvariants(col.Codes()[:rows], col.Nulls(), false)
		}()
		if checkErr != nil {
			e.quarantineLocked(name, checkErr)
			errs = append(errs, fmt.Errorf("column %q: %w", name, checkErr))
		}
	}
	return errors.Join(errs...)
}

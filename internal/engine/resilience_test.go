package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// buildIntTable builds an n-row single-int-column table fast (no RNG, no
// strings) for scan-scale cancellation tests.
func buildIntTable(t testing.TB, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("big", table.Schema{{Name: "v", Type: storage.Int64}})
	col, err := tb.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := col.AppendInt(int64(i % 4096)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func countQuery(col string) Query {
	return Query{
		Where: expr.And(intPred(col, expr.Between, 10, 2000)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
}

func TestQueryContextPreCanceled(t *testing.T) {
	tb := buildTable(t, 500, 3)
	e := newEngine(t, tb, PolicyAdaptive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, countQuery("a"))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
}

// TestCancelMidScan4M verifies the tentpole acceptance: an expired context
// stops a 4M-row scan at a cooperative checkpoint instead of running to
// completion. ScanDelay stretches each checkpoint so the full scan would
// take ~60 checkpoints x 2ms; the 10ms deadline must cut it far short.
func TestCancelMidScan4M(t *testing.T) {
	n := 1 << 22
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyNone})

	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, countQuery("v"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	// 64 checkpoints x 2ms = 128ms uncancelled; generous CI margin still
	// proves it stopped at a checkpoint, not at scan end.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want well under the full-scan time", elapsed)
	}
	// The checkpoint machinery must not have corrupted anything: the same
	// query without a deadline returns the exact count.
	res, err := e.Query(countQuery("v"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if v := int64(i % 4096); v >= 10 && v <= 2000 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

// TestCancelCoveredAggregate regresses the covered-window gap: a SUM over
// fully covered zones reads every row even though the count is free, so
// it must still hit checkpoints and honor a mid-scan deadline.
func TestCancelCoveredAggregate(t *testing.T) {
	n := 1 << 21
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyStatic, StaticZoneSize: 4096})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()

	// v >= 0 covers every zone; SUM forces the covered windows to be read.
	q := Query{
		Where: expr.And(intPred("v", expr.GE, 0)),
		Aggs:  []Agg{{Kind: Sum, Col: "v"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, q)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("covered-aggregate cancellation took %v", elapsed)
	}

	// Covered aggregate rows also count against the row budget.
	lim := New(tb, Options{Policy: PolicyStatic, StaticZoneSize: 4096,
		Limits: Limits{MaxRowsScanned: 200_000}})
	if err := lim.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	restore2 := faultinject.Activate(faultinject.New(7)) // no delays
	defer restore2()
	if _, err := lim.Query(q); !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget for covered aggregate", err)
	}
}

func TestLimitsMaxRowsScanned(t *testing.T) {
	n := 1 << 20
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxRowsScanned: 200_000}})
	_, err := e.Query(countQuery("v"))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}

	// A query whose scan fits the budget still runs.
	free := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxRowsScanned: int64(n) + checkpointRows}})
	if _, err := free.Query(countQuery("v")); err != nil {
		t.Fatalf("within-budget query failed: %v", err)
	}
}

func TestLimitsMaxDuration(t *testing.T) {
	tb := buildIntTable(t, 1<<20)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxDuration: time.Millisecond}})
	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()
	_, err := e.Query(countQuery("v"))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
}

func TestLimitsMaxResultRows(t *testing.T) {
	tb := buildTable(t, 2000, 5)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxResultRows: 50}})
	q := Query{Where: expr.And(intPred("a", expr.GE, 0)), Select: []string{"a", "b"}}
	_, err := e.Query(q)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
	// An explicit LIMIT under the cap stays within budget.
	q.Limit = 50
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("limited query failed: %v", err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows=%d want 50", len(res.Rows))
	}
}

func TestAdmissionControl(t *testing.T) {
	adm := NewAdmission(1)

	// Occupy the only slot; a caller with a short deadline must give up
	// while waiting for admission, not hang.
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := adm.Acquire(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled while awaiting admission", err)
	}
	if n := adm.Waiting(); n != 0 {
		t.Fatalf("Waiting() = %d after the waiter gave up", n)
	}

	adm.Release()
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release failed: %v", err)
	}
	adm.Release()

	// A nil controller admits everything.
	var unbounded *Admission
	if err := unbounded.Acquire(ctx); err != nil {
		t.Fatalf("nil admission refused: %v", err)
	}
	unbounded.Release()
}

// faultySkipper lets tests fail specific skipper entry points.
type faultySkipper struct {
	rows        int
	panicProbe  bool
	panicObs    bool
	badWindows  bool // emit candidate windows beyond the column end
	healthErr   error
	invariantOK bool
}

func (f *faultySkipper) Prune(expr.Ranges) core.PruneResult {
	if f.panicProbe {
		panic("faultySkipper: probe panic")
	}
	if f.badWindows {
		return core.PruneResult{Enabled: true, Zones: []core.CandidateZone{
			{ID: core.NoZoneID, Lo: 0, Hi: f.rows * 4}, // way out of range
		}}
	}
	return core.PruneResult{Enabled: true, Zones: []core.CandidateZone{
		{ID: core.NoZoneID, Lo: 0, Hi: f.rows},
	}}
}

func (f *faultySkipper) PruneNulls() core.PruneResult { return core.PruneResult{Enabled: false} }

func (f *faultySkipper) Observe(core.PruneResult, []core.ZoneObservation) {
	if f.panicObs {
		panic("faultySkipper: observe panic")
	}
}

func (f *faultySkipper) Extend(codes []int64, _ *bitvec.BitVec) { f.rows = len(codes) }
func (f *faultySkipper) Widen(int, int64)                       {}
func (f *faultySkipper) NoteNonNull(int)                        {}
func (f *faultySkipper) Rows() int                              { return f.rows }
func (f *faultySkipper) Metadata() core.Metadata {
	return core.Metadata{Kind: "faulty", Zones: 1, Enabled: true}
}
func (f *faultySkipper) Health() error { return f.healthErr }

// install registers a faulty skipper on column "a" behind the engine's
// back (tests only).
func installFaulty(e *Engine, f *faultySkipper) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.rows = e.tbl.NumRows()
	e.skippers["a"] = f
}

func quarantineEvents(e *Engine) int {
	count := 0
	for _, rec := range e.Ledger().Records() {
		if rec.Kind == obs.EventQuarantine {
			count++
		}
	}
	return count
}

func naiveCountA(t *testing.T, tb *table.Table, lo, hi int64) int {
	t.Helper()
	col, err := tb.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			continue
		}
		if v := col.Value(i).Int(); v >= lo && v <= hi {
			want++
		}
	}
	return want
}

func TestProbePanicQuarantines(t *testing.T) {
	tb := buildTable(t, 1500, 11)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	installFaulty(e, &faultySkipper{panicProbe: true})

	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatalf("query should fall back to a full scan, got %v", err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	q := e.Quarantined()
	if _, ok := q["a"]; !ok {
		t.Fatalf("column a not quarantined: %v", q)
	}
	if !strings.Contains(q["a"].Error(), "probe panic") {
		t.Fatalf("quarantine cause %q does not name the panic", q["a"])
	}
	if quarantineEvents(e) == 0 {
		t.Fatal("no quarantine event emitted")
	}
}

func TestObservePanicQuarantines(t *testing.T) {
	tb := buildTable(t, 1500, 12)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	installFaulty(e, &faultySkipper{panicObs: true})

	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatalf("observe failures must not fail the query: %v", err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if _, ok := e.Quarantined()["a"]; !ok {
		t.Fatal("column a not quarantined after Observe panic")
	}
}

// TestBadWindowsPanicRetries exercises the full quarantine-and-retry path:
// corrupt metadata emits candidate windows past the column end, the scan
// kernel panics on the out-of-range access, the engine recovers, benches
// the skipper, retries as a full scan, and returns the correct answer.
func TestBadWindowsPanicRetries(t *testing.T) {
	tb := buildTable(t, 1500, 13)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	installFaulty(e, &faultySkipper{badWindows: true})

	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatalf("query should retry after quarantine, got %v", err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if _, ok := e.Quarantined()["a"]; !ok {
		t.Fatal("column a not quarantined after kernel panic")
	}
	if got := e.m.retries.Load(); got != 1 {
		t.Fatalf("retries=%d want 1", got)
	}
	if got := e.m.panics.Load(); got == 0 {
		t.Fatal("recovered panic not counted")
	}
}

func TestHealthCheckQuarantines(t *testing.T) {
	tb := buildTable(t, 1500, 14)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	installFaulty(e, &faultySkipper{healthErr: errors.New("self-reported corruption")})

	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatalf("health failures must degrade to full scan: %v", err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if cause, ok := e.Quarantined()["a"]; !ok || !strings.Contains(cause.Error(), "self-reported") {
		t.Fatalf("quarantine cause=%v", cause)
	}
}

// TestWorkerPanicInjection injects panics into parallel scan workers: the
// query must recover them in-goroutine (a bare panic would kill the
// process), quarantine the active skipper, retry, and return the exact
// count — all with Parallelism > 1.
func TestWorkerPanicInjection(t *testing.T) {
	n := minRowsPerWorker * 6
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyAdaptive, Parallelism: 4})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(3).
		Set(faultinject.WorkerPanic, faultinject.Rule{Every: 1, Limit: 2}))
	defer restore()

	res, err := e.Query(countQuery("v"))
	if err != nil {
		t.Fatalf("query should survive worker panics, got %v", err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if v := int64(i % 4096); v >= 10 && v <= 2000 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if _, ok := e.Quarantined()["v"]; !ok {
		t.Fatal("skipper not quarantined after worker panic")
	}
	if quarantineEvents(e) == 0 {
		t.Fatal("no quarantine event emitted")
	}
}

// TestQuarantineRetryBudget: a worker panic quarantines the skipper and
// the query retries as a full scan. The retry charges the same budget as
// the failed attempt, which must hand its scanned rows back, so a row cap
// that fits one full scan holds for a private and a shared budget alike.
func TestQuarantineRetryBudget(t *testing.T) {
	n := minRowsPerWorker * 6
	tb := buildIntTable(t, n)
	lim := Limits{MaxRowsScanned: int64(n) * 5 / 4}
	for _, kind := range []string{"private", "shared"} {
		t.Run(kind, func(t *testing.T) {
			e := New(tb, Options{Policy: PolicyAdaptive, Parallelism: 4, Limits: lim})
			if err := e.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			var b *Budget
			if kind == "shared" {
				b = NewBudget(lim)
			}
			restore := faultinject.Activate(faultinject.New(3).
				Set(faultinject.WorkerPanic, faultinject.Rule{Every: 1, Limit: 1}))
			res, err := e.QueryBudget(context.Background(), countQuery("v"), b)
			restore()
			if err != nil {
				t.Fatalf("retry after quarantine: %v", err)
			}
			if _, ok := e.Quarantined()["v"]; !ok {
				t.Fatal("setup: worker panic did not quarantine the skipper")
			}
			if want := n / 4096 * (2000 - 10 + 1); res.Count != want {
				t.Fatalf("count=%d want %d", res.Count, want)
			}
			// Only the surviving full scan stays charged (tickers charge
			// whole checkpoints, so at most its n rows).
			if b != nil && b.rows.Load() > int64(n) {
				t.Fatalf("shared budget charged %d rows, want at most the retry's %d", b.rows.Load(), n)
			}
		})
	}
}

func TestRebuildSkippingRestores(t *testing.T) {
	tb := buildTable(t, 1500, 15)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	installFaulty(e, &faultySkipper{panicProbe: true})
	if _, err := e.Query(countQuery("a")); err != nil {
		t.Fatal(err)
	}
	if len(e.Quarantined()) == 0 {
		t.Fatal("setup: nothing quarantined")
	}

	if err := e.RebuildSkipping(); err != nil {
		t.Fatal(err)
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after rebuild: %v", q)
	}
	if e.Skipper("a") == nil {
		t.Fatal("no skipper after rebuild")
	}
	rebuilds := 0
	for _, rec := range e.Ledger().Records() {
		if rec.Kind == obs.EventRebuild {
			rebuilds++
		}
	}
	if rebuilds == 0 {
		t.Fatal("no rebuild event emitted")
	}
	// The rebuilt skipper serves queries correctly.
	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

// TestInvariantFlipChaos runs the full corruption lifecycle end to end
// against real adaptive metadata: fault injection corrupts the zone
// layout during Observe, the next probe's tiling check detects it and
// declines, the engine quarantines the column, every answer stays
// correct, and RebuildSkipping restores skipping service.
func TestInvariantFlipChaos(t *testing.T) {
	tb := buildTable(t, 4000, 16)
	e := newEngine(t, tb, PolicyAdaptive)

	// Warm up: let the zonemap learn on clean queries first.
	for q := 0; q < 30; q++ {
		lo := int64(q * 100 % 3000)
		if _, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+200)),
			Aggs:  []Agg{{Kind: CountStar}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// One injected invariant flip, then clean again.
	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := e.Query(countQuery("a")); err != nil { // Observe corrupts here
		restore()
		t.Fatal(err)
	}
	restore()

	// Every subsequent query must stay correct; the first probe detects
	// the broken tiling and quarantines.
	for q := 0; q < 5; q++ {
		lo := int64(100 + q*50)
		res, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+500)),
			Aggs:  []Agg{{Kind: CountStar}},
		})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if want := naiveCountA(t, tb, lo, lo+500); res.Count != want {
			t.Fatalf("query %d: count=%d want %d", q, res.Count, want)
		}
	}
	if _, ok := e.Quarantined()["a"]; !ok {
		t.Fatal("corrupted zonemap not quarantined")
	}
	if quarantineEvents(e) == 0 {
		t.Fatal("no quarantine event emitted")
	}

	if err := e.RebuildSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("post-rebuild count=%d want %d", res.Count, want)
	}
}

// TestVerifySkippingDetectsCorruption corrupts real metadata via fault
// injection, then uses the explicit verification pass (not a query) to
// find and bench it.
func TestVerifySkippingDetectsCorruption(t *testing.T) {
	tb := buildTable(t, 4000, 17)
	e := newEngine(t, tb, PolicyAdaptive)
	for q := 0; q < 20; q++ {
		lo := int64(q * 150 % 3000)
		if _, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+200)),
			Aggs:  []Agg{{Kind: CountStar}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.VerifySkipping(); err != nil {
		t.Fatalf("clean metadata failed verification: %v", err)
	}

	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := e.Query(countQuery("a")); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	if err := e.VerifySkipping(); err == nil {
		t.Fatal("verification passed on corrupted metadata")
	}
	if _, ok := e.Quarantined()["a"]; !ok {
		t.Fatal("verification did not quarantine the corrupted column")
	}
}

func TestQctxCheckpointBounds(t *testing.T) {
	qc := &qctx{ctx: context.Background(), b: NewBudget(Limits{MaxRowsScanned: 100_000})}
	tk := &ticker{qc: qc}
	rows := 0
	for {
		if err := tk.tick(1000); err != nil {
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("err=%v, want ErrBudget", err)
			}
			break
		}
		rows += 1000
		if rows > 300_000 {
			t.Fatal("budget never enforced")
		}
	}
	// Enforcement lag is bounded by one checkpoint interval.
	if rows > 100_000+checkpointRows {
		t.Fatalf("budget overshoot: %d rows before error", rows)
	}
}

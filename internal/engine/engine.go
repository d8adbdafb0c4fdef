// Package engine executes queries over tables with pluggable data-skipping
// policies, closing the adaptive feedback loop: it probes skippers for
// candidate row windows, scans them with the fast kernels, and hands
// per-zone observations (with piggybacked statistics) back to the
// skippers.
package engine

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"adskip/internal/adaptive"
	"adskip/internal/core"
	"adskip/internal/faultinject"
	"adskip/internal/imprint"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// Policy selects the data-skipping policy applied to indexed columns.
type Policy int

const (
	// PolicyNone scans everything (baseline).
	PolicyNone Policy = iota
	// PolicyStatic uses fixed-granularity zonemaps.
	PolicyStatic
	// PolicyAdaptive uses adaptive zonemaps (the paper's contribution).
	PolicyAdaptive
	// PolicyImprint uses static column imprints (bin-occurrence masks per
	// zone) — a second skipping structure under the same framework.
	PolicyImprint
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyStatic:
		return "static"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyImprint:
		return "imprint"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures an Engine.
type Options struct {
	// Policy is the skipping policy for columns registered with
	// EnableSkipping.
	Policy Policy
	// StaticZoneSize is the zone size for PolicyStatic. Default 65536.
	StaticZoneSize int
	// Adaptive configures PolicyAdaptive (zero value = defaults).
	Adaptive adaptive.Config
	// Parallelism is the number of goroutines used by the COUNT fast
	// path's scans. Default 1 (serial; the experiment harness measures
	// single-threaded behavior like the paper). Results are identical at
	// any setting — counting is associative and observations are
	// per-zone.
	Parallelism int
	// Metrics receives the engine's instrumentation. Instrumentation is
	// always on: when nil, the engine creates a private registry. Share
	// one registry across engines (the DB facade does) to aggregate
	// metrics catalog-wide.
	Metrics *obs.Registry
	// Ledger is the adaptation journal: every structural or arbitration
	// change (splits, merges, arbitration flips, lifecycle events) with
	// its cause, the fingerprint of the query that triggered it, and the
	// before/after bounds. When nil, the engine creates a private ledger.
	// Share one ledger across engines (the DB facade does) so /events and
	// /adaptation see catalog-wide history; per-shard records stay
	// distinguishable by their shard stamp.
	Ledger *obs.Ledger
	// Limits bounds each query's resource consumption (zero value = no
	// limits). Enforced at cooperative checkpoints; see Limits. A caller
	// that fans one logical query out over several engines passes a shared
	// Budget to QueryBudget instead.
	Limits Limits
	// Logger receives structured log events: quarantines (error) and
	// adaptation milestones — skipper built/loaded/rebuilt and arbitration
	// flips at info, per-zone splits/merges at debug. Nil disables logging
	// entirely (the hot path pays one nil check).
	Logger *slog.Logger
	// Shard is this engine's 1-based shard number when it is one shard of
	// a table split into two or more shards (see internal/shard). 0 (the
	// default) means the engine owns the whole table. A sharded engine
	// labels every metric series with shard="N" — per-shard series stay
	// distinct in a shared registry — and stamps N into the WAL records it
	// writes so recovery can route each record back to the shard that
	// logged it.
	Shard int
}

func (o Options) withDefaults() Options {
	if o.StaticZoneSize <= 0 {
		o.StaticZoneSize = 65536
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Engine executes queries over one table.
//
// All public methods are safe for concurrent use: queries are serialized
// with a mutex because even read-only SQL mutates adaptive metadata (the
// feedback loop is what makes the structure adaptive). The scan work
// inside one query can still fan out across goroutines via
// Options.Parallelism.
type Engine struct {
	mu       sync.Mutex
	tbl      *table.Table
	opts     Options
	skippers map[string]core.Skipper

	// quarantined names columns whose skippers failed (panic or detected
	// corruption) and now fall back to full scans; see quarantineLocked.
	quarantined map[string]quarantineRecord

	// Observability: the registry and ledger may be shared across
	// engines; metric handles are resolved once so the per-query cost is
	// atomic adds only. trace is the in-flight query's trace (guarded by
	// mu, like all query state). colM has its own small mutex so the
	// history sampler can walk the per-column handles without waiting on
	// a running query's hold of mu.
	reg    *obs.Registry
	ledger *obs.Ledger
	m      engMetrics
	colMu  sync.Mutex
	colM   map[string]*colMetrics
	trace  *obs.QueryTrace
	log    *slog.Logger

	// wal, when armed via SetWAL, makes appends and updates durable:
	// mutations are logged (group-committed) before they touch the
	// columns. Guarded by mu.
	wal *wal.Log
}

// Errors returned by the engine.
var (
	ErrUnsupportedAgg = errors.New("engine: unsupported aggregate")
	ErrBadLimit       = errors.New("engine: negative limit")
)

// New creates an engine over tbl. Skipping starts disabled on all columns;
// call EnableSkipping to build metadata.
func New(tbl *table.Table, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		tbl:         tbl,
		opts:        opts,
		skippers:    make(map[string]core.Skipper),
		quarantined: make(map[string]quarantineRecord),
	}
	e.reg = opts.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.ledger = opts.Ledger
	if e.ledger == nil {
		e.ledger = obs.NewLedger(0)
	}
	e.m = newEngMetrics(e.reg, tbl.Name(), opts.Shard)
	e.colM = make(map[string]*colMetrics)
	e.log = opts.Logger
	return e
}

// Table returns the underlying table.
func (e *Engine) Table() *table.Table { return e.tbl }

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Ledger returns the adaptation ledger this engine journals into.
func (e *Engine) Ledger() *obs.Ledger { return e.ledger }

// EnableSkipping builds skipping metadata for the named columns (all
// columns when none are named) according to the engine's policy. String
// columns get their dictionaries sealed first so code order is value
// order.
func (e *Engine) EnableSkipping(cols ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(cols) == 0 {
		for _, cs := range e.tbl.Schema() {
			cols = append(cols, cs.Name)
		}
	}
	for _, name := range cols {
		if err := e.buildSkipperLocked(name, obs.EventSkipperBuilt); err != nil {
			return err
		}
	}
	return nil
}

// buildSkipperLocked constructs fresh skipping metadata for one column
// from its base data, clearing any quarantine. Caller holds e.mu.
func (e *Engine) buildSkipperLocked(name string, kind obs.EventKind) error {
	col, err := e.tbl.Column(name)
	if err != nil {
		return err
	}
	if col.Type() == storage.String {
		col.SealDict()
	}
	switch e.opts.Policy {
	case PolicyNone:
		e.skippers[name] = core.NewNoSkipper(col.Len())
	case PolicyStatic:
		e.skippers[name] = core.NewStaticSkipper(col.Codes(), col.Nulls(), e.opts.StaticZoneSize)
	case PolicyAdaptive:
		e.skippers[name] = adaptive.New(col.Codes(), col.Nulls(), e.opts.Adaptive)
	case PolicyImprint:
		e.skippers[name] = core.NewImprintSkipper(imprint.Build(col.Codes(), col.Nulls(), e.opts.StaticZoneSize))
	default:
		return fmt.Errorf("engine: unknown policy %d", e.opts.Policy)
	}
	delete(e.quarantined, name)
	e.registerSkipper(name, kind)
	return nil
}

// registerSkipper hooks a freshly installed skipper into the
// observability layer: ledger sink, lifecycle record, and gauges.
func (e *Engine) registerSkipper(name string, kind obs.EventKind) {
	s := e.skippers[name]
	if le, ok := s.(core.LedgerEmitter); ok {
		le.SetLedgerSink(e.ledgerSink(name))
	}
	md := s.Metadata()
	e.ledgerSink(name)(obs.LedgerRecord{
		Kind: kind, Cause: lifecycleCause(kind),
		ZonesAfter: md.Zones, RowHi: s.Rows(),
	})
	e.colMetrics(name).refreshGauges(s)
}

// lifecycleCause maps engine-level lifecycle kinds to ledger causes.
func lifecycleCause(kind obs.EventKind) string {
	switch kind {
	case obs.EventSkipperBuilt:
		return "build"
	case obs.EventSkipperLoad:
		return "snapshot"
	case obs.EventRebuild:
		return "manual"
	default:
		return kind.String()
	}
}

// Skipper returns the skipper for a column, or nil if none is registered.
func (e *Engine) Skipper(col string) core.Skipper { return e.skippers[col] }

// SkipperMetadata reports metadata for every registered skipper, keyed by
// column name.
func (e *Engine) SkipperMetadata() map[string]core.Metadata {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]core.Metadata, len(e.skippers))
	for name, s := range e.skippers {
		out[name] = s.Metadata()
	}
	return out
}

// NumRows returns the table's current row count under the engine mutex —
// safe against concurrent appends (Table().NumRows() is not).
func (e *Engine) NumRows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tbl.NumRows()
}

// AppendRow appends one row, validating types first so a rejected row
// cannot skew column lengths. Skipper metadata is synchronized lazily at
// the next query, so bulk ingest pays no per-row metadata cost.
func (e *Engine) AppendRow(vals ...storage.Value) error {
	return e.AppendRows([][]storage.Value{vals})
}

// AppendRows appends a batch of rows atomically with respect to queries.
// With a WAL armed (SetWAL) the batch is logged as one columnar record
// before the tail mutates, the in-memory apply happens under the engine
// mutex, and the call then blocks OUTSIDE the mutex until the record is
// durable — so an acknowledged append is always recoverable, and
// concurrent appenders coalesce into shared fsyncs (group commit) instead
// of serializing on the disk.
func (e *Engine) AppendRows(rows [][]storage.Value) error {
	c, err := e.AppendRowsAsync(rows)
	if err != nil {
		return err
	}
	return c.Wait()
}

// AppendRowsAsync is AppendRows without the durability wait: the batch is
// logged and applied, and the returned Commit lets the caller overlap
// further appends with the group commit in flight — the pipelined shape
// sustained ingest needs, since a full commit pipeline is what lets one
// fsync absorb many batches. The caller MUST NOT acknowledge the rows to
// anyone until Wait returns nil; with no WAL armed the zero Commit waits
// instantly.
func (e *Engine) AppendRowsAsync(rows [][]storage.Value) (wal.Commit, error) {
	if len(rows) == 0 {
		return wal.Commit{}, nil
	}
	e.mu.Lock()
	for _, r := range rows {
		if err := e.validateDurableRow(r); err != nil {
			e.mu.Unlock()
			return wal.Commit{}, err
		}
	}
	var commit wal.Commit
	if e.wal != nil {
		rec := &wal.Record{
			Kind:    wal.KindRows,
			Table:   e.tbl.Name(),
			Shard:   uint32(e.opts.Shard),
			BaseRow: uint64(e.tbl.NumRows()),
			Types:   e.schemaTypes(),
			Rows:    rows,
		}
		c, err := e.wal.Append(rec)
		if err != nil {
			e.mu.Unlock()
			return wal.Commit{}, fmt.Errorf("engine: durable append: %w", err)
		}
		commit = c
	}
	base := e.tbl.NumRows()
	for i, r := range rows {
		if err := e.tbl.AppendRow(r...); err != nil {
			// validateDurableRow should make this unreachable; roll the
			// block back so the table never diverges from the log's
			// BaseRow chain (replay will fail this record the same way).
			for ci := 0; ci < e.tbl.NumColumns(); ci++ {
				e.tbl.ColumnAt(ci).Truncate(base)
			}
			e.mu.Unlock()
			return wal.Commit{}, fmt.Errorf("engine: append row %d: %w", i, err)
		}
	}
	faultinject.Crash(faultinject.CrashWALAfterApply)
	e.mu.Unlock()
	return commit, nil
}

// validateDurableRow rejects, before anything is logged or applied,
// every row the table could later refuse: arity or type mismatches, NaN
// floats, and strings absent from a sealed dictionary. Caller holds e.mu.
func (e *Engine) validateDurableRow(vals []storage.Value) error {
	if err := e.tbl.ValidateRow(vals...); err != nil {
		return err
	}
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		col := e.tbl.ColumnAt(i)
		switch col.Type() {
		case storage.Float64:
			if _, _, err := col.EncodeValue(v); err != nil {
				return fmt.Errorf("column %q: %w", col.Name(), err)
			}
		case storage.String:
			if !col.DictSorted() {
				continue // unsealed dictionary accepts any string
			}
			if _, ok, err := col.EncodeValue(v); err != nil {
				return fmt.Errorf("column %q: %w", col.Name(), err)
			} else if !ok {
				return fmt.Errorf("engine: column %q: string %q not in sealed dictionary", col.Name(), v.Str())
			}
		}
	}
	return nil
}

// schemaTypes returns the table's column types in schema order.
func (e *Engine) schemaTypes() []storage.Type {
	types := make([]storage.Type, e.tbl.NumColumns())
	for i := range types {
		types[i] = e.tbl.ColumnAt(i).Type()
	}
	return types
}

// SetWAL arms (or, with nil, disarms) write-ahead logging on the append
// and update paths. The facade arms engines only after recovery has
// replayed the existing log, so replayed mutations are never re-logged.
func (e *Engine) SetWAL(l *wal.Log) {
	e.mu.Lock()
	e.wal = l
	e.mu.Unlock()
}

// WAL returns the armed log, or nil.
func (e *Engine) WAL() *wal.Log {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wal
}

// Update overwrites a cell in place and keeps skipping metadata sound by
// widening the enclosing zone's bounds. With a WAL armed the overwrite is
// logged first and the call blocks until it is durable.
func (e *Engine) Update(colName string, row int, v storage.Value) error {
	e.mu.Lock()
	col, err := e.tbl.Column(colName)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if row < 0 || row >= col.Len() {
		e.mu.Unlock()
		return fmt.Errorf("%w: %d of %d", table.ErrOutOfRange, row, col.Len())
	}
	if v.IsNull() {
		e.mu.Unlock()
		return errors.New("engine: updating a cell to NULL is unsupported (zone null counts would drift)")
	}
	var commit wal.Commit
	if e.wal != nil && updatableType(col.Type()) {
		c, err := e.wal.Append(&wal.Record{
			Kind: wal.KindUpdate, Table: e.tbl.Name(), Shard: uint32(e.opts.Shard),
			Col: colName, Row: uint64(row), Value: v,
		})
		if err != nil {
			e.mu.Unlock()
			return fmt.Errorf("engine: durable update: %w", err)
		}
		commit = c
	}
	if err := e.applyUpdateLocked(col, colName, row, v); err != nil {
		e.mu.Unlock()
		return err
	}
	faultinject.Crash(faultinject.CrashWALAfterApply)
	e.mu.Unlock()
	return commit.Wait()
}

// updatableType reports whether Update supports the column type (the WAL
// only logs updates the apply path can perform).
func updatableType(t storage.Type) bool {
	return t == storage.Int64 || t == storage.Float64
}

// applyUpdateLocked performs the in-memory half of Update: the cell
// overwrite plus the skipper widen. Caller holds e.mu and has validated
// row bounds and non-NULL.
func (e *Engine) applyUpdateLocked(col *storage.Column, colName string, row int, v storage.Value) error {
	wasNull := col.IsNull(row)
	switch col.Type() {
	case storage.Int64:
		if err := col.SetInt(row, v.Int()); err != nil {
			return err
		}
	case storage.Float64:
		if err := col.SetFloat(row, v.Float()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("engine: updates on %s columns are unsupported", col.Type())
	}
	if s, ok := e.skippers[colName]; ok {
		code, _, err := col.EncodeValue(v)
		if err != nil {
			return err
		}
		if row < s.Rows() {
			if perr := func() (err error) {
				defer recoverToError(&err)
				s.Widen(row, code)
				if wasNull {
					s.NoteNonNull(row)
				}
				return nil
			}(); perr != nil {
				e.quarantineLocked(colName, perr)
			} else {
				e.checkSkipperHealth(colName, s)
			}
		}
	}
	return nil
}

// ReplayRecord applies one recovered WAL record, bypassing the log.
// Replay is idempotent over the BaseRow chain: a rows record whose rows
// are already present is skipped, a partially present record appends only
// the missing suffix, and a record that would leave a gap errors out.
func (e *Engine) ReplayRecord(rec *wal.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch rec.Kind {
	case wal.KindRows:
		cur := uint64(e.tbl.NumRows())
		if rec.BaseRow > cur {
			return fmt.Errorf("engine: replay gap on %q: record base row %d, table has %d",
				e.tbl.Name(), rec.BaseRow, cur)
		}
		if rec.BaseRow+uint64(len(rec.Rows)) <= cur {
			return nil // fully present already
		}
		for _, r := range rec.Rows[cur-rec.BaseRow:] {
			if err := e.tbl.AppendRow(r...); err != nil {
				return fmt.Errorf("engine: replay append on %q: %w", e.tbl.Name(), err)
			}
		}
		return nil
	case wal.KindUpdate:
		col, err := e.tbl.Column(rec.Col)
		if err != nil {
			return err
		}
		if rec.Row >= uint64(col.Len()) {
			return fmt.Errorf("engine: replay update on %q.%q: row %d of %d",
				e.tbl.Name(), rec.Col, rec.Row, col.Len())
		}
		return e.applyUpdateLocked(col, rec.Col, int(rec.Row), rec.Value)
	default:
		return fmt.Errorf("engine: replay: unknown record kind %d", rec.Kind)
	}
}

// SaveSkipper serializes a column's learned adaptive zonemap. Only the
// adaptive policy has state worth persisting; other policies error.
func (e *Engine) SaveSkipper(colName string, w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.skippers[colName]
	if !ok {
		return fmt.Errorf("engine: no skipper on column %q", colName)
	}
	z, ok := s.(*adaptive.Zonemap)
	if !ok {
		return fmt.Errorf("engine: skipper on %q is %q, only adaptive zonemaps snapshot", colName, s.Metadata().Kind)
	}
	_, err := z.WriteTo(w)
	return err
}

// LoadSkipper restores a column's adaptive zonemap from a snapshot,
// replacing any registered skipper. The snapshot is validated against the
// column's current physical state (one O(n) pass) so stale metadata can
// never prune unsoundly.
func (e *Engine) LoadSkipper(colName string, r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	col, err := e.tbl.Column(colName)
	if err != nil {
		return err
	}
	z, err := adaptive.Read(r, e.opts.Adaptive)
	if err != nil {
		return err
	}
	if z.Rows() > col.Len() {
		return fmt.Errorf("engine: snapshot covers %d rows, column %q has %d", z.Rows(), colName, col.Len())
	}
	if err := z.CheckInvariants(col.Codes()[:z.Rows()], col.Nulls(), false); err != nil {
		return fmt.Errorf("engine: snapshot does not match column %q: %w", colName, err)
	}
	if col.Type() == storage.String {
		col.SealDict()
	}
	e.skippers[colName] = z
	delete(e.quarantined, colName)
	e.registerSkipper(colName, obs.EventSkipperLoad)
	return nil
}

// syncSkippers brings every skipper up to date with appended rows. Called
// at the start of each query so bulk appends amortize metadata
// maintenance.
func (e *Engine) syncSkippers() {
	for name, s := range e.skippers {
		col, err := e.tbl.Column(name)
		if err != nil {
			continue
		}
		if s.Rows() == col.Len() {
			continue
		}
		if perr := func() (err error) {
			defer recoverToError(&err)
			s.Extend(col.Codes(), col.Nulls())
			return nil
		}(); perr != nil {
			e.quarantineLocked(name, perr)
			continue
		}
		e.checkSkipperHealth(name, s)
	}
}

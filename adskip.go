// Package adskip is an embeddable main-memory column store with adaptive
// data skipping, reproducing "Adaptive Data Skipping in Main-Memory
// Systems" (Qin & Idreos, SIGMOD 2016).
//
// The store executes scan-heavy SQL over in-memory columns. Lightweight
// zone metadata (min/max per row range) lets scans skip data; the adaptive
// policy reshapes that metadata from per-query feedback — splitting zones
// where finer bounds would prune, merging zones whose metadata never
// helps, and disabling skipping entirely on columns where probing cannot
// pay for itself.
//
// Quickstart:
//
//	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
//	t, _ := db.CreateTable("sales",
//		adskip.Col("id", adskip.Int64),
//		adskip.Col("price", adskip.Float64),
//		adskip.Col("city", adskip.String))
//	t.Append(1, 9.99, "oslo")
//	t.EnableSkipping()
//	res, _ := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 10")
package adskip

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/core"
	"adskip/internal/engine"
	"adskip/internal/health"
	"adskip/internal/obs"
	"adskip/internal/shard"
	"adskip/internal/sql"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/telemetry"
	"adskip/internal/wal"
)

// Type is a column's logical type.
type Type = storage.Type

// Column types.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	String  = storage.String
)

// Value is a dynamically typed cell value.
type Value = storage.Value

// Value constructors, re-exported for result inspection and typed ingest.
var (
	IntValue    = storage.IntValue
	FloatValue  = storage.FloatValue
	StringValue = storage.StringValue
	NullValue   = storage.NullValue
)

// Policy selects the data-skipping policy.
type Policy = engine.Policy

// Skipping policies.
const (
	// None scans every row (baseline).
	None = engine.PolicyNone
	// Static uses classic fixed-granularity zonemaps.
	Static = engine.PolicyStatic
	// Adaptive uses adaptive zonemaps — the paper's contribution.
	Adaptive = engine.PolicyAdaptive
	// Imprint uses static column imprints (bin-occurrence masks per
	// zone): a second skipping structure under the same framework,
	// effective on multi-modal zones where min/max hulls cannot prune.
	Imprint = engine.PolicyImprint
)

// AdaptiveConfig tunes the adaptive policy; the zero value uses defaults.
type AdaptiveConfig = adaptive.Config

// SkipperInfo describes a column's skipping metadata.
type SkipperInfo = core.Metadata

// Result is a query result: a count, aggregate values, and/or projected
// rows, plus execution statistics (rows scanned/skipped/covered, zones
// probed) and a per-query trace (Result.Trace).
type Result = engine.Result

// Metrics is the engine-wide metrics registry: atomic counters, gauges,
// and fixed-bucket histograms, exposable in Prometheus text format
// (WritePrometheus) or JSON (WriteJSON). One registry is shared by every
// table of a DB; instrumentation is always on.
type Metrics = obs.Registry

// QueryTrace is the per-query execution trace attached to Result.Trace:
// phase timings (plan → metadata probe → scan → feedback), the
// hierarchical span tree (QueryTrace.Root), and the skipping decision each
// predicate column's skipper made.
type QueryTrace = obs.QueryTrace

// SkipmapTable is one table's skipping-effectiveness snapshot: per-column
// structure state, quarantine status, cumulative prune counters, and
// per-zone hit/miss detail for introspectable skippers. Served by the
// telemetry server's /skipmap endpoint and DB.Skipmap.
type SkipmapTable = obs.SkipmapTable

// AdaptationRecord is one adaptation-ledger entry: a structural or
// arbitration change to a column's skipping metadata (zone split/merge,
// tail fold, widen, skipping disabled/enabled, metadata built/loaded,
// quarantine/rebuild) with full provenance — cause, the query template
// whose feedback triggered it, the affected row window, and the
// before/after zone counts and value-bound hulls. Retained in a bounded
// ring; see DB.AdaptationEvents, DB.Adaptation and the telemetry /events
// and /adaptation endpoints.
type AdaptationRecord = obs.LedgerRecord

// AdaptationROI is one column's adaptation return-on-investment row:
// rows/bytes skipped (credit) against zone probes and structural
// maintenance (debit), plus dead-zone accounting.
type AdaptationROI = obs.ColumnROI

// AdaptationSnapshot is the full adaptation-ledger view returned by
// DB.Adaptation and served by /adaptation: retained records plus
// per-column ROI rows.
type AdaptationSnapshot = obs.AdaptationSnapshot

// HistorySample is one point on the adaptation timeline sampled while
// telemetry runs: cumulative query/row totals, the engine-wide skip
// ratio, estimated latency quantiles, and per-column skipping state.
// Served by the telemetry server's /history endpoint and DB.History.
type HistorySample = obs.HistorySample

// HistoryColumn is one column's skipping state inside a HistorySample.
type HistoryColumn = obs.HistoryColumn

// Objective is one declarative service-level objective evaluated against
// the adaptation timeline (e.g. "p95 ≤ 5ms", "skip rate ≥ 60%"). Set
// Options.Objectives to enable SLO tracking; see the health package for
// signal semantics.
type Objective = health.Objective

// HealthSignal names the measured series an Objective targets.
type HealthSignal = health.Signal

// The supported objective signals.
const (
	SignalLatencyP50 = health.SignalLatencyP50
	SignalLatencyP95 = health.SignalLatencyP95
	SignalErrorRate  = health.SignalErrorRate
	SignalSkipRate   = health.SignalSkipRate
	SignalQueueDepth = health.SignalQueueDepth
	SignalWALLag     = health.SignalWALLag
	// SignalSkipRegression alerts when any query template's skip rate
	// decays against its own learned baseline. Shed-exempt: it reports
	// degraded pruning quality, never overload, so DB.ShedStatus ignores
	// it. Requires workload stats (Options.StatsMaxTemplates >= 0).
	SignalSkipRegression = health.SignalSkipRegression
)

// RecoveryStats summarizes one WAL replay pass, as returned by DB.Recover.
type RecoveryStats = wal.RecoveryStats

// WALStatus is a point-in-time view of the write-ahead log.
type WALStatus = wal.Status

// HealthConfig tunes SLO evaluation: the short/mid/long burn-rate
// windows, burn thresholds, and hysteresis. The zero value uses the
// SRE-style defaults (10s/1m/5m windows, 14.4×/6× burns).
type HealthConfig = health.Config

// HealthSeverity is an objective's (or the DB's) alert state.
type HealthSeverity = health.Severity

// The alert states.
const (
	HealthOK       = health.SevOK
	HealthWarning  = health.SevWarning
	HealthCritical = health.SevCritical
)

// HealthSnapshot is the full SLO picture returned by DB.Health and
// served (with readiness semantics) by the telemetry /health endpoint.
type HealthSnapshot = health.Snapshot

// HealthAlerts holds the firing objectives and the bounded alert
// transition history, as returned by DB.Alerts and served by /alerts.
type HealthAlerts = health.AlertsSnapshot

// Limits bounds each query's resource consumption (rows scanned, result
// rows, wall-clock time). The zero value imposes no limits; enforcement
// happens at cooperative checkpoints, so overshoot is bounded by one
// checkpoint interval (65536 rows).
type Limits = engine.Limits

// WorkloadSnapshot is the point-in-time workload-analytics view returned
// by DB.Workload and served by the telemetry /workload endpoint: per-
// template call counts, latency quantiles, row/zone/byte totals, and
// zone-touch sketches.
type WorkloadSnapshot = stats.WorkloadSnapshot

// TemplateStats is one query template's aggregate inside a
// WorkloadSnapshot.
type TemplateStats = stats.TemplateSnapshot

// Workload sort orders accepted by DB.Workload.
const (
	SortTime  = stats.SortTime
	SortCalls = stats.SortCalls
	SortBytes = stats.SortBytes
)

// Resilience errors, re-exported for errors.Is checks on query results.
var (
	// ErrCanceled reports that a query's context was canceled or its
	// deadline expired mid-execution.
	ErrCanceled = engine.ErrCanceled
	// ErrBudget reports that a query exceeded one of its resource limits.
	ErrBudget = engine.ErrBudget
)

// Options configures a DB.
type Options struct {
	// Policy applies to columns on which EnableSkipping is called.
	Policy Policy
	// StaticZoneSize is the rows-per-zone for the Static policy
	// (default 65536).
	StaticZoneSize int
	// Adaptive tunes the Adaptive policy.
	Adaptive AdaptiveConfig
	// Parallelism sets the number of goroutines for count scans
	// (default 1; results are identical at any setting).
	Parallelism int
	// Limits bounds every query's resource consumption (zero = none).
	Limits Limits
	// MaxConcurrentQueries bounds in-flight queries across all tables of
	// this DB (0 = unbounded). Excess queries wait for admission and
	// honor their context while waiting.
	MaxConcurrentQueries int
	// TraceRingSize is how many recent query traces the DB retains for
	// DB.Traces and the telemetry server's /traces endpoint (default 256).
	TraceRingSize int
	// SlowQueryThreshold flags queries whose wall clock meets or exceeds
	// it: their traces are marked slow and copied to the slow-query log
	// (DB.SlowTraces, /slow). Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// Logger receives structured log events from every table:
	// slow queries at warn, quarantines at error, adaptation milestones
	// at info, per-zone structural churn at debug. Nil disables logging
	// (the hot path then pays one nil check).
	Logger *slog.Logger
	// HistoryInterval is the adaptation-timeline sampling period while
	// telemetry runs (default 1s). The sampler starts with StartTelemetry
	// and stops with Close.
	HistoryInterval time.Duration
	// HistoryCapacity is how many timeline samples the DB retains
	// (default 1024 — about 17 minutes at the default interval).
	HistoryCapacity int
	// Objectives declares the DB's service-level objectives. When any are
	// set, the adaptation-timeline sampler starts at Open (not just at
	// StartTelemetry) and a health monitor evaluates every objective each
	// tick; DB.Health, DB.Alerts, and the telemetry /health and /alerts
	// endpoints report the result. Objectives with an unknown signal
	// panic at Open — a misdeclared SLO is a programming error the
	// process should not limp past. Remember to Close a DB with
	// objectives: the sampler owns a goroutine.
	Objectives []Objective
	// Health tunes objective evaluation (windows, burn thresholds,
	// hysteresis). Ignored unless Objectives is non-empty.
	Health HealthConfig
	// Durability, when Dir is set, arms a write-ahead log: appends and
	// updates are group-committed to disk before they are acknowledged,
	// and DB.Recover replays them after a crash. A DB opened with
	// durability starts in recovering state — load the deterministic base
	// data (CreateTable/LoadTable + bulk load), then call Recover before
	// serving mutations.
	Durability Durability
	// StatsMaxTemplates bounds the workload-analytics table: how many
	// distinct query templates (literal-stripped fingerprints) the DB
	// tracks before LRU eviction. 0 means the default (256); negative
	// disables workload analytics entirely — SQL queries then skip
	// fingerprint attribution and the /workload endpoint reports an
	// empty table.
	StatsMaxTemplates int
	// StatsZoneSketch bounds each template's zone-touch sketch (distinct
	// zone IDs recorded across all columns; 0 = default 512, negative
	// disables the sketch). See DESIGN §12.
	StatsZoneSketch int
	// Shards partitions every table created on this DB into per-core
	// shards behind a scatter-gather executor: queries shard-prune by
	// observed key bounds before any zone metadata is consulted, fan out
	// to the survivors in parallel, and merge. 0 or 1 means one shard:
	// the same query path with no shard key and no shard pruning. See
	// DESIGN §13.
	Shards int
	// ShardKey names the shard key column (BIGINT or DOUBLE). Empty picks
	// each table's first numeric column. Ignored unless Shards > 1.
	ShardKey string
	// ShardBy selects the routing mode: "range" (default — learned
	// equi-depth bounds, range predicates on the key prune shards) or
	// "hash" (uniform placement, little shard pruning). Has no effect
	// unless Shards > 1, but any other value fails CreateTable.
	ShardBy string
}

// Durability configures the write-ahead log (see Options.Durability).
type Durability struct {
	// Dir is the WAL segment directory; empty disables durability.
	Dir string
	// GroupWindow bounds how long a commit may linger waiting to share an
	// fsync with concurrent writers (default 2ms). Larger windows
	// amortize fsync across more writers at the cost of commit latency.
	GroupWindow time.Duration
	// SegmentBytes is the segment rotation threshold (default 64 MiB).
	SegmentBytes int64
	// FlushBytes flushes a pending batch early once it exceeds this many
	// bytes (default 1 MiB).
	FlushBytes int64
	// DisableFsync keeps the logging and group-commit machinery but skips
	// fsync — for benchmarks isolating fsync cost. No crash durability.
	DisableFsync bool
}

// ColumnDef defines one column of a new table.
type ColumnDef struct {
	Name string
	Type Type
}

// Col is a convenience constructor for ColumnDef.
func Col(name string, typ Type) ColumnDef { return ColumnDef{Name: name, Type: typ} }

// DB is a catalog of tables sharing one skipping configuration and one
// observability plane (metrics registry, adaptation ledger, trace
// rings, workload table, and an optional embedded telemetry
// server). Every table is a shard manager of Options.Shards shards (one
// when unset), so sharded and unsharded tables run one query path.
type DB struct {
	opts      Options
	reg       *obs.Registry
	ledger    *obs.Ledger
	admission *engine.Admission
	traces    *obs.TraceRing
	slow      *obs.TraceRing

	// mu guards the catalog and the telemetry handle: the telemetry
	// server's Skipmap/trace closures read tables concurrently with
	// CreateTable/LoadTable/LoadCSV.
	mu      sync.RWMutex
	tables  map[string]*shard.Manager
	telem   *telemetry.Server
	sampler *obs.Sampler

	// stats is the catalog-wide workload analytics table (nil when
	// Options.StatsMaxTemplates is negative). Set once at Open.
	stats *stats.Table

	// monitor evaluates Options.Objectives on each sampler tick. Set once
	// at Open (immutable afterwards), nil when no objectives are declared.
	monitor     *health.Monitor
	unsubHealth func()

	// wal is the armed write-ahead log (nil until Recover completes on a
	// DB with Options.Durability). Guarded by mu; recovering is read on
	// request paths, hence atomic. recoverMu serializes whole Recover
	// calls, so two concurrent callers cannot both open (and double-
	// replay) the same directory.
	wal        *wal.Log
	recoverMu  sync.Mutex
	recovering atomic.Bool
}

// DB-level errors.
var (
	ErrNoSuchTable = errors.New("adskip: no such table")
	ErrTableExists = errors.New("adskip: table already exists")
)

// Open creates an empty database. When Options.Objectives is non-empty
// the adaptation-timeline sampler and the SLO monitor start immediately
// (headless health: no telemetry server required); Close stops them.
func Open(opts Options) *DB {
	db := &DB{
		opts:      opts,
		tables:    make(map[string]*shard.Manager),
		reg:       obs.NewRegistry(),
		ledger:    obs.NewLedger(0),
		admission: engine.NewAdmission(opts.MaxConcurrentQueries),
		traces:    obs.NewTraceRing(opts.TraceRingSize),
		slow:      obs.NewTraceRing(opts.TraceRingSize),
	}
	if opts.StatsMaxTemplates >= 0 {
		db.stats = stats.New(stats.Options{
			MaxTemplates:   opts.StatsMaxTemplates,
			ZoneSketchSize: opts.StatsZoneSketch,
			Registry:       db.reg,
		})
	}
	// A durable DB starts in recovering state: mutations are not durable
	// (and servers should refuse them) until Recover has replayed the log
	// and armed the engines.
	db.recovering.Store(opts.Durability.Dir != "")
	if len(opts.Objectives) > 0 {
		smp := obs.NewSampler(opts.HistoryInterval, opts.HistoryCapacity, db.fillHistory)
		mon, err := health.New(opts.Objectives, smp.Interval(), opts.Health, db.reg, opts.Logger)
		if err != nil {
			smp.Stop()
			panic("adskip: " + err.Error())
		}
		db.monitor = mon
		db.unsubHealth = smp.Subscribe(mon.OnSample)
		db.mu.Lock()
		db.sampler = smp
		db.mu.Unlock()
	}
	return db
}

// shardOptions maps DB options onto per-table shard manager options. All
// tables share the DB's registry, ledger, admission control,
// trace rings and workload table, so /traces and DB.Traces interleave
// queries across the whole catalog in arrival order.
func (db *DB) shardOptions() (shard.Options, error) {
	mode, err := shard.ParseMode(db.opts.ShardBy)
	if err != nil {
		return shard.Options{}, fmt.Errorf("adskip: %w", err)
	}
	return shard.Options{
		Shards:             max(db.opts.Shards, 1),
		Key:                db.opts.ShardKey,
		Mode:               mode,
		Admission:          db.admission,
		Traces:             db.traces,
		SlowTraces:         db.slow,
		SlowQueryThreshold: db.opts.SlowQueryThreshold,
		Stats:              db.stats,
		Engine: engine.Options{
			Policy:         db.opts.Policy,
			StaticZoneSize: db.opts.StaticZoneSize,
			Adaptive:       db.opts.Adaptive,
			Parallelism:    db.opts.Parallelism,
			Metrics:        db.reg,
			Ledger:         db.ledger,
			Limits:         db.opts.Limits,
			Logger:         db.opts.Logger,
		},
	}, nil
}

// managers returns the catalog's tables, read under the catalog lock.
func (db *DB) managers() []*shard.Manager {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*shard.Manager, 0, len(db.tables))
	for _, m := range db.tables {
		out = append(out, m)
	}
	return out
}

// Traces returns the most recent query traces across all tables,
// oldest-first (bounded ring; see Options.TraceRingSize).
func (db *DB) Traces() []*QueryTrace { return db.traces.Snapshot() }

// SlowTraces returns the retained slow-query traces, oldest-first. Empty
// unless Options.SlowQueryThreshold is set.
func (db *DB) SlowTraces() []*QueryTrace { return db.slow.Snapshot() }

// Workload returns the per-template workload statistics: the top-k query
// templates under the given sort order (adskip.SortTime, SortCalls, or
// SortBytes; "" sorts by total time, k <= 0 returns every template).
// Empty when Options.StatsMaxTemplates is negative.
func (db *DB) Workload(sortBy string, k int) WorkloadSnapshot {
	return db.stats.Snapshot(sortBy, k)
}

// Skipmap returns a skipping-effectiveness snapshot for every table,
// sorted by table name. maxZones caps the per-zone detail per column
// (<= 0 returns every zone); counters are cumulative since each skipper
// was built.
func (db *DB) Skipmap(maxZones int) []SkipmapTable {
	var out []SkipmapTable
	for _, m := range db.managers() {
		out = append(out, m.Skipmaps(maxZones)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// Adaptation returns the adaptation-ledger snapshot: the retained
// zone-lifecycle records (oldest-first, with drop accounting) and one
// ROI row per column per shard across the whole catalog. maxDead caps
// each column's dead-zone detail (<= 0 omits the detail, keeping the
// counts).
func (db *DB) Adaptation(maxDead int) AdaptationSnapshot {
	snap := AdaptationSnapshot{
		Total:   db.ledger.Seq(),
		Dropped: db.ledger.Dropped(),
		Events:  db.ledger.Records(),
		ROI:     []AdaptationROI{},
	}
	for _, m := range db.managers() {
		snap.ROI = append(snap.ROI, m.AdaptationROI(maxDead)...)
	}
	sort.Slice(snap.ROI, func(i, j int) bool {
		a, b := snap.ROI[i], snap.ROI[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Shard < b.Shard
	})
	return snap
}

// StartTelemetry starts the embedded telemetry HTTP server on addr
// ("127.0.0.1:0" when empty — an ephemeral localhost port) and returns
// the server's base URL. The server exposes /metrics (Prometheus),
// /metrics.json, /traces, /slow, /skipmap, /events, /runtime, /history,
// /health, /alerts, /workload, /adaptation, /dash, and /debug/pprof/*;
// it runs until DB.Close. The adaptation-
// timeline sampler (behind /history and DB.History) starts alongside
// and also stops at Close. Starting twice is an error.
func (db *DB) StartTelemetry(addr string) (string, error) {
	// The sampler (unless Open already started one for SLO tracking) is
	// created before the catalog lock is taken: it takes its first sample
	// synchronously, and fillHistory needs the read lock. Stopping it (on
	// a lost start race) must also happen outside the lock for the same
	// reason.
	db.mu.RLock()
	smp := db.sampler
	db.mu.RUnlock()
	created := smp == nil
	if created {
		smp = obs.NewSampler(db.opts.HistoryInterval, db.opts.HistoryCapacity, db.fillHistory)
	}
	src := telemetry.Source{
		Registry:   db.reg,
		Traces:     db.traces,
		SlowTraces: db.slow,
		Events:     db.ledger.Records,
		Skipmap:    db.Skipmap,
		History:    smp,
	}
	if db.monitor != nil {
		src.Health = func() (health.Snapshot, bool) { return db.monitor.Snapshot(), true }
		src.Alerts = db.monitor.Alerts
	}
	src.Workload = db.stats
	src.Adaptation = db.Adaptation
	db.mu.Lock()
	if db.telem != nil {
		db.mu.Unlock()
		if created {
			smp.Stop()
		}
		return "", errors.New("adskip: telemetry server already running")
	}
	db.sampler = smp
	srv, err := telemetry.Start(telemetry.Options{Addr: addr}, src)
	if err != nil {
		if created {
			db.sampler = nil
		}
		db.mu.Unlock()
		if created {
			smp.Stop()
		}
		return "", err
	}
	db.telem = srv
	db.mu.Unlock()
	return srv.URL(), nil
}

// Health reports the DB's current SLO evaluation. ok is false when no
// Objectives were declared at Open.
func (db *DB) Health() (HealthSnapshot, bool) {
	if db.monitor == nil {
		return HealthSnapshot{}, false
	}
	return db.monitor.Snapshot(), true
}

// HealthStatus returns the overall alert state (HealthOK when no
// objectives are declared). Lock-free: safe to call per request.
func (db *DB) HealthStatus() HealthSeverity {
	if db.monitor == nil {
		return HealthOK
	}
	return db.monitor.Status()
}

// ShedStatus returns the load-shedding severity: the overall alert
// state restricted to shed-eligible signals. Shed-exempt signals (skip
// regression — a pruning-quality report, not overload) can turn
// HealthStatus critical without ever raising ShedStatus, so a
// refuse-on-critical server gate should read this one. Lock-free.
func (db *DB) ShedStatus() HealthSeverity {
	if db.monitor == nil {
		return HealthOK
	}
	return db.monitor.ShedStatus()
}

// Alerts returns the firing objectives and retained alert transitions
// (zero value when no objectives are declared).
func (db *DB) Alerts() HealthAlerts {
	if db.monitor == nil {
		return HealthAlerts{Active: []health.ObjectiveStatus{}, History: []health.Transition{}}
	}
	return db.monitor.Alerts()
}

// History returns the retained adaptation-timeline samples oldest-first.
// Empty until the sampler starts — at Open when Objectives are declared,
// otherwise at StartTelemetry.
func (db *DB) History() []HistorySample {
	db.mu.RLock()
	s := db.sampler
	db.mu.RUnlock()
	if s == nil {
		return nil
	}
	return s.Snapshot()
}

// fillHistory is the sampler's fill callback: it aggregates every
// table's cumulative totals and per-column skipping state into one
// sample and estimates latency quantiles from the tables' merged
// latency histograms. It runs on the sampler goroutine; the only
// allocations are the catalog-lock-bounded table list and, on column
// growth, the sample's column slice.
func (db *DB) fillHistory(s *HistorySample) {

	// The merged latency histogram lives on the sample itself (slot slice
	// reused by the ring), so the health monitor can window per-tick
	// bucket deltas without another copy.
	bounds := obs.LatencyBuckets()
	buckets := s.LatencyBuckets[:0]
	for i := 0; i < len(bounds)+1; i++ {
		buckets = append(buckets, 0)
	}
	for _, m := range db.managers() {
		m.FillHistory(s)
		m.AccumulateLatency(buckets)
	}
	s.LatencyBuckets = buckets
	s.QueueDepth = db.admission.Waiting()
	if denom := s.RowsSkipped + s.RowsScanned; denom > 0 {
		s.SkipRatio = float64(s.RowsSkipped) / float64(denom)
	}
	s.LatencyP50 = obs.QuantileFromBuckets(bounds, buckets, 0.50)
	s.LatencyP95 = obs.QuantileFromBuckets(bounds, buckets, 0.95)
	s.AdaptEvents = int64(db.ledger.Seq())
	// Worst per-template skip-rate decay vs its learned baseline — the
	// skip_regression health signal (0 without workload stats).
	s.SkipRegression = db.stats.RegressionGap()
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l != nil {
		s.WALLagSeconds = l.Lag().Seconds()
	}
}

// TelemetryAddr returns the telemetry server's bound listen address, or
// "" when no server is running.
func (db *DB) TelemetryAddr() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.telem == nil {
		return ""
	}
	return db.telem.Addr()
}

// Close releases the DB's background resources: the telemetry server (if
// started) shuts down along with its runtime collector goroutine, and the
// adaptation-timeline sampler is stopped and joined. Tables stay readable
// after Close; only telemetry stops. Safe to call on a DB that never
// started telemetry.
func (db *DB) Close() error {
	db.mu.Lock()
	srv := db.telem
	smp := db.sampler
	l := db.wal
	db.telem = nil
	db.sampler = nil
	db.wal = nil
	db.mu.Unlock()
	if db.unsubHealth != nil {
		db.unsubHealth()
	}
	if smp != nil {
		smp.Stop()
	}
	var err error
	if l != nil {
		// Flush and fsync the log before the process can exit: the drain
		// half of SIGTERM handling.
		err = l.Close()
	}
	if srv != nil {
		err = errors.Join(err, srv.Close())
	}
	return err
}

// Metrics returns the database's metrics registry, shared by all tables.
// Use WritePrometheus or WriteJSON on it for exposition.
func (db *DB) Metrics() *Metrics { return db.reg }

// AdaptationEvents returns a chronological copy of the retained
// adaptation-ledger records across all tables (bounded ring; oldest drop
// first).
func (db *DB) AdaptationEvents() []AdaptationRecord { return db.ledger.Records() }

// ExplainAnalyze parses and executes a SQL SELECT, returning the rendered
// EXPLAIN ANALYZE plan (phase timings, per-predicate estimated vs actual
// pruning) alongside the executed result. Equivalent to Exec with an
// "EXPLAIN ANALYZE" prefix, but returns the lines directly.
func (db *DB) ExplainAnalyze(query string) ([]string, *Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	e, ok := db.lookup(stmt.Table)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, stmt.Table)
	}
	q, err := sql.Plan(stmt, e.Table())
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	if db.stats != nil {
		ctx = obs.WithTemplate(ctx, sql.Fingerprint(stmt))
	}
	return e.ExplainAnalyzeContext(ctx, q)
}

// lookup resolves a table name to its manager under the catalog lock.
func (db *DB) lookup(name string) (*shard.Manager, bool) {
	db.mu.RLock()
	m, ok := db.tables[name]
	db.mu.RUnlock()
	return m, ok
}

// register adds a table to the catalog; it fails if the name is taken.
// Tables created after Recover are armed with the WAL immediately.
func (db *DB) register(name string, m *shard.Manager) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	db.tables[name] = m
	if db.wal != nil {
		m.SetWAL(db.wal)
	}
	return nil
}

// Recovering reports whether the DB is a durable store that has not yet
// completed Recover. Servers refuse mutations (and queries, whose answers
// would predate the replayed tail) while recovering. Lock-free.
func (db *DB) Recovering() bool { return db.recovering.Load() }

// Recover replays the write-ahead log at Options.Durability.Dir into the
// catalog's tables, verifies every table's skipping metadata against the
// recovered contents, then arms the WAL so subsequent appends and updates
// are durable. Call it exactly once, after the deterministic base data is
// loaded (replay routes records by table name and errors on unknown
// tables) and before serving mutations. On a fresh directory it succeeds
// with zero records — Recover is how a durable DB arms its WAL, crash or
// no crash.
func (db *DB) Recover() (RecoveryStats, error) {
	if db.opts.Durability.Dir == "" {
		return RecoveryStats{}, errors.New("adskip: Options.Durability.Dir not set")
	}
	// Hold recoverMu across open+verify+arm: a second concurrent Recover
	// must observe the first one's armed WAL, not race past the check and
	// replay the directory twice.
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	db.mu.RLock()
	armed := db.wal != nil
	db.mu.RUnlock()
	if armed {
		return RecoveryStats{}, errors.New("adskip: Recover already completed")
	}
	d := db.opts.Durability
	l, stats, err := wal.Open(wal.Options{
		Dir:          d.Dir,
		GroupWindow:  d.GroupWindow,
		SegmentBytes: d.SegmentBytes,
		FlushBytes:   d.FlushBytes,
		NoSync:       d.DisableFsync,
		Metrics:      db.reg,
		Logger:       db.opts.Logger,
	}, func(rec *wal.Record) error {
		e, ok := db.lookup(rec.Table)
		if !ok {
			return fmt.Errorf("%w: %q (create tables before Recover)", ErrNoSuchTable, rec.Table)
		}
		return e.ReplayRecord(rec)
	})
	if err != nil {
		return stats, err
	}
	// The replayed state must satisfy every skipping invariant before the
	// store accepts new writes on top of it.
	var verr error
	for _, m := range db.managers() {
		if err := m.VerifySkipping(); err != nil {
			verr = errors.Join(verr, fmt.Errorf("table %q: %w", m.Table().Name(), err))
		}
	}
	if verr != nil {
		l.Close()
		return stats, fmt.Errorf("adskip: recovery verification failed: %w", verr)
	}
	db.mu.Lock()
	db.wal = l
	for _, m := range db.tables {
		m.SetWAL(l)
	}
	db.mu.Unlock()
	db.recovering.Store(false)
	return stats, nil
}

// WALStatus reports the write-ahead log's current state; ok is false
// until Recover has armed it.
func (db *DB) WALStatus() (WALStatus, bool) {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return WALStatus{}, false
	}
	return l.Status(), true
}

// SyncWAL forces everything logged so far to disk and waits — the drain
// path for graceful shutdown. No-op without an armed WAL.
func (db *DB) SyncWAL() error {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return nil
	}
	return l.Sync()
}

// CompactWAL recycles WAL segments whose every record has LSN <=
// throughLSN, asserting those records are captured elsewhere (e.g. via
// SaveTable). LSNs are stable across restarts, so a horizon recorded
// alongside a snapshot stays valid after a crash and recovery. Returns
// how many segments were recycled.
func (db *DB) CompactWAL(throughLSN uint64) (int, error) {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return 0, errors.New("adskip: no WAL armed")
	}
	return l.Compact(throughLSN)
}

// CreateTable creates a table with the given columns.
func (db *DB) CreateTable(name string, cols ...ColumnDef) (*Table, error) {
	if _, dup := db.lookup(name); dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	schema := make(table.Schema, len(cols))
	for i, c := range cols {
		schema[i] = table.ColumnSpec{Name: c.Name, Type: c.Type}
	}
	tbl, err := table.New(name, schema)
	if err != nil {
		return nil, err
	}
	m, err := db.newManager(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(name, m); err != nil {
		return nil, err
	}
	return &Table{m: m}, nil
}

// newManager builds a table's query path: a shard manager adopting tbl
// as its one shard, or — when Options.Shards > 1 — partitioning tbl's
// rows across per-core shard engines.
func (db *DB) newManager(tbl *table.Table) (*shard.Manager, error) {
	so, err := db.shardOptions()
	if err != nil {
		return nil, err
	}
	m, err := shard.NewFromTable(tbl, so)
	if err != nil {
		return nil, fmt.Errorf("adskip: %w", err)
	}
	return m, nil
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, error) {
	m, ok := db.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return &Table{m: m}, nil
}

// TableNames lists the catalog in lexicographic order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Exec parses and executes a SQL SELECT, routing by the FROM table.
// EXPLAIN statements return the plan as rows of a single "plan" column.
func (db *DB) Exec(query string) (*Result, error) {
	return db.ExecContext(context.Background(), query)
}

// ExecContext is Exec under a context: execution checks ctx at cooperative
// checkpoints (at least once per 65536 rows scanned), so cancellation and
// deadlines take effect mid-scan. A canceled query returns an error
// wrapping ErrCanceled.
func (db *DB) ExecContext(ctx context.Context, query string) (*Result, error) {
	t0 := time.Now()
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	e, ok := db.lookup(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, stmt.Table)
	}
	res, err := sql.ExecParsedContext(ctx, e, stmt)
	if res != nil && res.Trace != nil && res.Trace.Root != nil {
		res.Trace.Root.AttachFirst(&obs.Span{Name: "parse", Start: t0, Duration: parse})
	}
	return res, err
}

// SaveTable serializes a table snapshot to w (binary, checksummed).
func (db *DB) SaveTable(name string, w io.Writer) error {
	m, ok := db.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	tbl, err := m.Merged()
	if err != nil {
		return err
	}
	_, err = tbl.WriteTo(w)
	return err
}

// LoadTable reads a table snapshot from r and registers it in the
// catalog under its stored name.
func (db *DB) LoadTable(r io.Reader) (*Table, error) {
	tbl, err := table.Read(r)
	if err != nil {
		return nil, err
	}
	m, err := db.newManager(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(tbl.Name(), m); err != nil {
		return nil, err
	}
	return &Table{m: m}, nil
}

// CSVOptions re-exports the table layer's CSV ingest options.
type CSVOptions = table.CSVOptions

// LoadCSV ingests a CSV stream as a new table, inferring column types
// from a data prefix unless opts.Schema is set.
func (db *DB) LoadCSV(name string, r io.Reader, opts CSVOptions) (*Table, error) {
	if _, dup := db.lookup(name); dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	tbl, err := table.ReadCSV(r, name, opts)
	if err != nil {
		return nil, err
	}
	m, err := db.newManager(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(name, m); err != nil {
		return nil, err
	}
	return &Table{m: m}, nil
}

// Table is a handle to one table and its shard manager.
type Table struct {
	m *shard.Manager
}

// WriteCSV writes the table's rows as CSV with a header. NULLs render as
// nullLit. On a sharded table the export is a merged snapshot.
func (t *Table) WriteCSV(w io.Writer, nullLit string) error {
	tbl, err := t.m.Merged()
	if err != nil {
		return err
	}
	return tbl.WriteCSV(w, nullLit)
}

// SaveSkipping serializes a column's learned adaptive zonemap so the
// refinement paid for by past queries survives restarts.
func (t *Table) SaveSkipping(col string, w io.Writer) error {
	return t.m.SaveSkipper(col, w)
}

// LoadSkipping restores a column's adaptive zonemap from a snapshot,
// verifying it against the column's current contents.
func (t *Table) LoadSkipping(col string, r io.Reader) error {
	return t.m.LoadSkipper(col, r)
}

// Name returns the table name.
func (t *Table) Name() string { return t.m.Table().Name() }

// NumRows returns the current row count.
func (t *Table) NumRows() int { return t.m.NumRows() }

// Shards returns the table's shard count: 1 for an unsharded table.
func (t *Table) Shards() int { return t.m.Shards() }

// Append ingests one row using native Go values: int/int64 for BIGINT,
// float64 for DOUBLE, string for VARCHAR, nil for NULL.
func (t *Table) Append(vals ...interface{}) error {
	tbl := t.m.Table()
	schema := tbl.Schema()
	if len(vals) != len(schema) {
		return fmt.Errorf("adskip: got %d values, schema has %d columns", len(vals), len(schema))
	}
	converted := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := toValue(v, schema[i].Type)
		if err != nil {
			return fmt.Errorf("column %q: %w", schema[i].Name, err)
		}
		converted[i] = cv
	}
	return t.m.AppendRow(converted...)
}

// AppendValues ingests one row of typed Values.
func (t *Table) AppendValues(vals ...Value) error { return t.m.AppendRow(vals...) }

// AppendBatch ingests a batch of typed rows atomically with respect to
// queries. On a durable DB the whole batch is one WAL record and one
// group-commit wait, so batching is the high-throughput ingest path.
func (t *Table) AppendBatch(rows [][]Value) error { return t.m.AppendRows(rows) }

// Update overwrites one cell in place (BIGINT and DOUBLE columns).
func (t *Table) Update(col string, row int, v interface{}) error {
	tbl := t.m.Table()
	c, err := tbl.Column(col)
	if err != nil {
		return err
	}
	cv, err := toValue(v, c.Type())
	if err != nil {
		return err
	}
	return t.m.Update(col, row, cv)
}

// EnableSkipping builds skipping metadata on the named columns (all when
// none given) using the database's policy.
func (t *Table) EnableSkipping(cols ...string) error { return t.m.EnableSkipping(cols...) }

// SkipperInfo reports per-column metadata state.
func (t *Table) SkipperInfo() map[string]SkipperInfo { return t.m.SkipperMetadata() }

// Query executes an engine-level query directly (advanced API; most
// callers use DB.Exec with SQL).
func (t *Table) Query(q engine.Query) (*Result, error) {
	return t.m.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: cancellation and deadlines take
// effect at cooperative scan checkpoints.
func (t *Table) QueryContext(ctx context.Context, q engine.Query) (*Result, error) {
	return t.m.QueryContext(ctx, q)
}

// Quarantined reports columns whose skipping metadata was pulled from
// service after a failure (panic or detected corruption), keyed to the
// error that benched each one. Quarantined columns run full scans —
// correct, just slower — until RebuildSkipping, EnableSkipping, or
// LoadSkipping reinstates metadata.
func (t *Table) Quarantined() map[string]error { return t.m.Quarantined() }

// RebuildSkipping reconstructs skipping metadata from base column data on
// the named columns (all quarantined columns when none are named),
// clearing their quarantine.
func (t *Table) RebuildSkipping(cols ...string) error { return t.m.RebuildSkipping(cols...) }

// VerifySkipping revalidates skipping metadata against column contents
// (one O(rows) pass per column), quarantining any column that fails.
func (t *Table) VerifySkipping(cols ...string) error { return t.m.VerifySkipping(cols...) }

// Executor exposes the table's shard manager behind the sql.Executor
// surface, for callers that plan queries themselves.
func (t *Table) Executor() sql.Executor { return t.m }

// toValue converts a native Go value to a typed Value for the target
// column type.
func toValue(v interface{}, want Type) (Value, error) {
	if v == nil {
		return NullValue(want), nil
	}
	switch x := v.(type) {
	case Value:
		return x, nil
	case int:
		return coerceInt(int64(x), want)
	case int32:
		return coerceInt(int64(x), want)
	case int64:
		return coerceInt(x, want)
	case float64:
		if want != Float64 {
			return Value{}, fmt.Errorf("adskip: float64 value for %s column", want)
		}
		return FloatValue(x), nil
	case string:
		if want != String {
			return Value{}, fmt.Errorf("adskip: string value for %s column", want)
		}
		return StringValue(x), nil
	default:
		return Value{}, fmt.Errorf("adskip: unsupported Go type %T", v)
	}
}

func coerceInt(x int64, want Type) (Value, error) {
	switch want {
	case Int64:
		return IntValue(x), nil
	case Float64:
		return FloatValue(float64(x)), nil
	default:
		return Value{}, fmt.Errorf("adskip: integer value for %s column", want)
	}
}

// Package shard is the one query path of every table: a Manager owns a
// logical table of N >= 1 shards, each backed by its own engine.Engine
// with private adaptive zonemap state, and is the only owner of
// query-level accounting — admission, pprof template labels, the
// workload sample, the trace and slow-query rings, the slow-query log,
// the adskip_query_seconds histogram, history counts and the EXPLAIN
// ANALYZE footers. The engines are pure shard executors.
//
// A 1-shard table runs every query and append straight on its engine.
// With N >= 2 a query (1) prunes shards whose observed key bounds cannot
// intersect the predicate — data skipping one level above zones — then
// (2) runs a lone surviving shard inline, or fans the scan out to the
// survivors on parallel workers with cooperative cancellation and one
// shared resource budget, and (3) merges the partial results with a
// deterministic output order.
//
// Shard pruning is correct independently of routing quality: each shard
// tracks the observed min/max key codes (and NULL-key count) of the rows
// it actually holds, widen-only, so a shard is eliminated only when no
// row in it can satisfy the predicate — exactly the zone-pruning
// argument applied to one giant zone per shard. Routing (range by
// learned equi-depth bounds, or hash) only decides how WELL pruning
// works, never whether results are right.
package shard

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// Mode selects how rows are routed to shards.
type Mode uint8

const (
	// ModeRange routes by learned equi-depth split bounds on the key
	// column: the first sizable batch (or the full data when partitioning
	// an existing table) fixes the bounds, and range predicates on the
	// key then prune most shards. The default.
	ModeRange Mode = iota
	// ModeHash routes by a multiplicative hash of the key code: uniform
	// placement, parallel appends, but range predicates touch all shards
	// (point predicates still prune via observed bounds when lucky).
	ModeHash
)

// String names the mode ("range", "hash").
func (m Mode) String() string {
	switch m {
	case ModeRange:
		return "range"
	case ModeHash:
		return "hash"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses "range" or "hash".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "range":
		return ModeRange, nil
	case "hash":
		return ModeHash, nil
	}
	return 0, fmt.Errorf("shard: unknown mode %q (want range or hash)", s)
}

// learnRowsPerShard is the minimum batch size (rows per shard) before
// range bounds are learned from a batch; smaller batches round-robin
// until a sizable one arrives.
const learnRowsPerShard = 8

// Options configures a Manager.
type Options struct {
	// Shards is the shard count; must be >= 1. One shard is an unsharded
	// table: no shard key, no shard pruning, and an engine whose metrics
	// and WAL records carry no shard number.
	Shards int
	// Key names the shard key column. It must be an Int64 or Float64
	// column (string dictionary codes are not comparable across shards).
	// "" picks the first numeric column of the schema. Ignored with one
	// shard.
	Key string
	// Mode is the routing mode (default ModeRange).
	Mode Mode
	// Admission, when non-nil, bounds the number of concurrently
	// executing logical queries. Share one controller across tables (the
	// DB facade does) to bound catalog-wide concurrency.
	Admission *engine.Admission
	// Traces receives every completed logical query trace. When nil, the
	// Manager creates a private ring. Share one ring across tables (the
	// DB facade does) so the telemetry server sees catalog-wide history.
	Traces *obs.TraceRing
	// SlowTraces receives traces of queries exceeding SlowQueryThreshold.
	// When nil, the Manager creates a private ring.
	SlowTraces *obs.TraceRing
	// SlowQueryThreshold marks queries whose total wall clock meets or
	// exceeds it as slow: the trace is flagged, copied to the slow-query
	// log, counted, and logged at warn. Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// Stats, when non-nil, receives one workload sample per logical query
	// that arrived with a template fingerprint on its context (see
	// obs.WithTemplate). Queries without a fingerprint skip the
	// attribution path entirely.
	Stats *stats.Table
	// Engine is the per-shard engine configuration. The Manager stamps
	// Shard 1..Shards when there are two or more shards, shares Metrics
	// and Ledger between its engines (creating them when nil), and
	// enforces Limits once per logical query.
	Engine engine.Options
}

// shardState is one shard: its engine plus the observed key bounds used
// for pruning. Bounds only widen, and are widened BEFORE rows are
// applied, so pruning can never eliminate a shard holding a matching row.
type shardState struct {
	id  int // 1-based
	eng *engine.Engine

	mu    sync.Mutex
	seen  bool  // any non-NULL key observed
	lo    int64 // observed min key code
	hi    int64 // observed max key code
	nulls int64 // rows observed with a NULL key

	mRows *obs.Gauge
}

// widen folds a batch's observed key stats into the shard's bounds.
func (s *shardState) widen(lo, hi int64, seen bool, nulls int64) {
	s.mu.Lock()
	if seen {
		if !s.seen {
			s.seen, s.lo, s.hi = true, lo, hi
		} else {
			if lo < s.lo {
				s.lo = lo
			}
			if hi > s.hi {
				s.hi = hi
			}
		}
	}
	s.nulls += nulls
	s.mu.Unlock()
}

// Manager is a table of one or more shards behind the query surface of
// one engine (it implements sql.Executor). All methods are safe for
// concurrent use; appends to distinct shards and queries against
// distinct shards proceed in parallel.
type Manager struct {
	name   string
	proto  *table.Table // planning schema: the data table itself with one shard
	shards []*shardState
	key    string
	keyIdx int
	mode   Mode

	admission *engine.Admission
	limits    engine.Limits
	traces    *obs.TraceRing
	slow      *obs.TraceRing
	slowThr   time.Duration
	log       *slog.Logger
	stats     *stats.Table
	ledger    *obs.Ledger
	reg       *obs.Registry

	// Range routing state: nil bounds means not yet learned (round-robin
	// fallback via rr). bounds[i] is the inclusive upper key code of
	// shard i+1; the last shard takes the rest.
	routeMu sync.Mutex
	bounds  []int64
	rr      int

	// Shard-level series, registered only with two or more shards so a
	// 1-shard table exposes exactly an unsharded table's series.
	mPruned  *obs.Counter
	mScanned *obs.Counter
	mQueries *obs.Counter

	mSlow *obs.Counter
	// mLatency is the LOGICAL query latency (admission to merged result),
	// labelled by table only, whatever the shard count.
	mLatency *obs.Histogram
	// queries and errQueries count succeeded and failed logical queries
	// for the history sampler: one logical query may run on several
	// engines, so per-engine counts would over-count.
	queries    atomic.Int64
	errQueries atomic.Int64
}

// New creates an empty table of opts.Shards shards with the given schema.
func New(name string, schema table.Schema, opts Options) (*Manager, error) {
	tbl, err := table.New(name, schema)
	if err != nil {
		return nil, err
	}
	return newManager(tbl, opts)
}

// newManager builds the Manager around tbl: with one shard tbl becomes
// the shard's table, otherwise it serves as the planning schema and the
// shards start empty.
func newManager(tbl *table.Table, opts Options) (*Manager, error) {
	name, schema := tbl.Name(), tbl.Schema()
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards (need >= 1)", opts.Shards)
	}
	keyIdx := -1
	if opts.Shards == 1 {
		opts.Key = ""
	} else if opts.Key == "" {
		for i, cs := range schema {
			if cs.Type == storage.Int64 || cs.Type == storage.Float64 {
				opts.Key = cs.Name
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("shard: table %q has no numeric column to shard on", name)
		}
	} else {
		for i, cs := range schema {
			if cs.Name == opts.Key {
				if cs.Type != storage.Int64 && cs.Type != storage.Float64 {
					return nil, fmt.Errorf("shard: key column %q is %s (need BIGINT or DOUBLE)", opts.Key, cs.Type)
				}
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("shard: key column %q not in schema of %q", opts.Key, name)
		}
	}

	m := &Manager{
		name:      name,
		proto:     tbl,
		key:       opts.Key,
		keyIdx:    keyIdx,
		mode:      opts.Mode,
		admission: opts.Admission,
		limits:    opts.Engine.Limits,
		slowThr:   opts.SlowQueryThreshold,
		log:       opts.Engine.Logger,
		stats:     opts.Stats,
	}
	eo := opts.Engine
	if eo.Metrics == nil {
		eo.Metrics = obs.NewRegistry()
	}
	if eo.Ledger == nil {
		eo.Ledger = obs.NewLedger(0)
	}
	m.reg, m.ledger = eo.Metrics, eo.Ledger
	m.traces = opts.Traces
	if m.traces == nil {
		m.traces = obs.NewTraceRing(0)
	}
	m.slow = opts.SlowTraces
	if m.slow == nil {
		m.slow = obs.NewTraceRing(0)
	}
	tl := obs.L("table", name)
	m.mSlow = m.reg.Counter("adskip_slow_queries_total",
		"Queries exceeding the slow-query threshold.", tl)
	m.mLatency = m.reg.Histogram("adskip_query_seconds",
		"Query wall-clock latency.", obs.LatencyBuckets(), tl)

	if opts.Shards == 1 {
		m.shards = []*shardState{{id: 1, eng: engine.New(tbl, eo)}}
		return m, nil
	}
	m.mPruned = m.reg.Counter("adskip_shard_pruned_total",
		"Shards eliminated by key-bound pruning before any zone metadata was consulted.", tl)
	m.mScanned = m.reg.Counter("adskip_shard_scanned_total",
		"Shard scans completed by the scatter-gather executor.", tl)
	m.mQueries = m.reg.Counter("adskip_shard_queries_total",
		"Logical queries executed through the scatter-gather executor.", tl)
	m.reg.Gauge("adskip_shard_count",
		"Number of shards the table is partitioned into.", tl).Set(int64(opts.Shards))
	for i := 0; i < opts.Shards; i++ {
		stbl, err := table.New(name, schema)
		if err != nil {
			return nil, err
		}
		eo.Shard = i + 1
		s := &shardState{id: i + 1, eng: engine.New(stbl, eo)}
		s.mRows = m.reg.Gauge("adskip_shard_rows",
			"Rows currently held by this shard.", tl, obs.L("shard", strconv.Itoa(s.id)))
		m.shards = append(m.shards, s)
	}
	return m, nil
}

// NewFromTable builds a Manager over an existing table's rows. One
// shard adopts tbl as is. With more, the rows are partitioned: range mode
// learns equi-depth bounds from the full key column up front, so the
// placement (and therefore pruning) is as good as it gets, and row order
// changes — rows are grouped by shard (a later merged snapshot writes
// them back in shard order).
func NewFromTable(tbl *table.Table, opts Options) (*Manager, error) {
	if opts.Shards == 1 {
		return newManager(tbl, opts)
	}
	m, err := New(tbl.Name(), tbl.Schema(), opts)
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if n > 0 {
		if m.mode == ModeRange {
			key, err := tbl.Column(m.key)
			if err != nil {
				return nil, err
			}
			codes := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				if !key.IsNull(i) {
					codes = append(codes, key.Codes()[i])
				}
			}
			if len(codes) > 0 {
				m.bounds = equidepthBounds(codes, opts.Shards)
			}
		}
		rows := make([][]storage.Value, 0, n)
		for i := 0; i < n; i++ {
			row, err := tbl.Row(i)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		if err := m.AppendRows(rows); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Table returns the planning schema: the data table itself with one
// shard, otherwise a schema-only prototype (per-shard engines hold the
// rows). The SQL planner binds against it.
func (m *Manager) Table() *table.Table { return m.proto }

// NumRows is the logical row count: the sum over shards. Each shard is
// read under its engine mutex, so the sum is safe against concurrent
// appends (though appends landing mid-sum may or may not be counted).
func (m *Manager) NumRows() int {
	n := 0
	for _, s := range m.shards {
		n += s.eng.NumRows()
	}
	return n
}

// Shards returns the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// Key returns the shard key column name ("" with one shard).
func (m *Manager) Key() string { return m.key }

// Mode returns the routing mode.
func (m *Manager) Mode() Mode { return m.mode }

// ShardEngine returns the 1-based shard's engine (nil when out of
// range). Exposed for tests and per-shard introspection; a 1-shard
// table's engine is ShardEngine(1).
func (m *Manager) ShardEngine(id int) *engine.Engine {
	if id < 1 || id > len(m.shards) {
		return nil
	}
	return m.shards[id-1].eng
}

// WorkloadStats returns the per-template workload table, or nil.
func (m *Manager) WorkloadStats() *stats.Table { return m.stats }

// keyCode extracts the routing code of one row: (code, isNull).
func (m *Manager) keyCode(row []storage.Value) (int64, bool, error) {
	if m.keyIdx >= len(row) {
		return 0, false, fmt.Errorf("shard: row arity %d misses key column %q (index %d)", len(row), m.key, m.keyIdx)
	}
	v := row[m.keyIdx]
	if v.IsNull() {
		return 0, true, nil
	}
	switch v.Type() {
	case storage.Int64:
		return v.Int(), false, nil
	case storage.Float64:
		f := v.Float()
		if math.IsNaN(f) {
			return 0, false, fmt.Errorf("shard: NaN key value in column %q", m.key)
		}
		return storage.EncodeFloat64(f), false, nil
	}
	return 0, false, fmt.Errorf("shard: key column %q got %s value", m.key, v.Type())
}

// equidepthBounds computes shards-1 inclusive upper bounds dividing the
// observed codes into (approximately) equal-count runs.
func equidepthBounds(codes []int64, shards int) []int64 {
	sorted := make([]int64, len(codes))
	copy(sorted, codes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := make([]int64, shards-1)
	for i := 0; i < shards-1; i++ {
		cut := (i + 1) * len(sorted) / shards
		if cut >= len(sorted) {
			cut = len(sorted) - 1
		}
		bounds[i] = sorted[cut]
	}
	return bounds
}

// hashCode is a multiplicative (Fibonacci) hash of a key code.
func hashCode(code int64) uint64 {
	return uint64(code) * 0x9E3779B97F4A7C15
}

// routeShard picks the shard index (0-based) for one key code under the
// given learned bounds (nil = caller handles fallback).
func (m *Manager) routeShard(code int64, null bool, bounds []int64) int {
	n := len(m.shards)
	if null {
		return 0
	}
	if m.mode == ModeHash {
		return int(hashCode(code) % uint64(n))
	}
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= code })
	return i // i == len(bounds) means the last shard
}

// route partitions a batch of rows into per-shard groups. In range mode
// before bounds are learned, a batch carrying at least
// shards*learnRowsPerShard rows fixes the bounds (equi-depth over the
// batch); smaller early batches round-robin whole to one shard, which
// pruning tolerates because it consults observed bounds, not placement
// intent.
func (m *Manager) route(rows [][]storage.Value) ([][][]storage.Value, error) {
	n := len(m.shards)
	groups := make([][][]storage.Value, n)

	m.routeMu.Lock()
	bounds := m.bounds
	if m.mode == ModeRange && bounds == nil {
		if len(rows) >= n*learnRowsPerShard {
			codes := make([]int64, 0, len(rows))
			for _, r := range rows {
				code, null, err := m.keyCode(r)
				if err != nil {
					m.routeMu.Unlock()
					return nil, err
				}
				if !null {
					codes = append(codes, code)
				}
			}
			if len(codes) > 0 {
				m.bounds = equidepthBounds(codes, n)
				bounds = m.bounds
			}
		}
		if bounds == nil {
			si := m.rr % n
			m.rr++
			m.routeMu.Unlock()
			// Validate key extraction even on the fallback path so bad rows
			// are rejected identically regardless of timing.
			for _, r := range rows {
				if _, _, err := m.keyCode(r); err != nil {
					return nil, err
				}
			}
			groups[si] = rows
			return groups, nil
		}
	}
	m.routeMu.Unlock()

	for _, r := range rows {
		code, null, err := m.keyCode(r)
		if err != nil {
			return nil, err
		}
		si := m.routeShard(code, null, bounds)
		groups[si] = append(groups[si], r)
	}
	return groups, nil
}

// AppendRow appends one row (routed to its shard).
func (m *Manager) AppendRow(vals ...storage.Value) error {
	return m.AppendRows([][]storage.Value{vals})
}

// AppendRows routes a batch to its shards and appends the per-shard
// groups in parallel — each shard engine serializes its own appends, so
// concurrent AppendRows callers writing to different shards no longer
// contend on one table lock. With a WAL armed the per-shard records are
// group-committed and the call returns only when every group is durable.
// Observed key bounds widen BEFORE any row is applied: an over-wide
// bound only costs pruning opportunity, while a late one would cost
// correctness.
func (m *Manager) AppendRows(rows [][]storage.Value) error {
	if len(m.shards) == 1 {
		// No key to route or widen: the one engine takes the batch.
		return m.shards[0].eng.AppendRows(rows)
	}
	if len(rows) == 0 {
		return nil
	}
	groups, err := m.route(rows)
	if err != nil {
		return err
	}

	type part struct {
		s    *shardState
		rows [][]storage.Value
	}
	var parts []part
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := m.shards[si]
		var lo, hi int64
		seen := false
		var nulls int64
		for _, r := range g {
			code, null, _ := m.keyCode(r)
			if null {
				nulls++
				continue
			}
			if !seen {
				lo, hi, seen = code, code, true
			} else {
				if code < lo {
					lo = code
				}
				if code > hi {
					hi = code
				}
			}
		}
		s.widen(lo, hi, seen, nulls)
		parts = append(parts, part{s: s, rows: g})
	}

	commits := make([]wal.Commit, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			commits[i], errs[i] = parts[i].s.eng.AppendRowsAsync(parts[i].rows)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// All groups logged and applied; wait for durability together so one
	// fsync can absorb every shard's record.
	for i := range parts {
		if err := commits[i].Wait(); err != nil {
			return err
		}
		parts[i].s.mRows.Set(int64(parts[i].s.eng.NumRows()))
	}
	return nil
}

// Update overwrites one cell by row index. With one shard the global row
// index is the engine's own. With more it is unsupported: the
// global-row-to-shard mapping depends on append interleaving and is not
// stable across restarts, so a global row index cannot be routed
// reliably.
func (m *Manager) Update(colName string, row int, v storage.Value) error {
	if len(m.shards) == 1 {
		return m.shards[0].eng.Update(colName, row, v)
	}
	return fmt.Errorf("shard: UPDATE by global row index is unsupported on sharded tables (query by key and rewrite instead)")
}

// SetWAL arms every shard engine with the same log; each shard stamps
// its shard number into the records it writes, so recovery can route
// them back (see ReplayRecord).
func (m *Manager) SetWAL(l *wal.Log) {
	for _, s := range m.shards {
		s.eng.SetWAL(l)
	}
}

// ReplayRecord routes a recovered WAL record to the shard that logged
// it. A 1-shard table's engine logs shard number 0, like any unsharded
// table. A record whose shard number does not fit the current count was
// written at a different shard count — a configuration mismatch, not
// data corruption, so the error says how to reopen.
func (m *Manager) ReplayRecord(rec *wal.Record) error {
	if len(m.shards) == 1 {
		if rec.Shard != 0 {
			return fmt.Errorf("shard: WAL record for table %q was logged by shard %d of a sharded table (reopen with the shard count the log was written at)",
				rec.Table, rec.Shard)
		}
		return m.shards[0].eng.ReplayRecord(rec)
	}
	if rec.Shard == 0 {
		return fmt.Errorf("shard: WAL record for table %q carries no shard number (log written unsharded; reopen with Shards=1)", rec.Table)
	}
	if int(rec.Shard) > len(m.shards) {
		return fmt.Errorf("shard: WAL record for table %q routed to shard %d but only %d shards exist (reopen with the shard count the log was written at)",
			rec.Table, rec.Shard, len(m.shards))
	}
	s := m.shards[rec.Shard-1]
	if rec.Kind == wal.KindRows {
		// Widen observed bounds from the replayed rows before applying,
		// mirroring the live append path (replay is idempotent; widening
		// twice is harmless).
		var lo, hi int64
		seen := false
		var nulls int64
		for _, r := range rec.Rows {
			code, null, err := m.keyCode(r)
			if err != nil {
				return err
			}
			if null {
				nulls++
				continue
			}
			if !seen {
				lo, hi, seen = code, code, true
			} else {
				if code < lo {
					lo = code
				}
				if code > hi {
					hi = code
				}
			}
		}
		s.widen(lo, hi, seen, nulls)
	}
	if err := s.eng.ReplayRecord(rec); err != nil {
		return err
	}
	s.mRows.Set(int64(s.eng.NumRows()))
	return nil
}

// Merged materializes the logical table: every shard's rows concatenated
// in shard order. Used by snapshot/CSV export. A 1-shard table returns
// its data table itself, with no copy.
func (m *Manager) Merged() (*table.Table, error) {
	if len(m.shards) == 1 {
		return m.shards[0].eng.Table(), nil
	}
	out, err := table.New(m.name, m.proto.Schema())
	if err != nil {
		return nil, err
	}
	for _, s := range m.shards {
		st := s.eng.Table()
		for i := 0; i < st.NumRows(); i++ {
			row, err := st.Row(i)
			if err != nil {
				return nil, err
			}
			if err := out.AppendRow(row...); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

package obs

import (
	"fmt"
	"strings"
	"time"
)

// QueryTrace records one query execution: per-phase wall-clock timings
// (plan → metadata probe → scan → feedback) and the skipping decision each
// predicate column's skipper made. The engine allocates one trace per
// query (never per row) and attaches it to the result, so every query is
// traced with no opt-in switch.
type QueryTrace struct {
	Table string    `json:"table"`
	Start time.Time `json:"start"`

	// Session identifies the network session/connection the query arrived
	// on (see WithSession); "" for in-process queries.
	Session string `json:"session,omitempty"`

	// TraceID is the client-generated trace ID propagated over the wire
	// (see WithTrace); "" when the client sent none. It lets a remote
	// caller find this query's span tree in /traces.
	TraceID string `json:"trace_id,omitempty"`

	// Fingerprint is the literal-stripped query template (see
	// WithTemplate); "" for queries that bypassed a SQL frontend. The
	// slow-query log groups by it, and workload stats aggregate under it.
	Fingerprint string `json:"fingerprint,omitempty"`

	// PlanCached marks queries served from a prepared-statement/plan
	// cache (see WithPlanCached).
	PlanCached bool `json:"plan_cached,omitempty"`

	// Phase timings. Scan excludes the feedback time spent inside
	// skipper.Observe calls, which is accounted to Feedback. ShardPrune is
	// nonzero only on sharded tables: the time spent eliminating shards by
	// key bounds before any zone metadata was consulted (the shardprune
	// phase runs between plan and probe).
	Plan       time.Duration `json:"plan_ns"`                 // validation + aggregate/projection binding
	ShardPrune time.Duration `json:"shardprune_ns,omitempty"` // shard elimination by key bounds (sharded tables)
	Probe      time.Duration `json:"probe_ns"`                // predicate lowering + skipper metadata probes
	Scan       time.Duration `json:"scan_ns"`                 // kernel execution over candidate windows
	Feedback   time.Duration `json:"feedback_ns"`             // observations handed back to skippers
	Total      time.Duration `json:"total_ns"`

	// Execution totals (mirrors the result's ExecStats).
	RowsScanned int `json:"rows_scanned"`
	RowsSkipped int `json:"rows_skipped"`
	RowsCovered int `json:"rows_covered"`
	ZonesProbed int `json:"zones_probed"`
	RowsTotal   int `json:"rows_total"`
	Matched     int `json:"matched"` // qualifying rows (projection: rows returned)

	// Shard scatter-gather totals (sharded tables only; both zero and
	// omitted for unsharded engines).
	ShardsScanned int `json:"shards_scanned,omitempty"`
	ShardsPruned  int `json:"shards_pruned,omitempty"`

	// Shard is the 1-based shard whose engine executed this trace
	// (0 = unsharded, and for a sharded table's merged logical trace).
	// /slow?shard=N filters on it.
	Shard int `json:"shard,omitempty"`
	// Shards lists the 1-based shards a merged logical trace actually
	// scanned (empty elsewhere). /slow?shard=N also matches on it, so a
	// sharded table's slow queries are attributable to the shards that
	// served them.
	Shards []int `json:"shards,omitempty"`

	Predicates []PredicateTrace `json:"predicates,omitempty"`

	// Root is the hierarchical span tree covering parse → plan → prune →
	// scan(chunked) → feedback. EXPLAIN ANALYZE's timed rendering and the
	// telemetry server's /traces endpoint (including the Chrome
	// trace_event export) draw from the same tree.
	Root *Span `json:"spans,omitempty"`

	// Slow marks traces that exceeded the engine's slow-query threshold
	// and were captured in the slow-query log.
	Slow bool `json:"slow,omitempty"`
}

// PredicateTrace is the per-predicate-column skipping decision of one
// query: what the probe estimated (rows skippable, candidate windows) and
// what execution observed.
type PredicateTrace struct {
	Column    string `json:"column"`
	Predicate string `json:"predicate"` // lowered code intervals, or "IS NULL"
	Skipper   string `json:"skipper"`   // skipper kind; "" when the column has none
	Active    bool   `json:"active"`    // skipper participated (did not decline)

	ZonesProbed    int `json:"zones_probed"`
	Windows        int `json:"windows"`          // candidate windows emitted by the probe
	CoveredWindows int `json:"covered_windows"`  // windows proven fully matching by metadata
	CandidateRows  int `json:"candidate_rows"`   // rows inside candidate windows
	EstRowsSkipped int `json:"est_rows_skipped"` // rows the probe proved non-matching

	// Matched is the observed matching row count when execution can
	// attribute it to this predicate alone (single-predicate fast path);
	// -1 when unattributable (multi-column intersection).
	Matched int `json:"matched"`

	// Why-not-skipped reason counts: how the zones that stayed candidates
	// (neither skipped nor covered) failed to prune, classified by the
	// skipper during the probe. Only introspectable skippers (adaptive
	// zonemaps) report them; all zero otherwise.
	//
	// NotSkippedOverlap: the zone's value hull genuinely straddles the
	// predicate boundary — finer zones might help, wider ones won't.
	// NotSkippedWidened: the hull was loosened by appends/updates since
	// the zone was last rebuilt, so the miss may be stale metadata, not
	// data distribution — a fold or split would re-tighten it.
	// NotSkippedNullStraddle: the hull is fully covered by the predicate
	// but NULL rows inside the zone block the coverage proof.
	NotSkippedOverlap      int `json:"not_skipped_overlap,omitempty"`
	NotSkippedWidened      int `json:"not_skipped_widened,omitempty"`
	NotSkippedNullStraddle int `json:"not_skipped_null_straddle,omitempty"`

	// ZoneIDs lists the feedback identities of the candidate zones an
	// active skipper emitted, for the workload zone-touch sketch. Filled
	// only for queries attributed to a template; not serialized.
	ZoneIDs []int `json:"-"`
}

// Lines renders the trace as aligned human-readable lines. Durations are
// included only when withTimings is true, so tests can assert on the
// deterministic part.
func (t *QueryTrace) Lines(withTimings bool) []string {
	var out []string
	out = append(out, fmt.Sprintf("trace: table %q, %d rows", t.Table, t.RowsTotal))
	sharded := t.ShardsScanned+t.ShardsPruned > 0
	if withTimings {
		out = append(out, fmt.Sprintf("phase plan     %s", t.Plan))
		if sharded {
			out = append(out, fmt.Sprintf("phase shardprune %s (%d of %d shards pruned)",
				t.ShardPrune, t.ShardsPruned, t.ShardsScanned+t.ShardsPruned))
		}
		out = append(out,
			fmt.Sprintf("phase probe    %s (%d zone probes)", t.Probe, t.ZonesProbed),
			fmt.Sprintf("phase scan     %s (scanned %d, covered %d, skipped %d rows)",
				t.Scan, t.RowsScanned, t.RowsCovered, t.RowsSkipped),
			fmt.Sprintf("phase feedback %s", t.Feedback),
			fmt.Sprintf("total          %s", t.Total),
		)
	} else {
		if sharded {
			out = append(out, fmt.Sprintf("shardprune: %d of %d shards pruned",
				t.ShardsPruned, t.ShardsScanned+t.ShardsPruned))
		}
		out = append(out,
			fmt.Sprintf("probe: %d zone probes", t.ZonesProbed),
			fmt.Sprintf("scan: scanned %d, covered %d, skipped %d rows",
				t.RowsScanned, t.RowsCovered, t.RowsSkipped),
		)
	}
	if withTimings && t.Root != nil {
		out = append(out, t.Root.TreeLines()...)
	}
	for i := range t.Predicates {
		p := &t.Predicates[i]
		line := fmt.Sprintf("predicate on %q: %s", p.Column, p.Predicate)
		switch {
		case p.Skipper == "":
			line += " — no skipper, full evaluation"
		case !p.Active:
			line += fmt.Sprintf(" — %s skipper declined, full evaluation", p.Skipper)
		default:
			line += fmt.Sprintf(" — %s skipper: est. %d rows skippable (%.1f%%), %d windows (%d covered, %d candidate rows)",
				p.Skipper, p.EstRowsSkipped, pct(p.EstRowsSkipped, t.RowsTotal),
				p.Windows, p.CoveredWindows, p.CandidateRows)
			if p.Matched >= 0 {
				line += fmt.Sprintf("; actual matched %d", p.Matched)
			}
		}
		out = append(out, line)
		if n := p.NotSkippedOverlap + p.NotSkippedWidened + p.NotSkippedNullStraddle; n > 0 {
			out = append(out, fmt.Sprintf("  not skipped: %d zones — %d bounds-overlap, %d widened-by-recent-append, %d null-straddle",
				n, p.NotSkippedOverlap, p.NotSkippedWidened, p.NotSkippedNullStraddle))
		}
	}
	return out
}

// String renders the trace with timings.
func (t *QueryTrace) String() string { return strings.Join(t.Lines(true), "\n") }

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

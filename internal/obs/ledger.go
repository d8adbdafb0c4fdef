package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// The adaptation ledger: a bounded journal of zone-lifecycle events with
// full provenance — what changed, why, which query template triggered it,
// and the before/after shape of the affected metadata. It is the one
// adaptation journal: /events, the per-kind event counter and the
// history sampler's event count all read it, and every record carries
// enough context to credit or debit the adaptation that produced it; the
// per-table running totals feed the EXPLAIN ANALYZE footer without a
// ring scan. Appends happen only on structural change (split, merge,
// fold, first widen, quarantine, rebuild, build/load), never per probe
// or per scanned row, so the journal costs the scan hot path nothing.

// EventKind classifies one adaptation event.
type EventKind uint8

// Adaptation event kinds. Structural events (split, merge, tail fold) come
// from the adaptive zonemaps; arbitration events (disable, enable) from
// their cost model; lifecycle events from the engine.
const (
	EventSplit        EventKind = iota // zones refined from scan statistics
	EventMerge                         // cold adjacent zones coalesced
	EventDisable                       // arbitration turned skipping off
	EventEnable                        // shadow probe turned skipping back on
	EventTailFold                      // append tail folded into zones
	EventSkipperBuilt                  // skipping metadata built on a column
	EventSkipperLoad                   // learned metadata restored from snapshot
	EventQuarantine                    // skipper failed (panic/corruption); column falls back to full scans
	EventRebuild                       // quarantined metadata rebuilt from base data
	EventWiden                         // a zone's value hull loosened in place by an append/update
)

// MarshalJSON renders the kind by name so event JSON is self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the name form, so clients of /events and
// /adaptation can decode records back into the exported types.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for c := EventSplit; c <= EventWiden; c++ {
		if c.String() == name {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", name)
}

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventSplit:
		return "split"
	case EventMerge:
		return "merge"
	case EventDisable:
		return "disable"
	case EventEnable:
		return "enable"
	case EventTailFold:
		return "tail-fold"
	case EventSkipperBuilt:
		return "skipper-built"
	case EventSkipperLoad:
		return "skipper-load"
	case EventQuarantine:
		return "quarantine"
	case EventRebuild:
		return "rebuild"
	case EventWiden:
		return "widen"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// LedgerRecord is one zone-lifecycle event with provenance. Row bounds
// ([RowLo,RowHi)) locate the affected region; Min/Max Before/After are
// the value-bound hulls of that region before and after the change (for
// a split the hull is unchanged and the zone counts carry the story;
// for a widen the loosened hull IS the story).
type LedgerRecord struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Table  string    `json:"table"`
	Column string    `json:"column"`
	// Shard is the 1-based shard that produced the record (0 = unsharded).
	Shard int       `json:"shard,omitempty"`
	Kind  EventKind `json:"kind"`
	// Cause is a short machine-readable reason: "split-gain",
	// "merge-cold", "net-benefit", "shadow-probe", "tail-fold",
	// "append-widen", "update-widen", "panic", "corruption", "manual",
	// "build", "snapshot".
	Cause string `json:"cause"`
	// Fingerprint is the literal-stripped template of the query whose
	// feedback triggered the change; "" for changes outside a query
	// (direct appends, administrative rebuilds).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Zone counts on the column before and after the event.
	ZonesBefore int `json:"zones_before"`
	ZonesAfter  int `json:"zones_after"`
	// Affected row window and its value-bound hull before/after.
	RowLo     int   `json:"row_lo"`
	RowHi     int   `json:"row_hi"`
	MinBefore int64 `json:"min_before"`
	MaxBefore int64 `json:"max_before"`
	MinAfter  int64 `json:"min_after"`
	MaxAfter  int64 `json:"max_after"`
}

// String renders the record on one line.
func (r LedgerRecord) String() string {
	return fmt.Sprintf("#%d %s.%s %s cause=%s zones %d->%d rows [%d,%d) bounds [%d,%d]->[%d,%d] fp=%q",
		r.Seq, r.Table, r.Column, r.Kind, r.Cause, r.ZonesBefore, r.ZonesAfter,
		r.RowLo, r.RowHi, r.MinBefore, r.MaxBefore, r.MinAfter, r.MaxAfter, r.Fingerprint)
}

// LedgerTotals is one table's running ledger aggregate, maintained at
// append time so the EXPLAIN ANALYZE footer never scans the ring.
type LedgerTotals struct {
	Events    uint64    `json:"events"`
	Splits    uint64    `json:"splits"`
	LastSplit time.Time `json:"last_split,omitempty"`
	// LastSplitCause is the fingerprint (or cause when no fingerprint)
	// behind the most recent split.
	LastSplitCause string `json:"last_split_cause,omitempty"`
}

// Ledger is a bounded, concurrency-safe ring of LedgerRecords plus
// per-table running totals. Appends are O(1); when full the oldest
// records drop (and are counted). One ledger is shared by every table
// (and every shard) of a DB; records carry their own table/shard stamps
// so "per-shard ledgers" are a filter, not separate structures.
type Ledger struct {
	mu      sync.Mutex
	buf     []LedgerRecord
	next    int
	full    bool
	seq     uint64
	dropped uint64
	totals  map[string]*LedgerTotals // keyed by table
}

// DefaultLedgerSize is the ring capacity used when none is given.
const DefaultLedgerSize = 2048

// NewLedger returns a ledger holding the last capacity records
// (DefaultLedgerSize when capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerSize
	}
	return &Ledger{
		buf:    make([]LedgerRecord, 0, capacity),
		totals: make(map[string]*LedgerTotals),
	}
}

// Append records one event, stamping its sequence number and time and
// folding it into the table's running totals.
func (l *Ledger) Append(r LedgerRecord) {
	l.mu.Lock()
	l.seq++
	r.Seq = l.seq
	r.Time = time.Now()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, r)
	} else {
		l.buf[l.next] = r
		l.next = (l.next + 1) % cap(l.buf)
		l.full = true
		l.dropped++
	}
	t := l.totals[r.Table]
	if t == nil {
		t = &LedgerTotals{}
		l.totals[r.Table] = t
	}
	t.Events++
	if r.Kind == EventSplit {
		t.Splits++
		t.LastSplit = r.Time
		if r.Fingerprint != "" {
			t.LastSplitCause = r.Fingerprint
		} else {
			t.LastSplitCause = r.Cause
		}
	}
	l.mu.Unlock()
}

// Records returns a chronological copy of the retained records.
func (l *Ledger) Records() []LedgerRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LedgerRecord, 0, len(l.buf))
	if l.full {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}

// Totals returns the running aggregate for one table (zero value when
// the table has no ledger activity).
func (l *Ledger) Totals(table string) LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.totals[table]; t != nil {
		return *t
	}
	return LedgerTotals{}
}

// Seq returns the total number of records ever appended.
func (l *Ledger) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many records the ring has evicted.
func (l *Ledger) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// ROI types: the per-zone return-on-investment view behind /adaptation.

// ROIZone is one zone's ROI detail, reported for dead zones (metadata
// that never pruned anything) so an operator can see exactly which row
// ranges carry useless bounds.
type ROIZone struct {
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Min    int64  `json:"min"`
	Max    int64  `json:"max"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ColumnROI is one column's adaptation return-on-investment: rows and
// bytes the metadata pruned (credit) against the probe and maintenance
// work it cost (debit), in row-equivalents under the adaptive cost
// model. DeadZones counts zones whose metadata was probed but never
// pruned — pure overhead the next layout decision should reclaim.
type ColumnROI struct {
	Table  string `json:"table"`
	Shard  int    `json:"shard,omitempty"`
	Column string `json:"column"`
	Kind   string `json:"kind"`
	Zones  int    `json:"zones"`
	Bytes  int    `json:"bytes"`

	RowsSkipped   int64 `json:"rows_skipped"`
	RowsCovered   int64 `json:"rows_covered"`
	BytesSkipped  int64 `json:"bytes_skipped"`
	CandidateRows int64 `json:"candidate_rows"`
	ZoneProbes    int64 `json:"zone_probes"`

	// Maintenance debits: structural events on the column and the zones
	// they touched, plus the arbitration model's own running verdict.
	MaintEvents int64 `json:"maintenance_events"`
	MaintZones  int64 `json:"maintenance_zones"`
	// NetRows is credit minus debit in row-equivalents:
	// row_cost·rows_skipped − probe_cost·zone_probes −
	// maint_cost·maintenance_zones (costs from the skipper's config).
	NetRows float64 `json:"net_benefit_rows"`

	DeadZones      int       `json:"dead_zones"`
	DeadZoneDetail []ROIZone `json:"dead_zone_detail,omitempty"`
}

// AdaptationSnapshot is the /adaptation payload: the retained ledger
// records (oldest-first), drop accounting, and per-column ROI rows.
type AdaptationSnapshot struct {
	Total   uint64         `json:"total"`
	Dropped uint64         `json:"dropped"`
	Events  []LedgerRecord `json:"events"`
	ROI     []ColumnROI    `json:"roi"`
}

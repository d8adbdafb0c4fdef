package shard

import (
	"errors"
	"fmt"
	"io"

	"adskip/internal/core"
	"adskip/internal/engine"
	"adskip/internal/obs"
)

// Administrative surface: the facade drives skipping lifecycle,
// introspection, and history sampling through the same methods an engine
// exposes; the Manager fans each out across its shards.

// each runs fn on every shard, joining the failures. With one shard the
// engine's error comes back as is; with more each is prefixed by its
// shard number.
func (m *Manager) each(fn func(e *engine.Engine) error) error {
	if len(m.shards) == 1 {
		return fn(m.shards[0].eng)
	}
	var errs error
	for _, s := range m.shards {
		if err := fn(s.eng); err != nil {
			errs = errors.Join(errs, fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return errs
}

// EnableSkipping builds skipping metadata on every shard for the named
// columns (all when none given).
func (m *Manager) EnableSkipping(cols ...string) error {
	return m.each(func(e *engine.Engine) error { return e.EnableSkipping(cols...) })
}

// RebuildSkipping reconstructs skipping metadata on every shard.
func (m *Manager) RebuildSkipping(cols ...string) error {
	return m.each(func(e *engine.Engine) error { return e.RebuildSkipping(cols...) })
}

// VerifySkipping revalidates every shard's skipping metadata.
func (m *Manager) VerifySkipping(cols ...string) error {
	return m.each(func(e *engine.Engine) error { return e.VerifySkipping(cols...) })
}

// SkipperMetadata merges per-shard metadata per column: zone and byte
// totals sum; a column counts as enabled while any shard's arbitration
// keeps it enabled.
func (m *Manager) SkipperMetadata() map[string]core.Metadata {
	out := make(map[string]core.Metadata)
	for _, s := range m.shards {
		for col, md := range s.eng.SkipperMetadata() {
			agg, ok := out[col]
			if !ok {
				out[col] = md
				continue
			}
			agg.Zones += md.Zones
			agg.Bytes += md.Bytes
			agg.Enabled = agg.Enabled || md.Enabled
			out[col] = agg
		}
	}
	return out
}

// Quarantined reports columns benched on any shard. With one shard the
// engine's causes come back as is; with more, the per-shard causes are
// joined per column.
func (m *Manager) Quarantined() map[string]error {
	if len(m.shards) == 1 {
		return m.shards[0].eng.Quarantined()
	}
	out := make(map[string]error)
	for _, s := range m.shards {
		for col, err := range s.eng.Quarantined() {
			out[col] = errors.Join(out[col], fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return out
}

// SaveSkipper serializes a 1-shard table's learned adaptive zonemap. It
// is unsupported with more shards: each shard refines its own zonemap
// against its own slice of the data, so a single snapshot has no meaning
// across a reshard.
func (m *Manager) SaveSkipper(col string, w io.Writer) error {
	if len(m.shards) == 1 {
		return m.shards[0].eng.SaveSkipper(col, w)
	}
	return fmt.Errorf("shard: skipping metadata snapshots are per-shard; not supported on sharded tables (column %q)", col)
}

// LoadSkipper restores a 1-shard table's adaptive zonemap (see
// SaveSkipper).
func (m *Manager) LoadSkipper(col string, r io.Reader) error {
	if len(m.shards) == 1 {
		return m.shards[0].eng.LoadSkipper(col, r)
	}
	return fmt.Errorf("shard: skipping metadata snapshots are per-shard; not supported on sharded tables (column %q)", col)
}

// Skipmaps returns one skipping-effectiveness snapshot per shard. With
// two or more shards each is stamped with its 1-based shard number and
// the total shard count — the per-shard dimension behind
// /skipmap?shard=N; a 1-shard table's snapshot carries neither.
func (m *Manager) Skipmaps(maxZones int) []obs.SkipmapTable {
	if len(m.shards) == 1 {
		return []obs.SkipmapTable{m.shards[0].eng.Skipmap(maxZones)}
	}
	out := make([]obs.SkipmapTable, 0, len(m.shards))
	for _, s := range m.shards {
		t := s.eng.Skipmap(maxZones)
		t.Shard = s.id
		t.Shards = len(m.shards)
		out = append(out, t)
	}
	return out
}

// FillHistory folds the table into one adaptation-timeline sample. Row
// totals sum across shards; query, slow-query, and error counts are the
// Manager's logical counters (each logical query runs up to Shards shard
// scans — counting those would inflate the timeline); per-column state
// stays per shard (each engine of a table with two or more shards stamps
// its 1-based shard number into its HistoryColumns), so the timeline —
// and the /history?shard=N filter — can tell one shard's structure from
// another's. The sampler sorts the merged columns.
func (m *Manager) FillHistory(s *obs.HistorySample) {
	for _, sh := range m.shards {
		sh.eng.FillHistory(s)
	}
	s.Queries += m.queries.Load()
	s.SlowQueries += m.mSlow.Load()
	s.Errors += m.errQueries.Load()
}

// AdaptationROI returns every shard's per-column adaptation ROI rows
// (each engine stamps its own 1-based shard number). maxDead caps the
// per-column dead-zone detail.
func (m *Manager) AdaptationROI(maxDead int) []obs.ColumnROI {
	var out []obs.ColumnROI
	for _, s := range m.shards {
		out = append(out, s.eng.AdaptationROI(maxDead)...)
	}
	return out
}

// AccumulateLatency adds the LOGICAL query latency buckets into dst
// (len(obs.LatencyBuckets())+1 entries), allocation-free, so a caller can
// merge latency distributions across tables and estimate quantiles with
// obs.QuantileFromBuckets.
func (m *Manager) AccumulateLatency(dst []int64) { m.mLatency.AccumulateBuckets(dst) }

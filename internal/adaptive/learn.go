package adaptive

import (
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
)

// Observe implements core.Skipper: it consumes per-zone execution feedback
// and performs the three adaptive mechanisms — split, merge, arbitration.
func (z *Zonemap) Observe(res core.PruneResult, zobs []core.ZoneObservation) {
	z.queries++
	if z.health != nil {
		return // corrupt structure is frozen until rebuilt
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.InvariantFlip) {
		// Corrupt and return: the broken tiling must survive untouched to
		// the next probe, which is where detection is supposed to happen.
		z.corruptLayout()
		return
	}
	if !res.Enabled {
		return
	}

	// ---- Arbitration: did this query's probing pay for itself? ----
	net := float64(res.RowsSkipped)*z.cfg.RowCost - float64(res.ZonesProbed)*z.cfg.ProbeCost
	alpha := 2.0 / (float64(z.cfg.Window) + 1)
	z.netBenefit += alpha * (net - z.netBenefit)
	if !z.cfg.DisableArbitration && z.queries > z.cfg.Window && z.netBenefit < 0 {
		z.enabled = false
		z.disabledQueries = 0
		z.disables++
		z.maintEvents++
		z.ledgerEmit(obs.LedgerRecord{
			Kind: obs.EventDisable, Cause: "net-benefit",
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: 0, RowHi: z.tailLo,
		})
		return // structure frozen while disabled
	}

	// ---- Per-zone feedback: heat updates and split planning. ----
	var plans []splitPlan
	budget := z.cfg.MaxZones - len(z.zones)
	for _, ob := range zobs {
		if ob.ID == core.NoZoneID || ob.ID < 0 || ob.ID >= len(z.zones) {
			continue
		}
		zn := &z.zones[ob.ID]
		if zn.lo != ob.Lo || zn.hi != ob.Hi {
			continue // stale identity; should not happen within one query
		}
		// Heat is maintained at probe time (Prune); Observe only drives
		// structural refinement from the piggybacked statistics.
		if ob.Covered || z.cfg.DisableSplit || ob.Partial || len(ob.Stats) < 2 {
			continue
		}
		subs := z.planSplit(ob, budget)
		if subs != nil {
			budget -= len(subs) - 1
			plans = append(plans, splitPlan{idx: ob.ID, subs: subs})
			continue
		}
		// The gathered statistics could not justify a split: back off
		// exponentially before paying for stats on this zone again.
		if zn.statFail < 5 {
			zn.statFail++
		}
		zn.statSkip = uint16(4) << zn.statFail
	}

	structural := false
	if len(plans) > 0 {
		z.applySplits(plans)
		z.maintEvents++
		structural = true
	}
	if !z.cfg.DisableMerge && z.queries%z.cfg.MergeSweepEvery == 0 {
		before := len(z.zones)
		z.mergeSweep()
		if len(z.zones) != before {
			z.maintEvents++
			structural = true
		}
	}
	if structural {
		z.rebuildBlocks()
	}
}

// planSplit decides whether the piggybacked statistics justify refining
// the zone and, if so, returns the replacement sub-zones. A split is
// justified when at least one sub-zone's bounds would have let this query
// skip or cover it — evidence that finer metadata has pruning power here.
func (z *Zonemap) planSplit(ob core.ZoneObservation, budget int) []zone {
	if budget < len(ob.Stats)-1 {
		return nil
	}
	r := z.lastRanges
	usefulPart := make([]bool, len(ob.Stats))
	anyUseful := false
	for i, s := range ob.Stats {
		switch {
		case s.NonNull == 0 || !r.Overlaps(s.Min, s.Max):
			usefulPart[i] = true
		case s.NonNull == s.Hi-s.Lo && r.Covers(s.Min, s.Max):
			usefulPart[i] = true
		}
		anyUseful = anyUseful || usefulPart[i]
	}
	if !anyUseful {
		return nil
	}
	subs := make([]zone, len(ob.Stats))
	for i, s := range ob.Stats {
		subs[i] = zone{lo: s.Lo, hi: s.Hi, min: s.Min, max: s.Max, nonNull: s.NonNull, heat: 0.5}
		if s.NonNull == 0 {
			subs[i].min, subs[i].max = 0, 0
		}
	}
	// Coalesce adjacent parts when BOTH were useless for this query AND
	// their bounds are similar: the new zone boundaries then align to the
	// value discontinuities the statistics revealed rather than to
	// arbitrary equal-width offsets (crack-like boundary placement).
	// Parts that pruned for this query always stay separate — that is the
	// evidence the split exists to preserve — and coalesced zones larger
	// than the floor re-split at finer resolution later, so boundary
	// precision improves per generation.
	out := subs[:1]
	lastUseful := usefulPart[0]
	for i, sub := range subs[1:] {
		last := &out[len(out)-1]
		if !lastUseful && !usefulPart[i+1] && boundsCompatible(last, &sub) {
			*last = mergeZones(*last, sub)
			last.heat = 0.5
			continue
		}
		out = append(out, sub)
		lastUseful = usefulPart[i+1]
	}
	if len(out) < 2 {
		return nil // no boundary worth materializing
	}
	return out
}

// applySplits rebuilds the zone slice with all planned splits spliced in,
// in one pass. Plans reference pre-rebuild indices and are disjoint by
// construction (one observation per zone).
func (z *Zonemap) applySplits(plans []splitPlan) {
	z.flushBlockHits()
	byIdx := make(map[int][]zone, len(plans))
	added := 0
	for _, p := range plans {
		byIdx[p.idx] = p.subs
		added += len(p.subs) - 1
	}
	need := len(z.zones) + added
	if cap(z.scratch) < need {
		z.scratch = make([]zone, 0, need*2)
	}
	out := z.scratch[:0]
	for i := range z.zones {
		if subs, ok := byIdx[i]; ok {
			// One ledger record per refined zone: the parent's window and
			// (possibly loosened) hull before, the children's exact hull
			// after — the journal shows each split re-tightening metadata.
			parent := &z.zones[i]
			var h hull
			h.add(subs...)
			z.ledgerEmit(obs.LedgerRecord{
				Kind: obs.EventSplit, Cause: "split-gain",
				ZonesBefore: 1, ZonesAfter: len(subs),
				RowLo: parent.lo, RowHi: parent.hi,
				MinBefore: parent.min, MaxBefore: parent.max,
				MinAfter: h.min, MaxAfter: h.max,
			})
			out = append(out, subs...)
			z.splits += len(subs) - 1
			z.maintZones += int64(len(subs))
		} else {
			out = append(out, z.zones[i])
		}
	}
	z.scratch = z.zones[:0] // recycle the old backing array next time
	z.zones = out
}

// splitPlan records one planned zone refinement: the pre-rebuild zone
// index and its replacement sub-zones.
type splitPlan struct {
	idx  int
	subs []zone
}

// mergeSweep coalesces runs of adjacent cold zones (heat below MergeHeat)
// whose union stays within MaxZoneRows. Merging a run of k zones removes
// k−1 probes per future query and (k−1)·zoneBytes of metadata; the union
// bounds remain sound.
func (z *Zonemap) mergeSweep() {
	z.flushBlockHits()
	before := len(z.zones)
	out := z.zones[:0]
	i := 0
	// One summary ledger record per sweep covering every coalesced run:
	// the affected row span and the union hull of the merged zones.
	spanLo, spanHi := -1, 0
	var h hull
	for i < len(z.zones) {
		cur := z.zones[i]
		j := i + 1
		for j < len(z.zones) &&
			cur.heat < z.cfg.MergeHeat &&
			z.zones[j].heat < z.cfg.MergeHeat &&
			z.zones[j].hi-cur.lo <= z.cfg.MaxZoneRows &&
			boundsCompatible(&cur, &z.zones[j]) {
			nxt := z.zones[j]
			cur = mergeZones(cur, nxt)
			j++
		}
		if j-i > 1 {
			if spanLo < 0 {
				spanLo = cur.lo
			}
			spanHi = cur.hi
			h.add(cur)
		}
		z.merges += j - i - 1
		out = append(out, cur)
		i = j
	}
	z.zones = out
	if removed := before - len(out); removed > 0 {
		z.maintZones += int64(removed)
		z.ledgerEmit(obs.LedgerRecord{
			Kind: obs.EventMerge, Cause: "merge-cold",
			ZonesBefore: before, ZonesAfter: len(out),
			RowLo: spanLo, RowHi: spanHi,
			MinBefore: h.min, MaxBefore: h.max,
			MinAfter: h.min, MaxAfter: h.max,
		})
	}
}

// boundsCompatible reports whether merging a and b loses little pruning
// power: the union's value span must not exceed 1.5x the wider of the two.
// Without this gate, a narrow zone that keeps being scanned because its
// rows genuinely match (hot-region zones) would go cold and merge with a
// differently-valued neighbor, destroying exactly the metadata that made
// it informative and triggering split/merge churn.
func boundsCompatible(a, b *zone) bool {
	if a.nonNull == 0 || b.nonNull == 0 {
		return true // an all-null side adds no bounds
	}
	lo, hi := a.min, a.max
	if b.min < lo {
		lo = b.min
	}
	if b.max > hi {
		hi = b.max
	}
	union := uint64(hi - lo)
	wa, wb := uint64(a.max-a.min), uint64(b.max-b.min)
	w := wa
	if wb > w {
		w = wb
	}
	return union <= w+w/2
}

// mergeZones returns the sound union of two adjacent zones. Lifetime
// prune counters sum: the union inherits both sides' history.
func mergeZones(a, b zone) zone {
	m := zone{lo: a.lo, hi: b.hi, nonNull: a.nonNull + b.nonNull,
		hits: a.hits + b.hits, misses: a.misses + b.misses,
		widened: a.widened || b.widened}
	switch {
	case a.nonNull == 0:
		m.min, m.max = b.min, b.max
	case b.nonNull == 0:
		m.min, m.max = a.min, a.max
	default:
		m.min, m.max = a.min, a.max
		if b.min < m.min {
			m.min = b.min
		}
		if b.max > m.max {
			m.max = b.max
		}
	}
	// The merged zone inherits the warmer heat so a recently useful
	// neighbor is not dragged straight back into another merge cycle. Its
	// bounds changed, so statistics gathering restarts immediately.
	m.heat = a.heat
	if b.heat > m.heat {
		m.heat = b.heat
	}
	return m
}

// shadowProbe, run every ReprobeEvery-th query while disabled, measures
// what skipping would have achieved for the current query without doing
// any scan work, and re-enables the structure when the cost model turns
// positive (data or workload drift).
func (z *Zonemap) shadowProbe(r expr.Ranges) {
	skipped := 0
	for i := range z.zones {
		zn := &z.zones[i]
		if zn.nonNull == 0 || !r.Overlaps(zn.min, zn.max) {
			skipped += zn.hi - zn.lo
		}
	}
	net := float64(skipped)*z.cfg.RowCost - float64(len(z.zones))*z.cfg.ProbeCost
	alpha := 2.0 / (float64(z.cfg.Window) + 1)
	z.netBenefit += alpha * (net - z.netBenefit)
	if z.netBenefit > 0 {
		z.enabled = true
		z.enables++
		z.maintEvents++
		z.ledgerEmit(obs.LedgerRecord{
			Kind: obs.EventEnable, Cause: "shadow-probe",
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: 0, RowHi: z.tailLo,
		})
	}
}

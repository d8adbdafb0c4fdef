// Package adaptive implements adaptive zonemaps — the paper's primary
// contribution. An adaptive zonemap is a variable-granularity partition of
// a column's row space into zones carrying (min, max, non-null count)
// metadata, continuously reshaped by per-query feedback:
//
//   - Split: a zone that keeps being scanned with low qualifying fractions
//     is refined into sub-zones whose bounds were computed during a scan
//     the query already had to perform (pay-as-you-go, in the spirit of
//     database cracking).
//   - Merge: adjacent zones whose metadata never prunes anything are
//     coalesced, shedding probe cost and memory.
//   - Arbitration: a per-column cost model tracks whether probing pays for
//     itself; when it persistently loses (arbitrary data distributions),
//     skipping is disabled outright and only cheap periodic shadow probes
//     remain, so adaptive skipping never durably underperforms a plain
//     scan — the failure mode of static zonemaps the abstract calls out.
package adaptive

import (
	"errors"
	"fmt"
	"sort"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
)

// ErrCorrupt marks detected metadata corruption: a violated structural
// invariant noticed during a probe or bounds-maintenance call. A corrupt
// zonemap permanently declines to prune (fail open to full scans, which
// are always sound) and reports the cause via Health so the engine can
// quarantine and rebuild it.
var ErrCorrupt = errors.New("adaptive: metadata corrupt")

// Config tunes an adaptive zonemap. The zero value selects defaults
// suitable for multi-million-row columns.
type Config struct {
	// InitialZoneRows is the granularity of the initial coarse build and
	// of folded append tails. Default 65536.
	InitialZoneRows int
	// MinZoneRows is the refinement floor: splits never produce zones
	// smaller than this. Default 1024.
	MinZoneRows int
	// MaxZones caps metadata size; splits stop at the cap until merges
	// reclaim space. Default 65536.
	MaxZones int
	// SplitParts is the maximum number of sub-zones a single split
	// produces (bounded below by MinZoneRows). Default 8.
	SplitParts int
	// HeatAlpha is the EWMA step for per-zone usefulness. Default 0.25.
	HeatAlpha float64
	// MergeHeat merges adjacent zones when both have usefulness below this
	// threshold. Default 0.05.
	MergeHeat float64
	// MaxZoneRows caps how large merges may grow a zone. Default 1<<20.
	MaxZoneRows int
	// MergeSweepEvery runs the merge sweep every this many queries.
	// Default 8.
	MergeSweepEvery int
	// Window is the effective query window of the arbitration EWMA.
	// Default 32.
	Window int
	// ProbeCost and RowCost are the relative cost-model constants: one
	// zone probe vs one row of scan work avoided. Defaults 4 and 1 —
	// probing metadata touches scattered cache lines, scanning is
	// sequential, so a probe must save several rows to break even.
	ProbeCost float64
	RowCost   float64
	// ReprobeEvery is the shadow-probe period while disabled. Default 32.
	ReprobeEvery int
	// TailFoldRows folds the unindexed append tail into zones once it
	// reaches this many rows. Default InitialZoneRows.
	TailFoldRows int
	// DisableSplit, DisableMerge, and DisableArbitration switch off the
	// corresponding adaptive mechanism. They exist for the ablation
	// experiments; production use keeps all three on.
	DisableSplit       bool
	DisableMerge       bool
	DisableArbitration bool
}

func (c Config) withDefaults() Config {
	if c.InitialZoneRows <= 0 {
		c.InitialZoneRows = 65536
	}
	if c.MinZoneRows <= 0 {
		c.MinZoneRows = 1024
	}
	if c.MaxZones <= 0 {
		c.MaxZones = 65536
	}
	if c.SplitParts <= 0 {
		c.SplitParts = 8
	}
	if c.HeatAlpha <= 0 || c.HeatAlpha > 1 {
		c.HeatAlpha = 0.25
	}
	if c.MergeHeat <= 0 {
		c.MergeHeat = 0.05
	}
	if c.MaxZoneRows <= 0 {
		c.MaxZoneRows = 1 << 20
	}
	if c.MergeSweepEvery <= 0 {
		c.MergeSweepEvery = 8
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.ProbeCost <= 0 {
		c.ProbeCost = 4
	}
	if c.RowCost <= 0 {
		c.RowCost = 1
	}
	if c.ReprobeEvery <= 0 {
		c.ReprobeEvery = 32
	}
	if c.TailFoldRows <= 0 {
		c.TailFoldRows = c.InitialZoneRows
	}
	return c
}

// zone is one variable-width zone. Bounds are sound (enclose every
// non-null value in the window) but may be loose after updates; they are
// re-tightened by splits, which recompute exact sub-bounds.
type zone struct {
	lo, hi   int
	min, max int64
	nonNull  int
	heat     float64 // EWMA of probe usefulness in [0,1]
	// statSkip/statFail implement exponential backoff on statistics
	// gathering: a zone whose stats failed to justify a split stops
	// paying the (cheap but nonzero) piggyback cost for a while, so a
	// converged structure scans at plain-kernel speed.
	statSkip uint16
	statFail uint8
	// hits/misses are lifetime prune counters for introspection: hits
	// count probes where this zone's metadata was useful (skipped or
	// proven covered), misses count probes that left it a candidate the
	// scan had to read. Zones pruned at the block level are credited
	// lazily via block.hits (see flushBlockHits), so the two-level probe
	// stays O(blocks + overlapping zones). Split children start at zero;
	// merges sum both sides.
	hits, misses uint64
	// widened marks a zone whose value hull was loosened by an in-place
	// update since it was last (re)built, so a prune miss on it may be
	// stale metadata rather than data distribution. Cleared when a split
	// or fold recomputes exact bounds; merges inherit either side's flag.
	widened bool
}

const zoneBytes = 8 + 8 + 8 + 8 + 8 + 8 + 16 // struct footprint estimate

// Stats exposes lifetime counters for experiments and introspection.
type Stats struct {
	Queries    int
	Splits     int // zones created by splitting (net additions)
	Merges     int // zones removed by merging
	Disables   int
	Enables    int
	NetBenefit float64 // EWMA of (rows-skipped·RowCost − probes·ProbeCost)
	TailRows   int
}

// blockZones is the fan-in of the coarse probe level: one block summarizes
// up to this many consecutive zones. Probing is two-level — block bounds
// first, member zones only inside overlapping blocks — so a finely refined
// structure (tens of thousands of zones) still probes O(zones/64 + hits)
// per query instead of O(zones).
const blockZones = 64

// block is the coarse-level summary of a run of consecutive zones.
type block struct {
	min, max int64
	hasData  bool // any member zone holds a value
	// hits counts probes that pruned this whole block with one
	// comparison. Each such probe effectively pruned every member zone;
	// the credit is attributed to the members lazily (flushBlockHits)
	// so the block-skip fast path stays a single increment.
	hits uint64
}

// Zonemap is an adaptive zonemap over one column. It implements
// core.Skipper. Not safe for concurrent mutation.
type Zonemap struct {
	cfg    Config
	zones  []zone
	blocks []block // coarse level; block i covers zones [i*blockZones, ...)
	rows   int     // total rows, including unindexed tail
	tailLo int     // zones tile [0, tailLo); tail is [tailLo, rows)

	enabled         bool
	netBenefit      float64
	queries         int
	disabledQueries int

	splits, merges, disables, enables int

	lastRanges expr.Ranges // predicate of the in-flight query (Prune→Observe)
	scratch    []zone      // reusable buffer for structural rebuilds

	// Why-not-skipped classification of the most recent Prune (see
	// core.PruneReasoner): zones left as candidates because of genuine
	// bounds overlap, loosened (widened) bounds, or a NULL-blocked
	// coverage proof.
	lastOverlap, lastWidened, lastNullStraddle int

	// Cumulative probe accounting for ROI reporting: lifetime rows
	// skipped and zone probes across all Prune/PruneNulls calls. Two adds
	// per query, far below the probe work itself.
	cumRowsSkipped int64
	cumZoneProbes  int64
	// maintEvents counts structural/arbitration events (the ledger
	// debits); maintZones counts the zones those events touched.
	maintEvents int64
	maintZones  int64

	// health is non-nil once corruption has been detected; the zonemap
	// then declines every probe and ignores maintenance calls.
	health error

	ledger func(obs.LedgerRecord) // adaptation-ledger sink; nil = no journal
}

// Health implements core.HealthChecker: non-nil once the zonemap has
// detected internal corruption and stopped pruning.
func (z *Zonemap) Health() error { return z.health }

// setHealth records the first detected corruption.
func (z *Zonemap) setHealth(err error) {
	if z.health == nil {
		z.health = err
	}
}

// SetLedgerSink implements core.LedgerEmitter: zone-lifecycle records
// with cause and before/after bounds are journaled through sink. Records
// fire only on adaptation (splits, merges, arbitration flips, tail folds,
// first widens) — never per probe — so the sink is far off the scan path.
func (z *Zonemap) SetLedgerSink(sink func(obs.LedgerRecord)) { z.ledger = sink }

// ledgerEmit journals one lifecycle record if a sink is installed.
func (z *Zonemap) ledgerEmit(rec obs.LedgerRecord) {
	if z.ledger != nil {
		z.ledger(rec)
	}
}

// LastPruneReasons implements core.PruneReasoner: the miss
// classification of the most recent Prune call.
func (z *Zonemap) LastPruneReasons() (overlap, widened, nullStraddle int) {
	return z.lastOverlap, z.lastWidened, z.lastNullStraddle
}

// New builds an adaptive zonemap over the column's current physical state.
func New(codes []int64, nulls *bitvec.BitVec, cfg Config) *Zonemap {
	z := &Zonemap{cfg: cfg.withDefaults(), enabled: true}
	z.rows = len(codes)
	z.appendZones(codes, nulls, 0, len(codes))
	z.tailLo = len(codes)
	z.rebuildBlocks()
	return z
}

// rebuildBlocks recomputes the coarse probe level from the zone slice.
// Called after any structural change (splits, merges, tail folds); O(zones).
func (z *Zonemap) rebuildBlocks() {
	n := (len(z.zones) + blockZones - 1) / blockZones
	if cap(z.blocks) < n {
		z.blocks = make([]block, n)
	} else {
		z.blocks = z.blocks[:n]
	}
	for bi := 0; bi < n; bi++ {
		b := block{}
		lo, hi := bi*blockZones, (bi+1)*blockZones
		if hi > len(z.zones) {
			hi = len(z.zones)
		}
		for i := lo; i < hi; i++ {
			zn := &z.zones[i]
			if zn.nonNull == 0 {
				continue
			}
			if !b.hasData {
				b.min, b.max = zn.min, zn.max
				b.hasData = true
				continue
			}
			if zn.min < b.min {
				b.min = zn.min
			}
			if zn.max > b.max {
				b.max = zn.max
			}
		}
		z.blocks[bi] = b
	}
}

// flushBlockHits folds deferred block-level prune credits into the member
// zones' hit counters and zeroes the block counters. Must run before any
// structural change to z.zones (splits, merges, tail folds) — afterwards
// the block→zone mapping is stale — and before per-zone counters are read
// (SnapshotZones). O(zones), the same order as the structural operations
// that require it.
func (z *Zonemap) flushBlockHits() {
	for bi := range z.blocks {
		h := z.blocks[bi].hits
		if h == 0 {
			continue
		}
		z.blocks[bi].hits = 0
		lo, hi := bi*blockZones, (bi+1)*blockZones
		if hi > len(z.zones) {
			hi = len(z.zones)
		}
		for i := lo; i < hi; i++ {
			z.zones[i].hits += h
		}
	}
}

// SnapshotZones implements core.ZoneIntrospector: a copy of up to max
// zones' introspection state (all zones when max <= 0), oldest row range
// first. Lifetime hit/miss counters include block-level prune credits.
func (z *Zonemap) SnapshotZones(max int) []obs.SkipmapZone {
	z.flushBlockHits()
	n := len(z.zones)
	if max > 0 && n > max {
		n = max
	}
	out := make([]obs.SkipmapZone, n)
	for i := 0; i < n; i++ {
		zn := &z.zones[i]
		out[i] = obs.SkipmapZone{
			Lo: zn.lo, Hi: zn.hi, Min: zn.min, Max: zn.max,
			NonNull: zn.nonNull, Heat: zn.heat,
			Hits: zn.hits, Misses: zn.misses,
		}
	}
	return out
}

// maintCostRows is the assumed cost of one zone's worth of maintenance
// work (split bound computation, merge bookkeeping, fold recompute) in
// row-equivalents. Splits piggyback on scans the query already paid for,
// so the residual cost is small but not free: copying zone structs,
// rebuilding the coarse level, and the cache pollution of touching the
// metadata all land near the cost of scanning ~64 rows. ROI accounting
// debits this per maintenance-touched zone.
const maintCostRows = 64

// SnapshotROI implements core.ROIReporter: the column's lifetime
// adaptation return-on-investment. Credit is rows the metadata pruned;
// debit is probe work plus maintenance work in row-equivalents under the
// configured cost model. Dead zones — probed but never once useful — are
// counted and detailed up to maxDead, so operators can see which row
// ranges carry metadata that earns nothing.
func (z *Zonemap) SnapshotROI(maxDead int) obs.ColumnROI {
	z.flushBlockHits()
	md := z.Metadata()
	roi := obs.ColumnROI{
		Kind: md.Kind, Zones: md.Zones, Bytes: md.Bytes,
		RowsSkipped: z.cumRowsSkipped,
		ZoneProbes:  z.cumZoneProbes,
		MaintEvents: z.maintEvents,
		MaintZones:  z.maintZones,
		NetRows: z.cfg.RowCost*float64(z.cumRowsSkipped) -
			z.cfg.ProbeCost*float64(z.cumZoneProbes) -
			maintCostRows*float64(z.maintZones),
	}
	for i := range z.zones {
		zn := &z.zones[i]
		if zn.hits == 0 && zn.misses > 0 {
			roi.DeadZones++
			if maxDead > 0 && len(roi.DeadZoneDetail) < maxDead {
				roi.DeadZoneDetail = append(roi.DeadZoneDetail, obs.ROIZone{
					Lo: zn.lo, Hi: zn.hi, Min: zn.min, Max: zn.max,
					Hits: zn.hits, Misses: zn.misses,
				})
			}
		}
	}
	return roi
}

// widenBlock loosens the block containing zone index i to admit code.
func (z *Zonemap) widenBlock(i int, code int64) {
	b := &z.blocks[i/blockZones]
	if !b.hasData {
		b.min, b.max, b.hasData = code, code, true
		return
	}
	if code < b.min {
		b.min = code
	}
	if code > b.max {
		b.max = code
	}
}

// appendZones builds InitialZoneRows-wide zones over rows [from, to) and
// appends them.
func (z *Zonemap) appendZones(codes []int64, nulls *bitvec.BitVec, from, to int) {
	for lo := from; lo < to; lo += z.cfg.InitialZoneRows {
		hi := lo + z.cfg.InitialZoneRows
		if hi > to {
			hi = to
		}
		nz := zone{lo: lo, hi: hi, heat: 0.5}
		min, max, ok := scan.MinMaxRange(codes, lo, hi, nulls)
		if ok {
			nz.min, nz.max = min, max
			nz.nonNull = hi - lo
			if nulls != nil {
				nz.nonNull -= nulls.CountRange(lo, hi)
			}
		}
		z.zones = append(z.zones, nz)
	}
}

// Rows returns the rows covered (including the unindexed tail).
func (z *Zonemap) Rows() int { return z.rows }

// NumZones returns the current zone count.
func (z *Zonemap) NumZones() int { return len(z.zones) }

// Enabled reports whether arbitration currently allows skipping.
func (z *Zonemap) Enabled() bool { return z.enabled }

// Stats returns lifetime counters.
func (z *Zonemap) Stats() Stats {
	return Stats{
		Queries: z.queries, Splits: z.splits, Merges: z.merges,
		Disables: z.disables, Enables: z.enables,
		NetBenefit: z.netBenefit, TailRows: z.rows - z.tailLo,
	}
}

// Metadata implements core.Skipper. Bytes includes both probe levels.
func (z *Zonemap) Metadata() core.Metadata {
	bytes := len(z.zones)*zoneBytes + len(z.blocks)*(8+8+1)
	return core.Metadata{Kind: "adaptive", Zones: len(z.zones), Bytes: bytes, Enabled: z.enabled}
}

// Prune implements core.Skipper. While disabled it costs nothing except a
// periodic shadow probe that re-evaluates whether skipping would pay.
//
// The probe walk doubles as a cheap corruption check: zones must tile
// the indexed row space exactly, and the walk already visits every block
// (and every zone of overlapping blocks), so verifying contiguity costs
// one comparison per step. On a violation the zonemap declines — a full
// scan is always sound — and records the fault for quarantine, rather
// than emitting a candidate set with silent row gaps.
func (z *Zonemap) Prune(r expr.Ranges) core.PruneResult {
	if z.health != nil {
		return core.PruneResult{Enabled: false}
	}
	z.lastRanges = r
	z.lastOverlap, z.lastWidened, z.lastNullStraddle = 0, 0, 0
	if !z.enabled {
		z.disabledQueries++
		if z.disabledQueries%z.cfg.ReprobeEvery == 0 {
			z.shadowProbe(r)
		}
		if !z.enabled {
			return core.PruneResult{Enabled: false}
		}
	}
	res := core.PruneResult{Enabled: true}
	single := r.Len() == 1
	var rlo, rhi int64
	if single {
		rlo, rhi = r.Lo[0], r.Hi[0]
	}
	prev := 0 // row where the next zone must start (tiling check)
	for bi := range z.blocks {
		b := &z.blocks[bi]
		zLo, zHi := bi*blockZones, (bi+1)*blockZones
		if zHi > len(z.zones) {
			zHi = len(z.zones)
		}
		res.ZonesProbed++ // the block probe
		var blockOverlaps bool
		if single {
			blockOverlaps = b.hasData && b.min <= rhi && b.max >= rlo
		} else {
			blockOverlaps = b.hasData && r.Overlaps(b.min, b.max)
		}
		if !blockOverlaps {
			// One comparison skipped the whole run of zones. Gaps inside
			// a skipped block are still sound to skip: its value bounds
			// enclose every member row, wherever zone boundaries drifted.
			if z.zones[zLo].lo != prev {
				return z.corruptPrune(zLo, z.zones[zLo].lo, prev)
			}
			prev = z.zones[zHi-1].hi
			res.RowsSkipped += prev - z.zones[zLo].lo
			b.hits++ // whole-block prune; member zones credited lazily
			continue
		}
		res.ZonesProbed += zHi - zLo
		for i := zLo; i < zHi; i++ {
			zn := &z.zones[i]
			if zn.lo != prev || zn.hi <= zn.lo {
				return z.corruptPrune(i, zn.lo, prev)
			}
			prev = zn.hi
			var overlaps bool
			if single {
				overlaps = zn.nonNull > 0 && zn.min <= rhi && zn.max >= rlo
			} else {
				overlaps = zn.nonNull > 0 && r.Overlaps(zn.min, zn.max)
			}
			if !overlaps {
				res.RowsSkipped += zn.hi - zn.lo
				// The probe was useful right now; credit the zone.
				zn.heat += z.cfg.HeatAlpha * (1 - zn.heat)
				zn.hits++
				continue
			}
			cand := core.CandidateZone{ID: i, Lo: zn.lo, Hi: zn.hi}
			if zn.nonNull == zn.hi-zn.lo && r.Covers(zn.min, zn.max) {
				// The probe proved the whole zone qualifies: useful.
				zn.heat += z.cfg.HeatAlpha * (1 - zn.heat)
				zn.hits++
				cand.Covered = true
			} else {
				// The zone will be scanned; this probe bought nothing.
				// (Heat is maintained here, at probe time, so candidate
				// runs can merge below without losing the merge signal.)
				zn.heat -= z.cfg.HeatAlpha * zn.heat
				zn.misses++
				// Classify the miss for the why-not-skipped trace: a hull
				// the predicate fully covers means only NULL rows blocked
				// the coverage proof; a loosened hull means the miss may be
				// stale metadata; otherwise the bounds genuinely straddle.
				var coversHull bool
				if single {
					coversHull = rlo <= zn.min && zn.max <= rhi
				} else {
					coversHull = r.Covers(zn.min, zn.max)
				}
				switch {
				case coversHull:
					z.lastNullStraddle++
				case zn.widened:
					z.lastWidened++
				default:
					z.lastOverlap++
				}
				if zn.statSkip > 0 {
					zn.statSkip--
				} else if parts := z.statParts(zn); parts >= 2 {
					cand.WantStats = true
					cand.StatParts = parts
				}
			}
			// Adjacent candidates with the same coverage state merge into
			// one window unless either side wants split statistics: the
			// executor treats them identically, so per-zone identity buys
			// only bookkeeping. A converged structure thus emits a handful
			// of candidate windows regardless of zone count.
			if k := len(res.Zones); k > 0 && !cand.WantStats && !res.Zones[k-1].WantStats &&
				res.Zones[k-1].Covered == cand.Covered && res.Zones[k-1].Hi == zn.lo {
				res.Zones[k-1].Hi = zn.hi
				res.Zones[k-1].ID = core.NoZoneID
				continue
			}
			res.Zones = append(res.Zones, cand)
		}
	}
	if prev != z.tailLo {
		z.setHealth(fmt.Errorf("%w: zones end at %d, tailLo=%d", ErrCorrupt, prev, z.tailLo))
		return core.PruneResult{Enabled: false}
	}
	if z.rows > z.tailLo {
		res.Zones = append(res.Zones, core.CandidateZone{ID: core.NoZoneID, Lo: z.tailLo, Hi: z.rows})
	}
	z.cumRowsSkipped += int64(res.RowsSkipped)
	z.cumZoneProbes += int64(res.ZonesProbed)
	return res
}

// corruptPrune records a tiling violation found mid-probe and declines.
func (z *Zonemap) corruptPrune(idx, got, want int) core.PruneResult {
	z.setHealth(fmt.Errorf("%w: zone %d starts at %d, want %d (layout gap or overlap)", ErrCorrupt, idx, got, want))
	return core.PruneResult{Enabled: false}
}

// PruneNulls implements core.Skipper for IS NULL predicates: zones with no
// NULL rows skip, all-NULL zones are covered. Null-seeking queries carry
// no zone identity (the structure does not refine on them) and include the
// unindexed tail as a candidate.
func (z *Zonemap) PruneNulls() core.PruneResult {
	if z.health != nil {
		return core.PruneResult{Enabled: false}
	}
	res := core.PruneResult{Enabled: true, ZonesProbed: len(z.zones)}
	prev := 0
	for i := range z.zones {
		zn := &z.zones[i]
		if zn.lo != prev || zn.hi <= zn.lo {
			return z.corruptPrune(i, zn.lo, prev)
		}
		prev = zn.hi
		rows := zn.hi - zn.lo
		if zn.nonNull == rows {
			res.RowsSkipped += rows
			zn.hits++
			continue
		}
		covered := zn.nonNull == 0
		if covered {
			zn.hits++
		} else {
			zn.misses++
		}
		if k := len(res.Zones); k > 0 && res.Zones[k-1].Hi == zn.lo && res.Zones[k-1].Covered == covered {
			res.Zones[k-1].Hi = zn.hi
		} else {
			res.Zones = append(res.Zones, core.CandidateZone{ID: core.NoZoneID, Lo: zn.lo, Hi: zn.hi, Covered: covered})
		}
	}
	if prev != z.tailLo {
		z.setHealth(fmt.Errorf("%w: zones end at %d, tailLo=%d", ErrCorrupt, prev, z.tailLo))
		return core.PruneResult{Enabled: false}
	}
	if z.rows > z.tailLo {
		res.Zones = append(res.Zones, core.CandidateZone{ID: core.NoZoneID, Lo: z.tailLo, Hi: z.rows})
	}
	z.cumRowsSkipped += int64(res.RowsSkipped)
	z.cumZoneProbes += int64(res.ZonesProbed)
	return res
}

// statParts computes how many sub-partitions a scan of zn should report,
// respecting the split floor. Returns <2 when the zone cannot be split.
func (z *Zonemap) statParts(zn *zone) int {
	parts := (zn.hi - zn.lo) / z.cfg.MinZoneRows
	if parts > z.cfg.SplitParts {
		parts = z.cfg.SplitParts
	}
	return parts
}

// Extend implements core.Skipper: appended rows enter the unindexed tail,
// which is folded into coarse zones once it exceeds TailFoldRows.
func (z *Zonemap) Extend(codes []int64, nulls *bitvec.BitVec) {
	z.rows = len(codes)
	if z.rows-z.tailLo >= z.cfg.TailFoldRows {
		z.FoldTail(codes, nulls)
	}
}

// FoldTail immediately folds the append tail into zones regardless of its
// size. Exposed for bulk-load epilogues and tests.
func (z *Zonemap) FoldTail(codes []int64, nulls *bitvec.BitVec) {
	if z.rows <= z.tailLo {
		return
	}
	z.flushBlockHits()
	before := len(z.zones)
	foldLo := z.tailLo
	z.appendZones(codes, nulls, z.tailLo, z.rows)
	z.tailLo = z.rows
	z.rebuildBlocks()
	z.maintZones += int64(len(z.zones) - before)
	z.maintEvents++
	// The folded region's hull: the tail had no metadata before.
	var h hull
	h.add(z.zones[before:]...)
	z.ledgerEmit(obs.LedgerRecord{
		Kind: obs.EventTailFold, Cause: "append-fold",
		ZonesBefore: before, ZonesAfter: len(z.zones),
		RowLo: foldLo, RowHi: z.rows,
		MinAfter: h.min, MaxAfter: h.max,
	})
}

// hull is the value-bound hull of the non-empty zones added to it; an
// all-NULL zone has no bounds and contributes nothing. Both bounds stay
// 0 until the first non-empty zone arrives.
type hull struct {
	min, max int64
	set      bool
}

// add widens the hull by each zone's bounds.
func (h *hull) add(zs ...zone) {
	for i := range zs {
		zn := &zs[i]
		switch {
		case zn.nonNull == 0:
		case !h.set:
			h.min, h.max, h.set = zn.min, zn.max, true
		default:
			h.min = min(h.min, zn.min)
			h.max = max(h.max, zn.max)
		}
	}
}

// Widen implements core.Skipper: loosen the enclosing zone's bounds so an
// in-place update can never be wrongly skipped. Rows in the tail need no
// metadata maintenance. A row no zone covers marks the structure corrupt
// (see zoneIndex) instead of widening anything; the zonemap then declines
// all probes, so the missed widening can never cause a wrong skip.
func (z *Zonemap) Widen(row int, code int64) {
	if row >= z.tailLo {
		return
	}
	i := z.zoneIndex(row)
	if i < 0 {
		return
	}
	zn := &z.zones[i]
	z.widenBlock(i, code)
	if zn.nonNull == 0 {
		zn.min, zn.max = code, code
		return
	}
	if code >= zn.min && code <= zn.max {
		return // inside the hull; nothing loosened
	}
	minBefore, maxBefore := zn.min, zn.max
	if code < zn.min {
		zn.min = code
	}
	if code > zn.max {
		zn.max = code
	}
	// Journal only the first loosening since the zone's last rebuild:
	// the flag is what the why-not-skipped classifier reads, and one
	// record per zone generation bounds ledger churn under update floods.
	if !zn.widened {
		zn.widened = true
		z.ledgerEmit(obs.LedgerRecord{
			Kind: obs.EventWiden, Cause: "update-widen",
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: zn.lo, RowHi: zn.hi,
			MinBefore: minBefore, MaxBefore: maxBefore,
			MinAfter: zn.min, MaxAfter: zn.max,
		})
	}
}

// NoteNonNull implements core.Skipper.
func (z *Zonemap) NoteNonNull(row int) {
	if row >= z.tailLo {
		return
	}
	if i := z.zoneIndex(row); i >= 0 {
		z.zones[i].nonNull++
	}
}

// zoneIndex locates the zone containing row by binary search. A row the
// zones do not cover means the layout invariant is violated; rather than
// panic (which used to crash the whole process mid-query), the zonemap
// records the corruption — permanently declining to prune — and returns
// -1 so callers degrade to a no-op.
func (z *Zonemap) zoneIndex(row int) int {
	i := sort.Search(len(z.zones), func(i int) bool { return z.zones[i].hi > row })
	if i == len(z.zones) || z.zones[i].lo > row {
		z.setHealth(fmt.Errorf("%w: row %d not covered by zones (tailLo=%d)", ErrCorrupt, row, z.tailLo))
		return -1
	}
	return i
}

// CheckInvariants verifies the structural invariants against the column's
// physical state: zones are sorted, non-empty, tile [0, tailLo) exactly,
// bounds enclose every non-null value, and non-null counts are exact or
// conservative (Widen may leave counts stale low only via NoteNonNull
// omission, which is a caller bug — here they must match exactly when
// exact==true).
func (z *Zonemap) CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error {
	if z.health != nil {
		return z.health
	}
	prev := 0
	for i, zn := range z.zones {
		if zn.lo != prev {
			return fmt.Errorf("adaptive: zone %d starts at %d, want %d (gap or overlap)", i, zn.lo, prev)
		}
		if zn.hi <= zn.lo {
			return fmt.Errorf("adaptive: zone %d empty [%d,%d)", i, zn.lo, zn.hi)
		}
		prev = zn.hi
		nonNull := 0
		for r := zn.lo; r < zn.hi; r++ {
			if nulls != nil && nulls.Get(r) {
				continue
			}
			nonNull++
			if codes[r] < zn.min || codes[r] > zn.max {
				return fmt.Errorf("adaptive: zone %d bounds [%d,%d] exclude row %d code %d", i, zn.min, zn.max, r, codes[r])
			}
		}
		if exact && nonNull != zn.nonNull {
			return fmt.Errorf("adaptive: zone %d nonNull=%d, actual %d", i, zn.nonNull, nonNull)
		}
		if !exact && zn.nonNull > nonNull {
			return fmt.Errorf("adaptive: zone %d nonNull=%d exceeds actual %d", i, zn.nonNull, nonNull)
		}
	}
	if prev != z.tailLo {
		return fmt.Errorf("adaptive: zones end at %d, tailLo=%d", prev, z.tailLo)
	}
	if z.tailLo > z.rows {
		return fmt.Errorf("adaptive: tailLo %d beyond rows %d", z.tailLo, z.rows)
	}
	// Coarse level must enclose its member zones.
	if want := (len(z.zones) + blockZones - 1) / blockZones; len(z.blocks) != want {
		return fmt.Errorf("adaptive: %d blocks for %d zones, want %d", len(z.blocks), len(z.zones), want)
	}
	for i, zn := range z.zones {
		if zn.nonNull == 0 {
			continue
		}
		b := z.blocks[i/blockZones]
		if !b.hasData || zn.min < b.min || zn.max > b.max {
			return fmt.Errorf("adaptive: block %d bounds [%d,%d] exclude zone %d [%d,%d]",
				i/blockZones, b.min, b.max, i, zn.min, zn.max)
		}
	}
	return nil
}

// corruptLayout deterministically breaks the zone tiling invariant — the
// last multi-row zone's upper bound shrinks by one, leaving a row gap.
// It exists only as the faultinject.InvariantFlip chaos hook: the next
// probe must detect the gap, decline, and get the zonemap quarantined.
func (z *Zonemap) corruptLayout() {
	for i := len(z.zones) - 1; i >= 0; i-- {
		if z.zones[i].hi-z.zones[i].lo > 1 {
			z.zones[i].hi--
			return
		}
	}
}

// DescribeZones renders up to max zones for the demo REPL.
func (z *Zonemap) DescribeZones(max int) string {
	s := fmt.Sprintf("adaptive zonemap: %d zones over %d rows (tail %d), enabled=%v\n",
		len(z.zones), z.rows, z.rows-z.tailLo, z.enabled)
	for i, zn := range z.zones {
		if i >= max {
			s += fmt.Sprintf("  ... %d more zones\n", len(z.zones)-max)
			break
		}
		s += fmt.Sprintf("  zone %4d rows [%9d,%9d) bounds [%d,%d] nonNull=%d heat=%.2f\n",
			i, zn.lo, zn.hi, zn.min, zn.max, zn.nonNull, zn.heat)
	}
	return s
}

var (
	_ core.Skipper          = (*Zonemap)(nil)
	_ core.HealthChecker    = (*Zonemap)(nil)
	_ core.InvariantChecker = (*Zonemap)(nil)
	_ core.ZoneIntrospector = (*Zonemap)(nil)
	_ core.LedgerEmitter    = (*Zonemap)(nil)
	_ core.PruneReasoner    = (*Zonemap)(nil)
	_ core.ROIReporter      = (*Zonemap)(nil)
)

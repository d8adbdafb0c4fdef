package engine

import (
	"fmt"
	"sync"

	"adskip/internal/core"
	"adskip/internal/faultinject"
	obs2 "adskip/internal/obs"
	"adskip/internal/scan"
)

// Parallel scan execution for the COUNT fast path, full scans included.
// Candidate windows are partitioned into contiguous groups of roughly
// equal row volume, one per worker (see partitionZones); each worker runs
// the same kernels over its group and the partial counts, statistics, and
// zone observations merge losslessly (counting is associative,
// observations are per-zone). Results are therefore bit-identical to the
// serial path.
//
// Every worker goroutine recovers its own panics into an error — panics
// cannot cross goroutines, so an unrecovered worker panic would kill the
// process. Workers also share the query's qctx: kernels run in
// checkpoint-sized chunks, and the first cancellation or budget failure
// latches so sibling workers abandon their slices at their next tick.

// minRowsPerWorker keeps tiny scans serial: goroutine fan-out only pays
// off when each worker gets substantial contiguous work.
const minRowsPerWorker = 1 << 16

// zoneWork is one worker's slice of the candidate list.
type zoneWork struct {
	zones []core.CandidateZone
	count int
	obs   []core.ZoneObservation
	stats ExecStats
	span  *obs2.Span // per-worker trace span; nil when tracing is coarse
}

// parallelCountZones executes the candidate zones across workers and
// returns the merged count, observations (in candidate order), and stats.
func (e *Engine) parallelCountZones(qc *qctx, p *colPlan, zones []core.CandidateZone, workers int) (int, []core.ZoneObservation, ExecStats, error) {
	totalRows := 0
	for _, z := range zones {
		totalRows += z.Hi - z.Lo
	}
	if workers <= 1 || totalRows < minRowsPerWorker*2 {
		w := zoneWork{zones: zones}
		err := e.scanZoneGroup(qc, p, &w)
		return w.count, w.obs, w.stats, err
	}
	groups := partitionZones(zones, totalRows, workers)
	// Pre-create one child span per worker from the coordinator; each
	// worker finishes only its own span, so no span is shared between
	// concurrent writers.
	if qc.span != nil {
		for g := range groups {
			groups[g].span = qc.span.StartChild(fmt.Sprintf("worker %d", g))
		}
	}
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for g := range groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer recoverToError(&errs[g])
			if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
				panic(faultinject.PanicValue)
			}
			errs[g] = e.scanZoneGroup(qc, p, &groups[g])
		}(g)
	}
	wg.Wait()
	if err := firstWorkerError(errs); err != nil {
		return 0, nil, ExecStats{}, err
	}
	count := 0
	var obs []core.ZoneObservation
	var stats ExecStats
	for _, g := range groups {
		count += g.count
		obs = append(obs, g.obs...)
		stats.RowsScanned += g.stats.RowsScanned
		stats.RowsCovered += g.stats.RowsCovered
	}
	return count, obs, stats, nil
}

// partitionZones splits the candidate list into contiguous groups of
// roughly equal row volume, one per worker. A window without a zone
// identity (a full scan, an unindexed tail) owes no per-zone feedback, so
// it is cut wherever a group fills; zones with an identity stay whole.
func partitionZones(zones []core.CandidateZone, totalRows, workers int) []zoneWork {
	groups := make([]zoneWork, 0, workers)
	target := (totalRows + workers - 1) / workers
	var cur []core.CandidateZone
	acc := 0
	for _, z := range zones {
		for z.ID == core.NoZoneID && acc+z.Hi-z.Lo > target {
			head := z
			head.Hi = z.Lo + target - acc
			groups = append(groups, zoneWork{zones: append(cur, head)})
			cur, acc = nil, 0
			z.Lo = head.Hi
		}
		cur = append(cur, z)
		acc += z.Hi - z.Lo
		if acc >= target {
			groups = append(groups, zoneWork{zones: cur})
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		groups = append(groups, zoneWork{zones: cur})
	}
	return groups
}

// scanZoneGroup runs the fast-count kernels over one group of candidate
// zones, accumulating into w until the first cancellation or budget error. Counting kernels are chunked at checkpoint
// granularity; the statistics kernel runs whole-zone (its partitions must
// be exact) and ticks afterward — zones are bounded by MaxZoneRows, so
// the overshoot is bounded too.
func (e *Engine) scanZoneGroup(qc *qctx, p *colPlan, w *zoneWork) error {
	codes := p.col.Codes()
	nulls := p.col.Nulls()
	tk := &ticker{qc: qc}
	if w.span != nil {
		defer func() {
			rowsIn := 0
			for _, c := range w.zones {
				rowsIn += c.Hi - c.Lo
			}
			w.span.FinishRows(rowsIn, w.count, 0)
		}()
	}
	count := func(lo, hi int) int {
		if p.pred.NullOnly {
			return scan.CountNulls(nulls, lo, hi)
		}
		return scan.CountRanges(codes, lo, hi, p.pred.R, nulls)
	}
	for _, c := range w.zones {
		ob := core.ZoneObservation{ID: c.ID, Lo: c.Lo, Hi: c.Hi, Covered: c.Covered}
		if c.Covered {
			w.count += c.Hi - c.Lo
			w.stats.RowsCovered += c.Hi - c.Lo
		} else {
			var err error
			if c.WantStats && !p.pred.NullOnly {
				ob.Matched, ob.Stats = scan.CountWithStats(codes, c.Lo, c.Hi, p.pred.R, nulls, c.StatParts)
				err = tk.tick(c.Hi - c.Lo)
			} else {
				ob.Matched, err = countChunks(tk, c.Lo, c.Hi, count)
			}
			if err != nil {
				return err
			}
			w.count += ob.Matched
			w.stats.RowsScanned += c.Hi - c.Lo
		}
		if c.ID != core.NoZoneID {
			w.obs = append(w.obs, ob)
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"adskip"
	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/sql"
)

// inproc is the in-process pass: the run's generated stream replayed
// against a freshly built DB, timed from the benchmark at ns resolution
// around sql.Parse, sql.Plan and the executor, because the wire timing
// counts whole µs and truncates the sub-µs phases.
type inproc struct {
	queries int
	misses  int // statement-cache misses (parse + plan ran)

	parse, plan, exec time.Duration
	probe, shardPrune time.Duration
	scan, feedback    time.Duration
	rowsScanned       int64
	zonesProbed       int64

	mallocs, allocBytes uint64

	wrong    int
	firstBad error
	cut      bool
}

// runInProcess replays warm-up then window: readers' streams in
// round-robin, writer batches spread evenly between queries. Only window
// queries are measured. Parse and plan run once per distinct SQL text, as
// the server's statement cache would (256 entries, more than any run's
// templates), and count as zero on hits. The DB has no WAL: only queries
// are timed here, and fsync-paced appends would only stretch the pass.
func runInProcess(s spec, seed int64, p plan, o *oracle, workDir string, deadline time.Time) (*inproc, error) {
	s.durable = false
	st, _, err := setup(s, seed, workDir, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ex := st.tbl.Executor()
	type entry struct {
		q  engine.Query
		fp string
	}
	cache := make(map[string]entry)
	out := &inproc{}
	top := make([]int64, 0, topK)
	var inserted int64

	appendBatch := func() error {
		rows := make([][]adskip.Value, insertBatch)
		for i := range rows {
			v, seq, noise := insertedRow(s, inserted+int64(i))
			rows[i] = []adskip.Value{adskip.IntValue(v), adskip.IntValue(seq), adskip.FloatValue(noise)}
		}
		if err := st.tbl.AppendBatch(rows); err != nil {
			return fmt.Errorf("append: %w", err)
		}
		inserted += insertBatch
		return nil
	}

	phases := []struct {
		readers [][]query
		batches int
		measure bool
	}{{p.warm, p.warmBatches, false}, {p.window, p.batches, true}}
	for _, ph := range phases {
		qs := interleave(ph.readers)
		texts := make([]string, len(qs)) // rendered up front: not the system's allocations
		for i, q := range qs {
			texts[i] = q.sql()
		}
		done := 0
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i, q := range qs {
			if time.Now().After(deadline) {
				out.cut = true
				return out, nil
			}
			// Writer batches due before query i; allocation counts cover
			// only the queries between them.
			if due := ph.batches * i / len(qs); done < due {
				if ph.measure {
					runtime.ReadMemStats(&ms1)
					out.mallocs += ms1.Mallocs - ms0.Mallocs
					out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				}
				for ; done < due; done++ {
					if err := appendBatch(); err != nil {
						return nil, err
					}
				}
				runtime.ReadMemStats(&ms0)
			}
			text := texts[i]
			var tParse, tPlan time.Duration
			ent, hit := cache[text]
			if !hit {
				t0 := time.Now()
				stmt, err := sql.Parse(text)
				tParse = time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("parse %q: %w", text, err)
				}
				t1 := time.Now()
				pq, err := sql.Plan(stmt, ex.Table())
				tPlan = time.Since(t1)
				if err != nil {
					return nil, fmt.Errorf("plan %q: %w", text, err)
				}
				ent = entry{q: pq, fp: sql.Fingerprint(stmt)}
				cache[text] = ent
			}
			// Stamp the context the way the server does, so the engine
			// does the same attribution work.
			ctx := obs.WithTemplate(context.Background(), ent.fp)
			if hit {
				ctx = obs.WithPlanCached(ctx)
			}
			t2 := time.Now()
			res, err := ex.QueryContext(ctx, ent.q)
			tExec := time.Since(t2)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", text, err)
			}
			a, err := fromEngine(q, res, top)
			if err == nil {
				err = o.check(q, a, inserted, inserted)
			}
			if err != nil {
				out.wrong++
				if out.firstBad == nil {
					out.firstBad = err
				}
			}
			if !ph.measure {
				continue
			}
			out.queries++
			if !hit {
				out.misses++
			}
			out.parse += tParse
			out.plan += tPlan
			out.exec += tExec
			if tr := res.Trace; tr != nil {
				out.probe += tr.Probe
				out.shardPrune += tr.ShardPrune
				out.scan += tr.Scan
				out.feedback += tr.Feedback
			}
			out.rowsScanned += int64(res.Stats.RowsScanned)
			out.zonesProbed += int64(res.Stats.ZonesProbed)
		}
		if ph.measure {
			runtime.ReadMemStats(&ms1)
			out.mallocs += ms1.Mallocs - ms0.Mallocs
			out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		for ; done < ph.batches; done++ {
			if err := appendBatch(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// interleave merges per-reader streams round-robin.
func interleave(readers [][]query) []query {
	var out []query
	for i := 0; ; i++ {
		more := false
		for _, r := range readers {
			if i < len(r) {
				out = append(out, r[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

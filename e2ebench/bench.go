package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"adskip/internal/proto"
)

// servedRun is one served pass: set up, warm up, measured window and, on
// read-only workloads, an insert tail after the window.
type servedRun struct {
	setups             []time.Duration
	warm, window, tail *phase
	c0, c1, c2         counters // after setup, after warm-up, after the window
	heap               uint64   // system live heap at the end of the window
}

func runServed(s spec, seed int64, p plan, o *oracle, workDir string, setups int, timing, tail bool, deadline time.Time) (*servedRun, error) {
	r := &servedRun{}
	var st *stack
	var heap0 uint64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		heap0 = liveHeap()
		var d time.Duration
		var err error
		if st, d, err = setup(s, seed, workDir, true); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d)
	}
	defer st.close()
	// Collect set-up's garbage now, so its GC cycles do not land in the
	// warm-up and make it swing with the collector's timing.
	runtime.GC()
	var err error
	if r.c0, err = snapshot(st.db); err != nil {
		return nil, err
	}
	r.warm = st.run(p.warm, p.warmBatches, false, o, deadline)
	if r.c1, err = snapshot(st.db); err != nil {
		return nil, err
	}
	r.window = st.run(p.window, p.batches, timing, o, deadline)
	if r.c2, err = snapshot(st.db); err != nil {
		return nil, err
	}
	if h := liveHeap(); h > heap0 {
		r.heap = h - heap0
	}
	if tail && p.tailBatches > 0 {
		r.tail = st.run(nil, p.tailBatches, false, o, deadline)
	}
	return r, nil
}

func (r *servedRun) count(rep *report) {
	rep.count(r.warm)
	rep.count(r.window)
	rep.count(r.tail)
}

// maxChunks is how many consecutive slices a window's requests are cut
// into at most. Rates and quantiles are taken per slice and the median
// slice reported, so one disturbed stretch of a run (a GC cycle, a busy
// neighbour on a shared host) moves its figures less. A slice holds at
// least 500 requests, so its p90 has 50 samples beyond it.
const maxChunks = 5

// sliced cuts ops, in reply order, into an odd number of slices of equal
// count and returns the median over slices of the completion rate
// (requests per second) and of the nearest-rank p50 and p90 round trip.
// The tail is p90, not p99: on a shared VM, CPU steal stalls a few percent
// of requests by milliseconds, so p99 measures the host more than the
// program (README.md).
func sliced(ops []op) (rate float64, p50, p90 time.Duration) {
	byEnd := slices.Clone(ops)
	slices.SortFunc(byEnd, func(a, b op) int { return cmp.Compare(a.end, b.end) })
	chunks := max(min(maxChunks, len(byEnd)/500), 1)
	if chunks%2 == 0 {
		chunks--
	}
	var rates []float64
	var q50, q90 []time.Duration
	var from time.Duration
	for c := 0; c < chunks; c++ {
		part := byEnd[c*len(byEnd)/chunks : (c+1)*len(byEnd)/chunks]
		if len(part) == 0 {
			continue
		}
		to := part[len(part)-1].end
		rates = append(rates, float64(len(part))/(to-from).Seconds())
		from = to
		lat := make([]time.Duration, len(part))
		for i, o := range part {
			lat[i] = o.end - o.start
		}
		slices.Sort(lat)
		q50 = append(q50, quantile(lat, 0.50))
		q90 = append(q90, quantile(lat, 0.90))
	}
	return median(rates), median(q50), median(q90)
}

func median[T cmp.Ordered](xs []T) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// measured returns the window's queries and the inserts behind the insert
// metrics: the concurrent writer's where the workload has one, else the
// tail appended after the window. With a concurrent writer only the
// stretch where both connections were busy counts: whichever side ends
// first leaves the other running alone, and faster, for a share of the
// window that changes from run to run.
func (r *servedRun) measured() (queries, inserts []op) {
	queries = make([]op, len(r.window.queries))
	for i, q := range r.window.queries {
		queries[i] = q.op
	}
	inserts = r.window.inserts
	if len(inserts) == 0 {
		if r.tail != nil {
			inserts = r.tail.inserts
		}
		return queries, inserts
	}
	if len(queries) > 0 {
		end := min(r.window.queryWall, r.window.writeWall)
		until := func(ops []op) []op {
			return slices.DeleteFunc(slices.Clone(ops), func(o op) bool { return o.end > end })
		}
		queries, inserts = until(queries), until(inserts)
	}
	return queries, inserts
}

// runEndToEnd is the untraced run behind the end-to-end metrics.
func runEndToEnd(s spec, seed int64, p plan, o *oracle, workDir string, deadline time.Time) (*report, error) {
	r, err := runServed(s, seed, p, o, workDir, setupRuns, false, true, deadline)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	r.count(rep)

	rep.add("setup_s", median(r.setups).Seconds(), "s", len(r.setups))
	rep.add("warmup_s", max(r.warm.queryWall, r.warm.writeWall).Seconds(), "s", r.warm.attempted)
	qs, ins := r.measured()
	qps, p50, p90 := sliced(qs)
	rep.add("query_qps", qps, "1/s", len(qs))
	rep.add("query_p50_us", us(p50), "us", len(qs))
	rep.add("query_p90_us", us(p90), "us", len(qs))
	bps, ip50, ip90 := sliced(ins)
	rep.add("insert_rows_per_s", bps*insertBatch, "1/s", len(ins))
	rep.add("insert_p50_us", us(ip50), "us", len(ins))
	rep.add("insert_p90_us", us(ip90), "us", len(ins))
	rep.add("heap_mb", float64(r.heap)/1e6, "MB", 1)
	return rep, nil
}

// runLayers is the traced run behind the per-layer metrics: the workload
// untraced, then on a fresh system with every request asking for the
// server's timing breakdown, then replayed in process.
func runLayers(s spec, seed int64, p plan, o *oracle, workDir, env string, deadline time.Time) (*report, error) {
	plain, err := runServed(s, seed, p, o, workDir, 1, false, false, deadline)
	if err != nil {
		return nil, err
	}
	traced, err := runServed(s, seed, p, o, workDir, 1, true, false, deadline)
	if err != nil {
		return nil, err
	}
	ip, err := runInProcess(s, seed, p, o, workDir, deadline)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	plain.count(rep)
	traced.count(rep)
	rep.wrong += ip.wrong
	rep.cut = rep.cut || ip.cut
	if rep.firstBad == nil {
		rep.firstBad = ip.firstBad
	}
	spans := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, seed))
	if err := writeSpans(spans, env, traced.window.queries); err != nil {
		return nil, err
	}

	// Server-side phases from the wire breakdown (whole µs), per query.
	var n, queue, ser, resid, probe, scan, netw float64
	var st proto.Stats
	for _, q := range traced.window.queries {
		st.RowsScanned += q.stats.RowsScanned
		st.RowsSkipped += q.stats.RowsSkipped
		st.RowsCovered += q.stats.RowsCovered
		st.ZonesProbed += q.stats.ZonesProbed
		st.ShardsScanned += q.stats.ShardsScanned
		st.ShardsPruned += q.stats.ShardsPruned
		tm := q.timing
		if tm == nil {
			continue
		}
		n++
		queue += float64(tm.QueueUS)
		ser += float64(tm.SerializeUS)
		resid += float64(tm.TotalUS - tm.PhaseSumUS())
		probe += float64(tm.PruneUS)
		scan += float64(tm.ScanUS)
		netw += us(q.end-q.start) - float64(tm.TotalUS)
	}
	nq := len(traced.window.queries)
	fq := float64(nq)
	ni := int(n)
	rep.add("server.network_us", netw/n, "us", ni)
	rep.add("server.queue_us", queue/n, "us", ni)
	rep.add("server.serialize_us", ser/n, "us", ni)
	c1, c2 := plain.c1, plain.c2
	frames := delta(c1, c2, "adskip_server_frames_written_total")
	rep.add("server.bytes_per_response", ratio(delta(c1, c2, "adskip_server_bytes_written_total"), frames), "B", int(frames))
	hits, misses := delta(c1, c2, "adskip_server_stmt_cache_hits_total"), delta(c1, c2, "adskip_server_stmt_cache_misses_total")
	rep.add("server.stmt_cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))

	// Parse and plan at ns resolution from the in-process pass.
	ipq := float64(ip.queries)
	rep.add("sql.parse_us", us(ip.parse)/ipq, "us", ip.queries)
	rep.add("sql.plan_us", us(ip.plan)/ipq, "us", ip.queries)

	rep.add("engine.residual_us", resid/n, "us", ni)
	rep.add("engine.allocs_per_query", float64(ip.mallocs)/ipq, "count", ip.queries)
	rep.add("engine.alloc_bytes_per_query", float64(ip.allocBytes)/ipq, "B", ip.queries)

	rep.add("adaptive.probe_us", probe/n, "us", ni)
	rep.add("adaptive.probe_ns_per_zone", ratio(int64(ip.probe), ip.zonesProbed), "ns", int(ip.zonesProbed))
	rep.add("adaptive.zones_probed_per_query", float64(st.ZonesProbed)/fq, "count", nq)
	rep.add("adaptive.feedback_us", us(ip.feedback)/ipq, "us", ip.queries)
	rows := int64(st.RowsScanned + st.RowsSkipped + st.RowsCovered)
	rep.add("adaptive.skip_ratio", ratio(int64(st.RowsSkipped), rows), "ratio", nq)
	rep.add("adaptive.rows_skipped_per_probe", ratio(int64(st.RowsSkipped), int64(st.ZonesProbed)), "rows", st.ZonesProbed)
	kq := float64(len(plain.warm.queries)+len(plain.window.queries)) / 1000
	c0 := plain.c0
	splits := delta(c0, c2, "adskip_adapt_events_total", `kind="split"`)
	merges := delta(c0, c2, "adskip_adapt_events_total", `kind="merge"`)
	rep.add("adaptive.splits_per_kq", float64(splits)/kq, "1/kq", int(splits))
	rep.add("adaptive.merges_per_kq", float64(merges)/kq, "1/kq", int(merges))
	rep.add("adaptive.zones", float64(c2.sum("adskip_skipper_zones")), "count", 1)
	rep.add("adaptive.metadata_bytes", float64(c2.sum("adskip_skipper_bytes")), "B", 1)

	rep.add("scan.scan_us", scan/n, "us", ni)
	rep.add("scan.ns_per_row", ratio(int64(ip.scan), ip.rowsScanned), "ns", int(ip.rowsScanned))
	rep.add("scan.rows_scanned_per_query", float64(st.RowsScanned)/fq, "rows", nq)

	rep.add("shard.prune_us", us(ip.shardPrune)/ipq, "us", ip.queries)
	rep.add("shard.pruned_ratio", ratio(int64(st.ShardsPruned), int64(st.ShardsPruned+st.ShardsScanned)), "ratio", nq)

	walRows := delta(c1, c2, "adskip_wal_rows_total")
	syncs := delta(c1, c2, "adskip_wal_syncs_total")
	rep.add("wal.rows_per_sync", ratio(walRows, syncs), "rows", int(syncs))
	rep.add("wal.syncs_per_s", float64(syncs)/plain.window.writeWall.Seconds(), "1/s", int(syncs))
	rep.add("wal.bytes_per_row", ratio(delta(c1, c2, "adskip_wal_bytes_total"), walRows), "B", int(walRows))

	ops := plain.window.attempted
	rep.add("runtime.gc_cycles_per_kop", float64(c2.numGC-c1.numGC)/(float64(ops)/1000), "1/kop", ops)

	// Tracing overhead: the traced window against the untraced one.
	pqs, _ := plain.measured()
	tqs, _ := traced.measured()
	pq, p50, _ := sliced(pqs)
	tq, t50, _ := sliced(tqs)
	rep.add("trace.overhead_qps_pct", 100*(pq-tq)/pq, "%", nq)
	rep.add("trace.overhead_p50_pct", 100*(us(t50)/us(p50)-1), "%", nq)
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes the traced window's spans, one request per line: the
// client call and its children — the server's phases, the residual it
// did not attribute, and the network time. The server reports durations
// only, so children are laid out back to back in phase order.
func writeSpans(path, env string, qs []served) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type span struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	type request struct {
		Trace    int    `json:"trace"`
		SQL      string `json:"sql"`
		Root     span   `json:"root"`
		Children []span `json:"children"`
	}
	enc.Encode(map[string]string{"env": env})
	for i, q := range qs {
		tm := q.timing
		if tm == nil {
			continue
		}
		req := request{Trace: i, SQL: q.q.sql(), Root: span{"client.query", us(q.start), us(q.end)}}
		at := req.Root.StartUS
		child := func(name string, d float64) {
			req.Children = append(req.Children, span{name, at, at + d})
			at += d
		}
		child("network", us(q.end-q.start)-float64(tm.TotalUS))
		child("server.queue", float64(tm.QueueUS))
		child("sql.parse", float64(tm.ParseUS))
		child("sql.plan", float64(tm.PlanUS))
		child("shard.prune", float64(tm.ShardPruneUS))
		child("adaptive.probe", float64(tm.PruneUS))
		child("scan.scan", float64(tm.ScanUS))
		child("server.serialize", float64(tm.SerializeUS))
		child("engine.residual", float64(tm.TotalUS-tm.PhaseSumUS()))
		if err := enc.Encode(req); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

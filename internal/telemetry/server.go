// Package telemetry hosts the engine's embedded observability server: an
// opt-in net/http endpoint exposing Prometheus metrics, pprof profiles,
// recent query traces (browsable as JSON or downloadable as Chrome
// trace_event files), the per-zone skipping-effectiveness heatmap, the
// adaptation ledger, and sampled Go runtime statistics.
//
// The server is strictly read-only and pull-based: it snapshots state the
// engine already maintains (metric registries, trace rings, skipper
// introspection) and never blocks the query path beyond the mutex those
// snapshots take. It depends only on obs plus closures supplied by the
// caller, so it stays decoupled from the engine's types.
package telemetry

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"adskip/internal/health"
	"adskip/internal/obs"
	"adskip/internal/stats"
)

// Source supplies the server's data. Registry and Traces must be set;
// everything else is optional (its endpoint then serves an empty set).
type Source struct {
	// Registry is the metrics registry behind /metrics and /metrics.json.
	Registry *obs.Registry
	// Traces is the ring of recent query traces behind /traces.
	Traces *obs.TraceRing
	// SlowTraces is the slow-query log behind /slow.
	SlowTraces *obs.TraceRing
	// Events returns the retained adaptation-ledger records
	// (chronological).
	Events func() []obs.LedgerRecord
	// Skipmap returns per-table skipping-effectiveness snapshots with at
	// most maxZones of per-zone detail per column.
	Skipmap func(maxZones int) []obs.SkipmapTable
	// History is the adaptation-timeline sampler behind /history and the
	// /dash convergence chart. Optional: /history serves an empty series
	// and /dash degrades gracefully when nil.
	History *obs.Sampler
	// Health returns the current SLO snapshot behind /health. When nil
	// (or when it reports ok=false), /health serves a 200 "disabled"
	// body; otherwise /health is a readiness probe: 503 while any
	// objective is critical, 200 otherwise.
	Health func() (health.Snapshot, bool)
	// Alerts returns the firing objectives and alert-transition history
	// behind /alerts. Optional.
	Alerts func() health.AlertsSnapshot
	// Workload is the per-template workload stats table behind /workload.
	// Optional: when nil, /workload serves an empty snapshot.
	Workload *stats.Table
	// Adaptation returns the adaptation-ledger snapshot (zone-lifecycle
	// records plus per-column ROI rows) behind /adaptation, with at most
	// maxDead dead zones of per-column detail. Optional: when nil,
	// /adaptation serves an empty snapshot.
	Adaptation func(maxDead int) obs.AdaptationSnapshot
}

// Options tunes the server.
type Options struct {
	// Addr is the listen address. Use ":0" (or "127.0.0.1:0") for an
	// ephemeral port; Server.Addr reports what was bound.
	Addr string
	// SampleInterval is the runtime collector's period (default 5s).
	SampleInterval time.Duration
	// SampleCapacity is the runtime sample ring size (default 256).
	SampleCapacity int
}

// Server is a running telemetry endpoint. Close shuts down the listener
// and the runtime collector; both are fully torn down when it returns.
type Server struct {
	src  Source
	ln   net.Listener
	http *http.Server
	coll *Collector
	done chan struct{}
}

// Start binds opts.Addr and serves in a background goroutine. The runtime
// collector starts alongside and stops on Close.
func Start(opts Options, src Source) (*Server, error) {
	if src.Registry == nil || src.Traces == nil {
		return nil, fmt.Errorf("telemetry: Source.Registry and Source.Traces are required")
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		src:  src,
		ln:   ln,
		coll: NewCollector(opts.SampleInterval, opts.SampleCapacity),
		done: make(chan struct{}),
	}
	s.http = &http.Server{Handler: s.mux()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ephemeral ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down: in-flight requests get up to five seconds
// to drain, the listener closes, and the runtime collector goroutine is
// stopped and joined. Safe to call once.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	s.coll.Stop()
	return err
}

// mux wires the endpoint table.
func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/", s.handleIndex)
	m.HandleFunc("/metrics", s.handleMetrics)
	m.HandleFunc("/metrics.json", s.handleMetricsJSON)
	m.HandleFunc("/traces", s.handleTraces)
	m.HandleFunc("/slow", s.handleSlow)
	m.HandleFunc("/skipmap", s.handleSkipmap)
	m.HandleFunc("/events", s.handleEvents)
	m.HandleFunc("/runtime", s.handleRuntime)
	m.HandleFunc("/history", s.handleHistory)
	m.HandleFunc("/health", s.handleHealth)
	m.HandleFunc("/alerts", s.handleAlerts)
	m.HandleFunc("/workload", s.handleWorkload)
	m.HandleFunc("/adaptation", s.handleAdaptation)
	m.HandleFunc("/dash", s.handleDash)
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// handleIndex lists the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>adskip telemetry</title></head><body>
<h1>adskip telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/metrics.json">/metrics.json</a> — metrics as JSON</li>
<li><a href="/traces">/traces</a> — recent query traces (add <code>?format=chrome</code> for a chrome://tracing file)</li>
<li><a href="/slow">/slow</a> — slow-query log</li>
<li><a href="/skipmap">/skipmap</a> — per-zone skipping-effectiveness heatmap (add <code>?zones=N</code>)</li>
<li><a href="/events">/events</a> — adaptation-ledger records (the adaptation journal)</li>
<li><a href="/runtime">/runtime</a> — sampled Go runtime statistics</li>
<li><a href="/history">/history</a> — adaptation timeline (sampled skip ratio, latency quantiles, per-column series)</li>
<li><a href="/health">/health</a> — SLO snapshot / readiness probe (503 while any objective is critical)</li>
<li><a href="/alerts">/alerts</a> — firing objectives + alert-transition history</li>
<li><a href="/workload">/workload</a> — per-template workload stats (add <code>?sort=time|calls|bytes</code>, <code>?k=N</code>, <code>?format=csv</code>)</li>
<li><a href="/adaptation">/adaptation</a> — adaptation ledger: zone-lifecycle provenance + per-column skip ROI (add <code>?table=</code>, <code>?shard=N</code>, <code>?dead=N</code>, <code>?format=csv</code>)</li>
<li><a href="/dash">/dash</a> — live dashboard (convergence curve + zone heatmap)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — pprof profiles</li>
</ul></body></html>`)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.src.Registry.WritePrometheus(w)
}

// handleMetricsJSON serves the metrics as JSON.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.src.Registry.WriteJSON(w)
}

// traceListing is the /traces and /slow JSON shape.
type traceListing struct {
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
	Traces  []*obs.QueryTrace `json:"traces"`
}

// handleTraces serves the trace ring: JSON by default, Chrome trace_event
// format (downloadable, loads in chrome://tracing) with ?format=chrome.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ring := s.src.Traces
	serveTraces(w, r, ring, ring.Snapshot(), "adskip-trace.json")
}

// handleSlow serves the slow-query log in the same formats as /traces.
// ?shard=N keeps only traces served by that 1-based shard — a per-shard
// trace's own shard stamp, or membership in a merged logical trace's
// scanned-shard list. Out-of-range shards are a 400.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	ring := s.src.SlowTraces
	if ring == nil {
		writeJSON(w, traceListing{Traces: []*obs.QueryTrace{}})
		return
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	traces := ring.Snapshot()
	if hasShard {
		maxShard := 0
		for _, t := range traces {
			if t.Shard > maxShard {
				maxShard = t.Shard
			}
			for _, sh := range t.Shards {
				if sh > maxShard {
					maxShard = sh
				}
			}
		}
		if shard < 1 || shard > maxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (slow log has shards 1..%d)", shard, maxShard),
				http.StatusBadRequest)
			return
		}
		kept := make([]*obs.QueryTrace, 0, len(traces))
		for _, t := range traces {
			if traceTouchesShard(t, shard) {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	serveTraces(w, r, ring, traces, "adskip-slow-trace.json")
}

// traceTouchesShard reports whether a trace was served by the given
// 1-based shard.
func traceTouchesShard(t *obs.QueryTrace, shard int) bool {
	if t.Shard == shard {
		return true
	}
	for _, sh := range t.Shards {
		if sh == shard {
			return true
		}
	}
	return false
}

// serveTraces renders an already-filtered trace list in the requested
// format. Total/Dropped report the ring, not the filtered view.
func serveTraces(w http.ResponseWriter, r *http.Request, ring *obs.TraceRing, traces []*obs.QueryTrace, filename string) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+filename+`"`)
		_ = obs.WriteChromeTrace(w, traces)
		return
	}
	writeJSON(w, traceListing{Total: ring.Total(), Dropped: ring.Dropped(), Traces: traces})
}

// parseShard reads an optional ?shard=N filter: a 1-based shard number.
// Returns (0, false, nil) when the parameter is absent. Non-numeric
// values are a client error — callers answer 400, never 500 or a
// silently empty set.
func parseShard(r *http.Request) (int, bool, error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad shard parameter %q (want a 1-based shard number)", v)
	}
	return n, true, nil
}

// handleSkipmap serves the per-table skipping heatmap. ?zones=N caps the
// per-column zone detail (default 1024; zones=0 omits detail entirely,
// zones=-1 returns every zone). ?shard=N narrows a sharded catalog to
// one shard's snapshots; out-of-range shards are a 400.
func (s *Server) handleSkipmap(w http.ResponseWriter, r *http.Request) {
	if s.src.Skipmap == nil {
		writeJSON(w, []obs.SkipmapTable{})
		return
	}
	maxZones := 1024
	if v := r.URL.Query().Get("zones"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &maxZones); err != nil {
			http.Error(w, "bad zones parameter", http.StatusBadRequest)
			return
		}
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tables := s.src.Skipmap(maxZones)
	if tables == nil {
		tables = []obs.SkipmapTable{}
	}
	if hasShard {
		maxShard := 0
		for _, t := range tables {
			if t.Shards > maxShard {
				maxShard = t.Shards
			}
		}
		if shard < 1 || shard > maxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (catalog has shards 1..%d)", shard, maxShard),
				http.StatusBadRequest)
			return
		}
		kept := tables[:0]
		for _, t := range tables {
			if t.Shard == shard {
				kept = append(kept, t)
			}
		}
		tables = kept
	}
	if maxZones == 0 {
		for ti := range tables {
			for ci := range tables[ti].Columns {
				c := &tables[ti].Columns[ci]
				c.ZonesTruncated = c.Zones
				c.ZoneDetail = nil
			}
		}
	}
	writeJSON(w, tables)
}

// handleEvents serves the adaptation ledger's retained records.
func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	var evs []obs.LedgerRecord
	if s.src.Events != nil {
		evs = s.src.Events()
	}
	if evs == nil {
		evs = []obs.LedgerRecord{}
	}
	writeJSON(w, evs)
}

// handleRuntime serves the sampled runtime statistics oldest-first.
func (s *Server) handleRuntime(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.coll.Snapshot())
}

// historyListing is the /history JSON shape. Samples are oldest-first;
// per-sample column series are sorted by (table, column), so the
// serialization is deterministic for a given state.
type historyListing struct {
	IntervalNS int64               `json:"interval_ns"`
	Total      uint64              `json:"total"`
	Samples    []obs.HistorySample `json:"samples"`
}

// handleHistory serves the adaptation timeline oldest-first. ?shard=N
// narrows each sample's per-column series to one 1-based shard
// (engine-wide totals stay catalog-wide); out-of-range shards are a 400.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.src.History == nil {
		writeJSON(w, historyListing{Samples: []obs.HistorySample{}})
		return
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	samples := s.src.History.Snapshot()
	if hasShard {
		maxShard := 0
		for i := range samples {
			for _, c := range samples[i].Columns {
				if c.Shard > maxShard {
					maxShard = c.Shard
				}
			}
		}
		if shard < 1 || shard > maxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (timeline has shards 1..%d)", shard, maxShard),
				http.StatusBadRequest)
			return
		}
		// Filter into fresh slices: the snapshot's column slices are never
		// mutated in place.
		for i := range samples {
			var cols []obs.HistoryColumn
			for _, c := range samples[i].Columns {
				if c.Shard == shard {
					cols = append(cols, c)
				}
			}
			samples[i].Columns = cols
		}
	}
	writeJSON(w, historyListing{
		IntervalNS: int64(s.src.History.Interval()),
		Total:      s.src.History.Total(),
		Samples:    samples,
	})
}

// healthListing is the /health JSON shape: an enabled flag wrapping the
// monitor's snapshot (zero-valued when SLO tracking is off).
type healthListing struct {
	Enabled bool `json:"enabled"`
	health.Snapshot
}

// handleHealth serves the SLO snapshot with readiness-probe semantics:
// HTTP 503 while any objective burns at critical, 200 otherwise (also
// 200 when no objectives are configured — a probe must not fail a
// deployment that never declared SLOs).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.src.Health == nil {
		writeJSON(w, healthListing{})
		return
	}
	snap, ok := s.src.Health()
	if !ok {
		writeJSON(w, healthListing{})
		return
	}
	if snap.Status == health.SevCritical {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, healthListing{Enabled: true, Snapshot: snap})
}

// handleAlerts serves the firing objectives and the retained alert
// transitions, oldest-first.
func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	out := health.AlertsSnapshot{Active: []health.ObjectiveStatus{}, History: []health.Transition{}}
	if s.src.Alerts != nil {
		out = s.src.Alerts()
	}
	writeJSON(w, out)
}

// handleWorkload serves the per-template workload stats, top-K by the
// requested sort order. ?sort=time|calls|bytes (default time),
// ?k=N caps the template list (default 50; k=0 returns every template),
// ?format=csv switches to a downloadable CSV, ?shard=N keeps only
// templates that have scanned that shard (400 when out of range).
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sortBy := q.Get("sort")
	if !stats.ValidSort(sortBy) {
		http.Error(w, "bad sort parameter (want time, calls, or bytes)", http.StatusBadRequest)
		return
	}
	k := 50
	if v := q.Get("k"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &k); err != nil || k < 0 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.src.Workload.Snapshot(sortBy, k)
	if hasShard {
		// MaxShard is computed over every tracked template before top-K
		// truncation, so the range check is stable across k values.
		if shard < 1 || shard > snap.MaxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (workload has shards 1..%d)", shard, snap.MaxShard),
				http.StatusBadRequest)
			return
		}
		kept := snap.Templates[:0]
		for _, ts := range snap.Templates {
			for _, sh := range ts.Shards {
				if sh == shard {
					kept = append(kept, ts)
					break
				}
			}
		}
		snap.Templates = kept
	}
	if q.Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="adskip-workload.csv"`)
		_ = stats.WriteSnapshotCSV(w, snap)
		return
	}
	writeJSON(w, snap)
}

// handleAdaptation serves the adaptation ledger: the retained
// zone-lifecycle records with provenance plus per-column skip-ROI rows.
// ?table= narrows to one table (unknown tables are a 400), ?shard=N to
// one 1-based shard (out of range is a 400), ?dead=N caps per-column
// dead-zone detail (default 16; dead=0 keeps the counts but omits the
// detail), ?format=csv downloads the ROI rows as CSV. Total/Dropped
// always report the whole ledger, not the filtered view.
func (s *Server) handleAdaptation(w http.ResponseWriter, r *http.Request) {
	if s.src.Adaptation == nil {
		writeJSON(w, obs.AdaptationSnapshot{Events: []obs.LedgerRecord{}, ROI: []obs.ColumnROI{}})
		return
	}
	q := r.URL.Query()
	maxDead := 16
	if v := q.Get("dead"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad dead parameter (want a non-negative count)", http.StatusBadRequest)
			return
		}
		maxDead = n
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.src.Adaptation(maxDead)
	if snap.Events == nil {
		snap.Events = []obs.LedgerRecord{}
	}
	if snap.ROI == nil {
		snap.ROI = []obs.ColumnROI{}
	}
	if table := q.Get("table"); table != "" {
		known := false
		for i := range snap.ROI {
			if snap.ROI[i].Table == table {
				known = true
				break
			}
		}
		if !known {
			for i := range snap.Events {
				if snap.Events[i].Table == table {
					known = true
					break
				}
			}
		}
		if !known {
			http.Error(w, fmt.Sprintf("unknown table %q", table), http.StatusBadRequest)
			return
		}
		events := snap.Events[:0]
		for _, ev := range snap.Events {
			if ev.Table == table {
				events = append(events, ev)
			}
		}
		snap.Events = events
		roi := snap.ROI[:0]
		for _, row := range snap.ROI {
			if row.Table == table {
				roi = append(roi, row)
			}
		}
		snap.ROI = roi
	}
	if hasShard {
		maxShard := 0
		for i := range snap.ROI {
			if snap.ROI[i].Shard > maxShard {
				maxShard = snap.ROI[i].Shard
			}
		}
		for i := range snap.Events {
			if snap.Events[i].Shard > maxShard {
				maxShard = snap.Events[i].Shard
			}
		}
		if shard < 1 || shard > maxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (ledger has shards 1..%d)", shard, maxShard),
				http.StatusBadRequest)
			return
		}
		events := snap.Events[:0]
		for _, ev := range snap.Events {
			if ev.Shard == shard {
				events = append(events, ev)
			}
		}
		snap.Events = events
		roi := snap.ROI[:0]
		for _, row := range snap.ROI {
			if row.Shard == shard {
				roi = append(roi, row)
			}
		}
		snap.ROI = roi
	}
	if q.Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="adskip-adaptation.csv"`)
		_ = writeAdaptationCSV(w, snap)
		return
	}
	writeJSON(w, snap)
}

// writeAdaptationCSV writes the snapshot's ROI rows as CSV — the tabular
// half of /adaptation (the event journal stays JSON-only). The header is
// golden-locked by telemetry tests; appending columns is fine, renaming
// or removing them is not.
func writeAdaptationCSV(w io.Writer, snap obs.AdaptationSnapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"table", "shard", "column", "kind", "zones", "bytes",
		"rows_skipped", "rows_covered", "bytes_skipped", "candidate_rows",
		"zone_probes", "maintenance_events", "maintenance_zones",
		"net_benefit_rows", "dead_zones",
	}); err != nil {
		return err
	}
	for _, row := range snap.ROI {
		rec := []string{
			row.Table,
			strconv.Itoa(row.Shard),
			row.Column,
			row.Kind,
			strconv.Itoa(row.Zones),
			strconv.Itoa(row.Bytes),
			strconv.FormatInt(row.RowsSkipped, 10),
			strconv.FormatInt(row.RowsCovered, 10),
			strconv.FormatInt(row.BytesSkipped, 10),
			strconv.FormatInt(row.CandidateRows, 10),
			strconv.FormatInt(row.ZoneProbes, 10),
			strconv.FormatInt(row.MaintEvents, 10),
			strconv.FormatInt(row.MaintZones, 10),
			strconv.FormatFloat(row.NetRows, 'f', 1, 64),
			strconv.Itoa(row.DeadZones),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

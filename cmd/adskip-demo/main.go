// Command adskip-demo is an interactive SQL REPL over the adaptive column
// store, in the spirit of the paper's demonstration: run queries, then
// inspect how the adaptive zonemap reshaped itself.
//
// Meta-commands:
//
//	\gen <dist> <rows>   create table "data" with a synthetic distribution
//	\load <file>         load a table snapshot (see adskip-gen)
//	\save <file>         save table "data"
//	\skipping [col]      describe zone metadata for a column (default v)
//	\stats               adaptive lifetime counters per column
//	\top                 hottest query templates + per-column skipping
//	\timeout <dur|off>   cancel statements that run longer than dur
//	\quarantine          list columns whose metadata failed and was benched
//	\rebuild [cols]      rebuild quarantined skipping metadata
//	\fault scan-delay <dur>|off  inject a per-checkpoint scan delay
//	\health              SLO status and burn rates (with -slo-* flags)
//	\policy              show the active skipping policy
//	\help                this text
//	\quit                exit
//
// Everything else is parsed as SQL, e.g.:
//
//	SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 2000;
//	SELECT seq, COUNT(*) FROM data WHERE (v < 100 OR v > 900) GROUP BY seq LIMIT 5;
//	EXPLAIN SELECT COUNT(*) FROM data WHERE v < 1000;
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/faultinject"
	"adskip/internal/health"
	"adskip/internal/obs"
	"adskip/internal/shard"
	"adskip/internal/sql"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/telemetry"
	"adskip/internal/workload"
)

type repl struct {
	opts    shard.Options
	out     *bufio.Writer
	perq    bool            // --metrics: print per-query trace after each statement
	timeout time.Duration   // \timeout: per-statement deadline (0 = none)
	mon     *health.Monitor // \health: SLO monitor (nil without -slo-* flags)

	// mu guards tbl: the REPL loop swaps it on \gen/\load while the
	// telemetry server's closures read it from HTTP goroutines.
	mu  sync.Mutex
	tbl *shard.Manager // current 1-shard table (nil until \gen or \load)
}

// table returns the current table under the lock (nil if none).
func (r *repl) table() *shard.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tbl
}

// skipmap is the telemetry server's /skipmap source.
func (r *repl) skipmap(maxZones int) []obs.SkipmapTable {
	m := r.table()
	if m == nil {
		return nil
	}
	return m.Skipmaps(maxZones)
}

// adaptation is the telemetry server's /adaptation source: the
// session-level ledger (it survives \gen/\load table swaps) joined
// with the current table's ROI rows.
func (r *repl) adaptation(maxDead int) obs.AdaptationSnapshot {
	ledger := r.opts.Engine.Ledger
	snap := obs.AdaptationSnapshot{
		Total:   ledger.Seq(),
		Dropped: ledger.Dropped(),
		Events:  ledger.Records(),
		ROI:     []obs.ColumnROI{},
	}
	if m := r.table(); m != nil {
		snap.ROI = append(snap.ROI, m.AdaptationROI(maxDead)...)
	}
	return snap
}

// fillHistory is the sampler's fill callback: the current table's
// cumulative totals plus the merged latency histogram, same shape the DB
// facade produces, so the health monitor and /history see one timeline
// across \gen and \load swaps (counters reset with the table — the
// monitor's per-tick deltas just see a quiet tick at the swap).
func (r *repl) fillHistory(s *obs.HistorySample) {
	e := r.table()
	if e == nil {
		return
	}
	bounds := obs.LatencyBuckets()
	buckets := s.LatencyBuckets[:0]
	for i := 0; i < len(bounds)+1; i++ {
		buckets = append(buckets, 0)
	}
	e.FillHistory(s)
	e.AccumulateLatency(buckets)
	s.LatencyBuckets = buckets
	if denom := s.RowsSkipped + s.RowsScanned; denom > 0 {
		s.SkipRatio = float64(s.RowsSkipped) / float64(denom)
	}
	s.LatencyP50 = obs.QuantileFromBuckets(bounds, buckets, 0.50)
	s.LatencyP95 = obs.QuantileFromBuckets(bounds, buckets, 0.95)
	s.AdaptEvents = int64(r.opts.Engine.Ledger.Seq())
}

func main() {
	var (
		policy    = flag.String("policy", "adaptive", "skipping policy: none|static|adaptive|imprint")
		zone      = flag.Int("static-zone", 65536, "zone size for static policy")
		metrics   = flag.Bool("metrics", false, "print the per-query trace after every statement")
		serve     = flag.Bool("serve", false, "serve live telemetry over HTTP (see -serve-addr)")
		serveAddr = flag.String("serve-addr", "127.0.0.1:0", "telemetry listen address (with -serve; :0 picks an ephemeral port)")
		slow      = flag.Duration("slow", 0, "log queries at least this slow to the slow-query ring (0 = off)")

		sloP95     = flag.Duration("slo-p95", 0, "p95 latency SLO threshold (0 = objective off), e.g. 5ms")
		sloErr     = flag.Float64("slo-err", 0, "error-rate SLO threshold in (0,1) (0 = objective off)")
		sloSkip    = flag.Float64("slo-skip", 0, "minimum skip-rate SLO threshold in (0,1] (0 = objective off)")
		sloWindows = flag.String("slo-windows", "", "burn-rate windows as short,mid,long (default 10s,1m,5m)")
		histInt    = flag.Duration("history-interval", 0, "health/timeline sampling interval (0 = default 1s)")
	)
	flag.Parse()

	// One registry, ledger, trace rings and workload table for
	// the whole session: \metrics, \events, \top and the telemetry server
	// survive table reloads (attach rebuilds the table).
	reg := obs.NewRegistry()
	opts := shard.Options{
		Shards:             1,
		Traces:             obs.NewTraceRing(0),
		SlowTraces:         obs.NewTraceRing(0),
		SlowQueryThreshold: *slow,
		Stats:              stats.New(stats.Options{Registry: reg}),
		Engine: engine.Options{
			StaticZoneSize: *zone,
			Metrics:        reg,
			Ledger:         obs.NewLedger(0),
		},
	}
	switch *policy {
	case "none":
		opts.Engine.Policy = engine.PolicyNone
	case "static":
		opts.Engine.Policy = engine.PolicyStatic
	case "adaptive":
		opts.Engine.Policy = engine.PolicyAdaptive
	case "imprint":
		opts.Engine.Policy = engine.PolicyImprint
	default:
		fmt.Fprintf(os.Stderr, "adskip-demo: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	r := &repl{opts: opts, out: bufio.NewWriter(os.Stdout), perq: *metrics}
	defer r.out.Flush()

	var objectives []health.Objective
	if *sloP95 > 0 {
		objectives = append(objectives,
			health.Objective{Name: "latency-p95", Signal: health.SignalLatencyP95, Threshold: sloP95.Seconds()})
	}
	if *sloErr > 0 {
		objectives = append(objectives,
			health.Objective{Name: "error-rate", Signal: health.SignalErrorRate, Threshold: *sloErr})
	}
	if *sloSkip > 0 {
		objectives = append(objectives,
			health.Objective{Name: "skip-rate", Signal: health.SignalSkipRate, Threshold: *sloSkip})
	}
	var hcfg health.Config
	if *sloWindows != "" {
		short, mid, long, err := health.ParseWindows(*sloWindows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adskip-demo: -slo-windows: %v\n", err)
			os.Exit(2)
		}
		hcfg.Short, hcfg.Mid, hcfg.Long = short, mid, long
	}

	// The timeline sampler feeds both /history and the health monitor; it
	// exists whenever either consumer does.
	var sampler *obs.Sampler
	if *serve || len(objectives) > 0 {
		sampler = obs.NewSampler(*histInt, 0, r.fillHistory)
		defer sampler.Stop()
	}
	if len(objectives) > 0 {
		mon, err := health.New(objectives, sampler.Interval(), hcfg, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adskip-demo: %v\n", err)
			os.Exit(2)
		}
		r.mon = mon
		defer sampler.Subscribe(mon.OnSample)()
	}

	if *serve {
		src := telemetry.Source{
			Registry:   reg,
			Traces:     opts.Traces,
			SlowTraces: opts.SlowTraces,
			Events:     opts.Engine.Ledger.Records,
			Skipmap:    r.skipmap,
			History:    sampler,
			Workload:   opts.Stats,
			Adaptation: r.adaptation,
		}
		if mon := r.mon; mon != nil {
			src.Health = func() (health.Snapshot, bool) { return mon.Snapshot(), true }
			src.Alerts = mon.Alerts
		}
		srv, err := telemetry.Start(telemetry.Options{Addr: *serveAddr}, src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adskip-demo: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(r.out, "telemetry: %s\n", srv.URL())
	}

	fmt.Fprintf(r.out, "adskip demo — policy=%s. Type \\help for commands.\n", *policy)
	r.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(r.out, "adskip> ")
		r.out.Flush()
		if !sc.Scan() {
			fmt.Fprintln(r.out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !r.meta(line) {
				return
			}
		} else {
			r.query(line)
		}
		r.out.Flush()
	}
}

// meta executes a backslash command; returns false to exit.
func (r *repl) meta(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\help":
		fmt.Fprint(r.out, `\gen <dist> <rows>  create table "data" (dist: sorted|semi-sorted|clustered|uniform|zipf|bimodal)
\load <file>        load a snapshot        \save <file>  save table "data"
\loadcsv <file>     load a CSV file (schema inferred)
\skipping [col]     describe zone metadata \stats        adaptive counters
\metrics [json]     dump engine metrics (Prometheus text, or JSON)
\top                hottest query templates (calls, p95, cpu%) + skipmap
\events [n]         show the last n adaptation-ledger records (default 20)
\trace              toggle per-query trace printing (same as --metrics)
\timeout <dur|off>  cancel statements running longer than dur (e.g. 500ms)
\quarantine         list quarantined columns    \rebuild      rebuild their metadata
\fault scan-delay <dur> | \fault off   inject a per-checkpoint scan delay (SLO/chaos demos)
\health             SLO status and per-objective burn rates (needs -slo-* flags)
\policy             active policy          \quit         exit
SQL: SELECT [cols|aggs] FROM data [WHERE ...] [GROUP BY c] [ORDER BY c [DESC]] [LIMIT n]
     predicates: = <> < <= > >= BETWEEN IN IS [NOT] NULL (a=1 OR a=2)
     EXPLAIN SELECT ... shows the plan; EXPLAIN ANALYZE SELECT ... executes and shows actual pruning
`)
	case "\\policy":
		fmt.Fprintf(r.out, "policy: %s\n", r.opts.Engine.Policy)
	case "\\gen":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: \\gen <dist> <rows>")
			return true
		}
		r.gen(fields[1], fields[2])
	case "\\load":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\load <file>")
			return true
		}
		r.load(fields[1])
	case "\\loadcsv":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\loadcsv <file.csv>")
			return true
		}
		r.loadCSV(fields[1])
	case "\\save":
		if len(fields) != 2 || r.tbl == nil {
			fmt.Fprintln(r.out, "usage: \\save <file> (after \\gen or \\load)")
			return true
		}
		r.save(fields[1])
	case "\\skipping":
		col := "v"
		if len(fields) > 1 {
			col = fields[1]
		}
		r.skipping(col)
	case "\\stats":
		r.stats()
	case "\\metrics":
		format := "prom"
		if len(fields) > 1 {
			format = fields[1]
		}
		r.metrics(format)
	case "\\events":
		n := 20
		if len(fields) > 1 {
			if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
				n = v
			}
		}
		r.events(n)
	case "\\trace":
		r.perq = !r.perq
		fmt.Fprintf(r.out, "per-query trace: %v\n", r.perq)
	case "\\timeout":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\timeout <duration|off>  (e.g. \\timeout 500ms)")
			return true
		}
		if fields[1] == "off" || fields[1] == "0" {
			r.timeout = 0
			fmt.Fprintln(r.out, "statement timeout: off")
			return true
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d < 0 {
			fmt.Fprintf(r.out, "bad duration %q\n", fields[1])
			return true
		}
		r.timeout = d
		fmt.Fprintf(r.out, "statement timeout: %s\n", d)
	case "\\top":
		r.top()
	case "\\quarantine":
		r.quarantine()
	case "\\rebuild":
		r.rebuild(fields[1:])
	case "\\fault":
		r.fault(fields[1:])
	case "\\health":
		r.health()
	default:
		fmt.Fprintf(r.out, "unknown command %s (try \\help)\n", fields[0])
	}
	return true
}

func (r *repl) gen(dist, rowsStr string) {
	n, err := strconv.Atoi(rowsStr)
	if err != nil || n <= 0 {
		fmt.Fprintln(r.out, "bad row count")
		return
	}
	var d workload.Distribution
	switch dist {
	case "sorted":
		d = workload.Sorted
	case "semi-sorted":
		d = workload.SemiSorted
	case "clustered":
		d = workload.Clustered
	case "uniform":
		d = workload.Uniform
	case "zipf":
		d = workload.Zipf
	case "bimodal":
		d = workload.Bimodal
	default:
		fmt.Fprintf(r.out, "unknown distribution %q\n", dist)
		return
	}
	vals := workload.Generate(workload.DataSpec{N: n, Dist: d, Domain: int64(n), Seed: 42})
	tbl := table.MustNew("data", table.Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
	})
	for i, v := range vals {
		if err := tbl.AppendRow(storage.IntValue(v), storage.IntValue(int64(i))); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return
		}
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "table \"data\": %d rows, distribution %s, skipping on all columns\n", n, dist)
}

func (r *repl) attach(tbl *table.Table) {
	m, err := shard.NewFromTable(tbl, r.opts)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if err := m.EnableSkipping(); err != nil {
		fmt.Fprintf(r.out, "error enabling skipping: %v\n", err)
	}
	r.mu.Lock()
	r.tbl = m
	r.mu.Unlock()
}

func (r *repl) load(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	defer f.Close()
	tbl, err := table.Read(f)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "loaded table %q: %d rows, %d columns\n", tbl.Name(), tbl.NumRows(), tbl.NumColumns())
}

func (r *repl) loadCSV(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	defer f.Close()
	tbl, err := table.ReadCSV(f, "data", table.CSVOptions{})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "loaded CSV as table %q: %d rows, %d columns\n", tbl.Name(), tbl.NumRows(), tbl.NumColumns())
	for _, cs := range tbl.Schema() {
		fmt.Fprintf(r.out, "  %-16s %s\n", cs.Name, cs.Type)
	}
}

func (r *repl) save(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	n, err := r.tbl.Table().WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "saved %d bytes to %s\n", n, path)
}

func (r *repl) skipping(col string) {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded (\\gen or \\load first)")
		return
	}
	s := r.tbl.ShardEngine(1).Skipper(col)
	if s == nil {
		fmt.Fprintf(r.out, "no skipper on column %q\n", col)
		return
	}
	if z, ok := s.(*adaptive.Zonemap); ok {
		fmt.Fprint(r.out, z.DescribeZones(24))
		return
	}
	md := s.Metadata()
	fmt.Fprintf(r.out, "%s skipper: %d zones, %d bytes, enabled=%v\n", md.Kind, md.Zones, md.Bytes, md.Enabled)
}

func (r *repl) stats() {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	e := r.tbl.ShardEngine(1)
	for _, cs := range e.Table().Schema() {
		s := e.Skipper(cs.Name)
		if z, ok := s.(*adaptive.Zonemap); ok {
			st := z.Stats()
			fmt.Fprintf(r.out, "%-8s queries=%d splits=%d merges=%d disables=%d enables=%d zones=%d\n",
				cs.Name, st.Queries, st.Splits, st.Merges, st.Disables, st.Enables, z.NumZones())
		}
	}
}

func (r *repl) metrics(format string) {
	var err error
	switch format {
	case "prom":
		err = r.opts.Engine.Metrics.WritePrometheus(r.out)
	case "json":
		err = r.opts.Engine.Metrics.WriteJSON(r.out)
	default:
		fmt.Fprintf(r.out, "unknown format %q (want prom or json)\n", format)
		return
	}
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
	}
}

func (r *repl) events(n int) {
	ledger := r.opts.Engine.Ledger
	recs := ledger.Records()
	if len(recs) == 0 {
		fmt.Fprintln(r.out, "no adaptation events yet")
		return
	}
	if dropped := ledger.Dropped(); dropped > 0 {
		fmt.Fprintf(r.out, "(%d older records dropped from the ring)\n", dropped)
	}
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	for _, rec := range recs {
		fmt.Fprintf(r.out, "#%-5d %s %s.%s %-13s %-12s zones %d->%d",
			rec.Seq, rec.Time.Format("15:04:05.000"), rec.Table, rec.Column, rec.Kind,
			rec.Cause, rec.ZonesBefore, rec.ZonesAfter)
		if rec.Fingerprint != "" {
			fmt.Fprintf(r.out, " fp=%q", rec.Fingerprint)
		}
		fmt.Fprintln(r.out)
	}
}

// top renders the workload's hottest query templates — the same
// aggregation /workload serves — followed by the live per-column
// skipmap. Parameterized variants of a template collapse into one row;
// cpu%% is the template's share of total recorded execution time.
func (r *repl) top() {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	snap := r.opts.Stats.Snapshot(stats.SortTime, 10)
	if len(snap.Templates) == 0 {
		fmt.Fprintln(r.out, "no query templates recorded yet (run some SQL first)")
	} else {
		fmt.Fprintf(r.out, "top templates by time (%d tracked, %d calls recorded):\n",
			snap.TotalTemplates, snap.Recorded)
		fmt.Fprintf(r.out, "%7s %6s %9s %9s %7s %7s  %s\n",
			"calls", "errs", "mean(µs)", "p95(µs)", "skip%", "cpu%", "template")
		var total float64
		for _, t := range snap.Templates {
			total += t.TotalSeconds
		}
		for _, t := range snap.Templates {
			var cpu float64
			if total > 0 {
				cpu = 100 * t.TotalSeconds / total
			}
			fmt.Fprintf(r.out, "%7d %6d %9.0f %9.0f %6.1f%% %6.1f%%  %s\n",
				t.Calls, t.Errors, t.MeanUS, t.P95US, 100*t.SkipRatio, cpu, t.Fingerprint)
		}
	}
	sm := r.tbl.Skipmaps(0)[0]
	if len(sm.Columns) == 0 {
		fmt.Fprintln(r.out, "no skippers (EnableSkipping first)")
		return
	}
	fmt.Fprintf(r.out, "table %q: %d rows\n", sm.Table, sm.Rows)
	fmt.Fprintf(r.out, "%-10s %-10s %7s %8s %12s %12s %9s %s\n",
		"column", "kind", "zones", "probes", "skipped", "candidate", "skip%", "state")
	for _, c := range sm.Columns {
		state := "on"
		switch {
		case c.Quarantined:
			state = "quarantined"
		case !c.Enabled:
			state = "off"
		}
		fmt.Fprintf(r.out, "%-10s %-10s %7d %8d %12d %12d %8.1f%% %s\n",
			c.Column, c.Kind, c.Zones, c.Probes, c.RowsSkipped, c.CandidateRows,
			100*c.SkipRatio, state)
	}
}

func (r *repl) quarantine() {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	q := r.tbl.Quarantined()
	if len(q) == 0 {
		fmt.Fprintln(r.out, "no quarantined columns")
		return
	}
	for col, cause := range q {
		fmt.Fprintf(r.out, "%-8s %v\n", col, cause)
	}
	fmt.Fprintln(r.out, "(quarantined columns run full scans; \\rebuild restores metadata)")
}

func (r *repl) rebuild(cols []string) {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	if err := r.tbl.RebuildSkipping(cols...); err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintln(r.out, "skipping metadata rebuilt")
}

// fault toggles deterministic fault injection from the REPL: a scan
// delay slept at every cooperative checkpoint, so slow scans (and the
// SLO burn they cause) can be demonstrated on demand and then cleared.
func (r *repl) fault(args []string) {
	if len(args) == 1 && (args[0] == "off" || args[0] == "clear") {
		faultinject.Deactivate()
		fmt.Fprintln(r.out, "fault injection: off")
		return
	}
	if len(args) != 2 || args[0] != "scan-delay" {
		fmt.Fprintln(r.out, "usage: \\fault scan-delay <duration> | \\fault off")
		return
	}
	d, err := time.ParseDuration(args[1])
	if err != nil || d <= 0 {
		fmt.Fprintf(r.out, "bad duration %q\n", args[1])
		return
	}
	faultinject.Activate(faultinject.New(1).
		Set(faultinject.ScanDelay, faultinject.Rule{Prob: 1, Delay: d}))
	fmt.Fprintf(r.out, "fault injection: scan-delay %s per scan checkpoint\n", d)
}

// health prints the SLO monitor's current view: overall status plus each
// objective's state and burn rate per window.
func (r *repl) health() {
	if r.mon == nil {
		fmt.Fprintln(r.out, "no health objectives (start with -slo-p95 / -slo-err / -slo-skip)")
		return
	}
	snap := r.mon.Snapshot()
	fmt.Fprintf(r.out, "status: %s (since %s, %d ticks)\n",
		snap.Status, snap.Since.Format("15:04:05"), snap.Ticks)
	for _, o := range snap.Objectives {
		fmt.Fprintf(r.out, "%-14s %-12s state=%-8s threshold=%g", o.Name, o.Signal, o.State, o.Threshold)
		for _, w := range o.Windows {
			fmt.Fprintf(r.out, " burn[%s]=%.1f", w.Window, w.Burn)
		}
		fmt.Fprintln(r.out)
	}
}

func (r *repl) query(line string) {
	if r.tbl == nil {
		fmt.Fprintln(r.out, "no table loaded (\\gen or \\load first)")
		return
	}
	ctx := context.Background()
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sql.ExecContext(ctx, r.tbl, line)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	elapsed := time.Since(start)
	switch {
	case len(res.Rows) > 0:
		fmt.Fprintln(r.out, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(r.out, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(r.out, "(%d rows)\n", len(res.Rows))
	case len(res.Aggs) > 0:
		cells := make([]string, len(res.Aggs))
		for i, v := range res.Aggs {
			cells[i] = v.String()
		}
		fmt.Fprintln(r.out, strings.Join(cells, "\t"))
	default:
		fmt.Fprintf(r.out, "count: %d\n", res.Count)
	}
	fmt.Fprintf(r.out, "-- %.3fms | scanned %d, skipped %d, covered %d rows | %d zone probes\n",
		float64(elapsed.Nanoseconds())/1e6,
		res.Stats.RowsScanned, res.Stats.RowsSkipped, res.Stats.RowsCovered, res.Stats.ZonesProbed)
	if r.perq && res.Trace != nil {
		for _, l := range res.Trace.Lines(true) {
			fmt.Fprintf(r.out, "-- %s\n", l)
		}
	}
}

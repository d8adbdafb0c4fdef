// Package harness reproduces the paper's evaluation: every figure and
// table has a function that generates its workload, runs the policies,
// and emits the series/rows the paper reports. The cmd/adskip-bench CLI
// and the repository's bench_test.go both drive this package.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// Config scales the experiment suite. The defaults target an interactive
// laptop run; the CLI raises Rows for paper-scale runs.
type Config struct {
	Rows    int   // column length (default 1<<21)
	Queries int   // queries per measured stream (default 512)
	Seed    int64 // base RNG seed (default 42)
	// StaticZoneRows is the static baseline's zone size (default 4096).
	StaticZoneRows int
	// Metrics, when set, is shared by every engine the experiments build,
	// so a run's cumulative counters can be dumped afterwards (bench CLI
	// -metrics flag). Nil keeps each engine's registry private.
	Metrics *obs.Registry
	// Traces, when set, collects every experiment query's trace into one
	// shared ring, so the bench CLI's -serve telemetry endpoint can show
	// live traces mid-run. Nil keeps no traces.
	Traces *obs.TraceRing
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 1 << 21
	}
	if c.Queries <= 0 {
		c.Queries = 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.StaticZoneRows <= 0 {
		c.StaticZoneRows = 4096
	}
	return c
}

// adaptiveConfig scales adaptive zonemap parameters to the column size so
// experiments behave consistently across Rows settings.
func (c Config) adaptiveConfig() adaptive.Config {
	initial := c.Rows / 256
	if initial < 1024 {
		initial = 1024
	}
	minZone := c.Rows / 65536
	if minZone < 256 {
		minZone = 256
	}
	return adaptive.Config{
		InitialZoneRows: initial,
		MinZoneRows:     minZone,
		MaxZones:        1 << 16,
	}
}

// Table is one reproduced figure/table: a titled grid of cells. Figures
// are emitted as their underlying data series (one row per x-value).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for i := range widths {
		for j := 0; j < widths[i]; j++ {
			fmt.Fprint(w, "-")
		}
		if i < len(widths)-1 {
			fmt.Fprint(w, "  ")
		}
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as CSV (header + rows).
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered experiment function.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Scan time by data distribution and skipping policy", Fig1Distributions},
		{"fig2", "Per-query adaptation curve (clustered data)", Fig2Convergence},
		{"fig3", "Speedup vs selectivity (semi-sorted data)", Fig3Selectivity},
		{"fig4", "Static zone-size sweep vs adaptive (clustered data)", Fig4Granularity},
		{"fig5", "Workload drift: hot range relocates mid-stream", Fig5Drift},
		{"fig6", "Adversarial uniform data: arbitration overhead bound", Fig6Adversarial},
		{"fig7", "Appends during the workload", Fig7Appends},
		{"tab1", "Metadata footprint and build time", Tab1Metadata},
		{"tab2", "Headline speedup summary", Tab2Summary},
		{"tab3", "Multi-column predicate intersection", Tab3MultiColumn},
		{"abl1", "Ablation: adaptive mechanisms", Abl1Mechanisms},
		{"abl2", "Ablation: split fanout", Abl2SplitFanout},
		{"ext1", "Extension: parallel scan scaling", Ext1Parallel},
		{"ext2", "Extension: column imprints vs zonemaps on bimodal data", Ext2Imprints},
		{"ext3", "Extension: sharded scatter-gather with shard pruning", Ext3Sharded},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared machinery.

// buildEngine creates a one-column table ("v" BIGINT) filled with the
// given distribution and an engine with the policy's skipping enabled.
func buildEngine(cfg Config, dist workload.Distribution, policy engine.Policy) (*engine.Engine, int64) {
	domain := int64(cfg.Rows)
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: dist, Domain: domain, Seed: cfg.Seed,
	})
	return buildEngineFromValues(cfg, vals, policy), domain
}

// buildEngineFromValues wraps pre-generated values.
func buildEngineFromValues(cfg Config, vals []int64, policy engine.Policy) *engine.Engine {
	tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, err := tbl.Column("v")
	if err != nil {
		panic(err)
	}
	for _, v := range vals {
		if err := col.AppendInt(v); err != nil {
			panic(err)
		}
	}
	e := engine.New(tbl, engine.Options{
		Policy:         policy,
		StaticZoneSize: cfg.StaticZoneRows,
		Adaptive:       cfg.adaptiveConfig(),
		Metrics:        cfg.Metrics,
	})
	if err := e.EnableSkipping("v"); err != nil {
		panic(err)
	}
	return e
}

// query runs q on the reference engine e and keeps its trace in Traces.
func (c Config) query(e *engine.Engine, q engine.Query) (*engine.Result, error) {
	res, err := e.Query(q)
	if err == nil && c.Traces != nil {
		c.Traces.Append(res.Trace)
	}
	return res, err
}

// countQuery builds the COUNT(*) range query the streams use.
func countQuery(r workload.Range) engine.Query {
	return engine.Query{
		Where: expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
		Aggs: []engine.Agg{{Kind: engine.CountStar}},
	}
}

// streamResult aggregates one measured query stream.
type streamResult struct {
	perQueryNs  []int64
	totalNs     int64
	rowsScanned int64
	rowsSkipped int64
	rowsCovered int64
	zonesProbed int64
	matched     int64
}

// runStreamAgg executes q queries from gen computing SUM(v) instead of
// COUNT(*): covered windows still avoid predicate evaluation but must read
// data to aggregate, so this stream isolates pure skipping benefit from
// the covered-count short-circuit.
func (c Config) runStreamAgg(e *engine.Engine, gen *workload.Gen, q int) (streamResult, error) {
	var sr streamResult
	sr.perQueryNs = make([]int64, 0, q)
	for i := 0; i < q; i++ {
		r := gen.Next()
		query := engine.Query{
			Where: expr.And(expr.MustPred("v", expr.Between,
				storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
			Aggs: []engine.Agg{{Kind: engine.Sum, Col: "v"}},
		}
		start := time.Now()
		res, err := c.query(e, query)
		if err != nil {
			return sr, err
		}
		ns := time.Since(start).Nanoseconds()
		sr.perQueryNs = append(sr.perQueryNs, ns)
		sr.totalNs += ns
		sr.rowsScanned += int64(res.Stats.RowsScanned)
		sr.rowsSkipped += int64(res.Stats.RowsSkipped)
		sr.rowsCovered += int64(res.Stats.RowsCovered)
		sr.zonesProbed += int64(res.Stats.ZonesProbed)
		sr.matched += int64(res.Count)
	}
	return sr, nil
}

// runStream executes q queries from gen against e, timing each.
func (c Config) runStream(e *engine.Engine, gen *workload.Gen, q int) (streamResult, error) {
	var sr streamResult
	sr.perQueryNs = make([]int64, 0, q)
	for i := 0; i < q; i++ {
		r := gen.Next()
		start := time.Now()
		res, err := c.query(e, countQuery(r))
		if err != nil {
			return sr, err
		}
		ns := time.Since(start).Nanoseconds()
		sr.perQueryNs = append(sr.perQueryNs, ns)
		sr.totalNs += ns
		sr.rowsScanned += int64(res.Stats.RowsScanned)
		sr.rowsSkipped += int64(res.Stats.RowsSkipped)
		sr.rowsCovered += int64(res.Stats.RowsCovered)
		sr.zonesProbed += int64(res.Stats.ZonesProbed)
		sr.matched += int64(res.Count)
	}
	return sr, nil
}

// avgNs returns the mean per-query nanoseconds over the window [from, to).
func (s streamResult) avgNs(from, to int) float64 {
	if to > len(s.perQueryNs) {
		to = len(s.perQueryNs)
	}
	if from >= to {
		return 0
	}
	var sum int64
	for _, ns := range s.perQueryNs[from:to] {
		sum += ns
	}
	return float64(sum) / float64(to-from)
}

// medianNs returns the median per-query nanoseconds over [from, to).
func (s streamResult) medianNs(from, to int) float64 {
	if to > len(s.perQueryNs) {
		to = len(s.perQueryNs)
	}
	if from >= to {
		return 0
	}
	w := append([]int64(nil), s.perQueryNs[from:to]...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	return float64(w[len(w)/2])
}

// fmtNs renders nanoseconds as a human-readable duration with fixed
// precision (µs granularity keeps columns stable across runs).
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", ns/1e6)
	default:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// policies are the three policies compared throughout.
var policies = []engine.Policy{engine.PolicyNone, engine.PolicyStatic, engine.PolicyAdaptive}

package harness

import (
	"fmt"
	"sort"

	"adskip/internal/engine"
	"adskip/internal/workload"
)

// The CI perf-regression gate: one deterministic measured stream (the
// fig1 headline configuration — clustered data, adaptive policy, 1%
// uniform range queries) distilled into three numbers that are compared
// against a committed baseline. Structured stats, not parsed table
// cells: the gate survives cosmetic changes to the report format.

// GateStats is the machine-comparable result of one gate stream. The
// run configuration is embedded so the comparison side can re-run at
// exactly the baseline's scale and seed, and refuse to compare
// mismatched runs.
type GateStats struct {
	Rows       int   `json:"rows"`
	Queries    int   `json:"queries"`
	Seed       int64 `json:"seed"`
	StaticZone int   `json:"static_zone_rows"`
	// P50NS and P95NS are steady-state per-query latency quantiles
	// (second half of the stream, after pay-as-you-go refinement).
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	// ThroughputQPS is steady-state queries per wall-clock second.
	ThroughputQPS float64 `json:"throughput_qps"`
	// SkipRatio is rows skipped / rows considered over the whole stream —
	// the data-skipping effectiveness the paper's claims rest on. Unlike
	// the latency numbers it is (seed-)deterministic, so a drop means a
	// real behavior change, not machine noise.
	SkipRatio float64 `json:"skip_ratio"`
	// Samples is how many steady-state queries the latency quantiles were
	// computed from. Below MinGateSamples the quantiles are noise (a
	// 2-sample p95 is just the max of two warmup-adjacent queries) and
	// CompareGate refuses to gate on them. Zero in summaries written
	// before this field existed; the comparison falls back to deriving it
	// from Queries.
	Samples int `json:"steady_samples,omitempty"`
}

// MinGateSamples is the smallest steady-state sample count the gate will
// draw latency conclusions from. Runs shorter than this produce a skip,
// never a vacuous pass.
const MinGateSamples = 8

// GateRun executes the gate stream and returns its stats.
func GateRun(cfg Config) (GateStats, error) {
	cfg = cfg.WithDefaults()
	e, domain := buildEngine(cfg, workload.Clustered, engine.PolicyAdaptive)
	gen := workload.NewGen(workload.QuerySpec{
		Kind: workload.UniformRange, Domain: domain, Selectivity: 0.01, Seed: cfg.Seed + 1,
	})
	sr, err := cfg.runStream(e, gen, cfg.Queries)
	if err != nil {
		return GateStats{}, err
	}
	steady := sr.perQueryNs[len(sr.perQueryNs)/2:]
	var steadyNs int64
	for _, ns := range steady {
		steadyNs += ns
	}
	g := GateStats{
		Rows: cfg.Rows, Queries: cfg.Queries, Seed: cfg.Seed, StaticZone: cfg.StaticZoneRows,
		P50NS:   quantileNs(steady, 0.50),
		P95NS:   quantileNs(steady, 0.95),
		Samples: len(steady),
	}
	if steadyNs > 0 {
		g.ThroughputQPS = float64(len(steady)) / (float64(steadyNs) / 1e9)
	}
	if denom := sr.rowsSkipped + sr.rowsScanned; denom > 0 {
		g.SkipRatio = float64(sr.rowsSkipped) / float64(denom)
	}
	return g, nil
}

// quantileNs returns the q-quantile of ns (nearest-rank, not mutated).
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	w := append([]int64(nil), ns...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	i := int(q * float64(len(w)))
	if i >= len(w) {
		i = len(w) - 1
	}
	return float64(w[i])
}

// CompareGate checks current against baseline with a relative tolerance
// (0.15 = fail beyond 15% worse) and returns one human-readable
// violation per breached metric — empty means the gate passes. Pure and
// deterministic, so the policy is unit-testable apart from any actual
// benchmark run. Improvements never violate; only regressions do.
//
// A non-empty skip means the comparison is statistically meaningless —
// either side has fewer than MinGateSamples steady-state samples — and
// no verdict was reached. Callers must surface a skip as "not gated",
// distinct from a pass: before this existed, a 4-query run produced
// zero/NaN quantiles that slipped through the `baseline > 0` guards and
// the gate passed vacuously.
func CompareGate(baseline, current GateStats, tolerance float64) (violations []string, skip string) {
	var v []string
	if baseline.Rows != current.Rows || baseline.Queries != current.Queries || baseline.Seed != current.Seed {
		return []string{fmt.Sprintf(
			"config mismatch: baseline rows=%d queries=%d seed=%d vs current rows=%d queries=%d seed=%d — not comparable",
			baseline.Rows, baseline.Queries, baseline.Seed, current.Rows, current.Queries, current.Seed)}, ""
	}
	if bs, cs := effSamples(baseline), effSamples(current); bs < MinGateSamples || cs < MinGateSamples {
		return nil, fmt.Sprintf(
			"insufficient steady-state samples (baseline %d, current %d, need %d) — quantiles at this scale are noise, not a verdict",
			bs, cs, MinGateSamples)
	}
	if baseline.P95NS > 0 && current.P95NS > baseline.P95NS*(1+tolerance) {
		v = append(v, fmt.Sprintf("p95 latency regressed %.1f%%: %s -> %s (tolerance %.0f%%)",
			100*(current.P95NS/baseline.P95NS-1), fmtNs(baseline.P95NS), fmtNs(current.P95NS), 100*tolerance))
	}
	if baseline.ThroughputQPS > 0 && current.ThroughputQPS < baseline.ThroughputQPS*(1-tolerance) {
		v = append(v, fmt.Sprintf("throughput regressed %.1f%%: %.0f -> %.0f qps (tolerance %.0f%%)",
			100*(1-current.ThroughputQPS/baseline.ThroughputQPS),
			baseline.ThroughputQPS, current.ThroughputQPS, 100*tolerance))
	}
	if baseline.SkipRatio > 0 && current.SkipRatio < baseline.SkipRatio*(1-tolerance) {
		v = append(v, fmt.Sprintf("skip ratio regressed: %.3f -> %.3f (tolerance %.0f%%)",
			baseline.SkipRatio, current.SkipRatio, 100*tolerance))
	}
	return v, ""
}

// effSamples is the steady-state sample count to judge a run by. Stats
// recorded before the Samples field existed (it reads as zero) derive it
// from the run length: GateRun's steady window is the second half of the
// stream.
func effSamples(g GateStats) int {
	if g.Samples > 0 {
		return g.Samples
	}
	return g.Queries - g.Queries/2
}

package harness

import (
	"fmt"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/workload"
)

// Fig1Distributions reproduces the headline figure: average per-query scan
// time across data distributions for each skipping policy. The paper's
// claim: skipping wins big on sorted/semi-sorted/clustered data, and
// adaptive avoids the static zonemap's losses on arbitrary (uniform)
// data. Adaptive is reported at steady state (second half of the stream)
// alongside its whole-stream average, since adaptation is pay-as-you-go.
func Fig1Distributions(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:    "fig1",
		Title: fmt.Sprintf("avg per-query time, N=%d, %d queries, sel=1%%", cfg.Rows, cfg.Queries),
		Header: []string{"distribution", "none", "static", "adaptive(all)", "adaptive(steady)",
			"adp rows skipped", "adp speedup vs none"},
	}
	dists := []workload.Distribution{workload.Sorted, workload.SemiSorted, workload.Clustered, workload.Uniform}
	for _, dist := range dists {
		row := []string{dist.String()}
		var noneAvg, adpSteady float64
		var adpSkipFrac float64
		for _, policy := range policies {
			e, domain := buildEngine(cfg, dist, policy)
			gen := workload.NewGen(workload.QuerySpec{
				Kind: workload.UniformRange, Domain: domain, Selectivity: 0.01, Seed: cfg.Seed + 1,
			})
			sr, err := cfg.runStream(e, gen, cfg.Queries)
			if err != nil {
				return nil, err
			}
			avg := sr.avgNs(0, cfg.Queries)
			row = append(row, fmtNs(avg))
			switch policy {
			case engine.PolicyNone:
				noneAvg = avg
			case engine.PolicyAdaptive:
				adpSteady = sr.avgNs(cfg.Queries/2, cfg.Queries)
				row = append(row, fmtNs(adpSteady))
				total := int64(cfg.Rows) * int64(cfg.Queries)
				adpSkipFrac = float64(sr.rowsSkipped) / float64(total)
			}
		}
		row = append(row, fmt.Sprintf("%.1f%%", adpSkipFrac*100))
		if adpSteady > 0 {
			row = append(row, fmt.Sprintf("%.2fx", noneAvg/adpSteady))
		} else {
			row = append(row, "-")
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"adaptive(steady) averages the second half of the stream, after pay-as-you-go refinement",
		"paper claim: ~1.4X potential on skippable distributions, no durable loss on uniform")
	return t, nil
}

// Fig2Convergence reproduces the cracking-style adaptation curve: response
// time by query sequence number on clustered data. Static is flat; the
// adaptive curve starts near static (coarse zones), dips as splits refine
// hot regions, and settles below it.
func Fig2Convergence(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "fig2",
		Title:  fmt.Sprintf("per-query time by sequence number, clustered, N=%d", cfg.Rows),
		Header: []string{"query#", "none", "static", "adaptive", "adaptive zones"},
	}
	// Fine clusters (many per initial zone) so coarse initial bounds are
	// wide and the split mechanism has real work to do.
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Clustered, Domain: int64(cfg.Rows),
		Clusters: 4096, Seed: cfg.Seed,
	})
	var srs []streamResult
	var zonesAt map[int]int
	for _, policy := range policies {
		e := buildEngineFromValues(cfg, vals, policy)
		gen := workload.NewGen(workload.QuerySpec{
			Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 2,
		})
		if policy == engine.PolicyAdaptive {
			// Sample zone counts alongside the timed stream.
			zonesAt = make(map[int]int)
			var sr streamResult
			for i := 0; i < cfg.Queries; i++ {
				one, err := cfg.runStream(e, gen, 1)
				if err != nil {
					return nil, err
				}
				sr.perQueryNs = append(sr.perQueryNs, one.perQueryNs[0])
				zonesAt[i] = e.Skipper("v").Metadata().Zones
			}
			srs = append(srs, sr)
			continue
		}
		sr, err := cfg.runStream(e, gen, cfg.Queries)
		if err != nil {
			return nil, err
		}
		srs = append(srs, sr)
	}
	for _, q := range samplePoints(cfg.Queries) {
		row := []string{fmt.Sprintf("%d", q+1)}
		// A windowed median around each sample point smooths the high
		// per-query variance of position-dependent range queries.
		lo, hi := q-4, q+5
		if lo < 0 {
			lo = 0
		}
		for _, sr := range srs {
			row = append(row, fmtNs(sr.medianNs(lo, hi)))
		}
		row = append(row, fmt.Sprintf("%d", zonesAt[q]))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "expected shape: adaptive converges below static within tens of queries")
	return t, nil
}

// samplePoints picks logarithmically spaced query indices for time-series
// tables.
func samplePoints(n int) []int {
	var pts []int
	for _, p := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		if p < n {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 || pts[len(pts)-1] != n-1 {
		pts = append(pts, n-1)
	}
	return pts
}

// Fig3Selectivity reproduces speedup vs selectivity on semi-sorted data:
// skipping pays most at low selectivity (few zones qualify) and fades as
// predicates widen to cover everything.
func Fig3Selectivity(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:    "fig3",
		Title: fmt.Sprintf("adaptive speedup vs selectivity, semi-sorted, N=%d", cfg.Rows),
		Header: []string{"selectivity", "none COUNT", "adaptive COUNT", "COUNT speedup",
			"none SUM", "adaptive SUM", "SUM speedup", "rows skipped"},
	}
	sels := []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5}
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.SemiSorted, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	for _, sel := range sels {
		none := buildEngineFromValues(cfg, vals, engine.PolicyNone)
		adp := buildEngineFromValues(cfg, vals, engine.PolicyAdaptive)
		genSpec := workload.QuerySpec{
			Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: sel, Seed: cfg.Seed + 3,
		}
		srNone, err := cfg.runStream(none, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		srAdp, err := cfg.runStream(adp, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		srNoneSum, err := cfg.runStreamAgg(none, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		srAdpSum, err := cfg.runStreamAgg(adp, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		noneCnt := srNone.medianNs(0, cfg.Queries)
		adpCnt := srAdp.medianNs(cfg.Queries/2, cfg.Queries)
		noneSum := srNoneSum.medianNs(0, cfg.Queries)
		adpSum := srAdpSum.medianNs(cfg.Queries/2, cfg.Queries)
		skipFrac := float64(srAdp.rowsSkipped) / (float64(cfg.Rows) * float64(cfg.Queries))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f%%", sel*100),
			fmtNs(noneCnt),
			fmtNs(adpCnt),
			fmt.Sprintf("%.2fx", noneCnt/adpCnt),
			fmtNs(noneSum),
			fmtNs(adpSum),
			fmt.Sprintf("%.2fx", noneSum/adpSum),
			fmt.Sprintf("%.1f%%", skipFrac*100),
		})
	}
	t.Notes = append(t.Notes,
		"COUNT speedup persists at high selectivity: covered zones short-circuit counting without data access",
		"SUM speedup fades as selectivity grows (the paper's classic shape): aggregation must read every qualifying row")
	return t, nil
}

// Fig4Granularity reproduces the tuning argument for adaptivity: static
// zonemaps sweep their one knob (zone size) while adaptive, untuned,
// matches or beats the best static configuration.
func Fig4Granularity(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "fig4",
		Title:  fmt.Sprintf("static zone-size sweep vs adaptive, clustered, N=%d", cfg.Rows),
		Header: []string{"configuration", "zones", "metadata", "avg time", "rows skipped"},
	}
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Clustered, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 4,
	}
	for zs := 64; zs <= cfg.Rows; zs *= 4 {
		c := cfg
		c.StaticZoneRows = zs
		e := buildEngineFromValues(c, vals, engine.PolicyStatic)
		sr, err := cfg.runStream(e, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		md := e.Skipper("v").Metadata()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("static/%d", zs),
			fmt.Sprintf("%d", md.Zones),
			fmtBytes(md.Bytes),
			fmtNs(sr.avgNs(0, cfg.Queries)),
			fmt.Sprintf("%.1f%%", float64(sr.rowsSkipped)/(float64(cfg.Rows)*float64(cfg.Queries))*100),
		})
	}
	adp := buildEngineFromValues(cfg, vals, engine.PolicyAdaptive)
	sr, err := cfg.runStream(adp, workload.NewGen(genSpec), cfg.Queries)
	if err != nil {
		return nil, err
	}
	md := adp.Skipper("v").Metadata()
	t.Rows = append(t.Rows, []string{
		"adaptive",
		fmt.Sprintf("%d", md.Zones),
		fmtBytes(md.Bytes),
		fmtNs(sr.avgNs(cfg.Queries/2, cfg.Queries)),
		fmt.Sprintf("%.1f%%", float64(sr.rowsSkipped)/(float64(cfg.Rows)*float64(cfg.Queries))*100),
	})
	t.Notes = append(t.Notes, "adaptive row reports steady-state time; static rows are flat across the stream")
	return t, nil
}

// Fig5Drift reproduces the workload-drift experiment: a hot range
// workload whose hot region relocates halfway through. Adaptive metadata
// refined for the old region must re-converge on the new one.
func Fig5Drift(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	shift := cfg.Queries / 2
	t := &Table{
		ID:     "fig5",
		Title:  fmt.Sprintf("hot range relocates at query %d, semi-sorted, N=%d", shift, cfg.Rows),
		Header: []string{"window", "none", "static", "adaptive"},
	}
	windows := []struct {
		name     string
		from, to int
	}{
		{"cold start (first 4)", 0, 4},
		{"before drift (warm)", shift / 2, shift},
		{"right after drift (4)", shift, shift + 4},
		{"after re-convergence", cfg.Queries - shift/4, cfg.Queries},
	}
	// Semi-sorted data: value locality follows row position, so adaptive
	// refinement is local to the queried value region — when the hot
	// region jumps, the structure must re-adapt there. (On scattered-
	// cluster data refinement generalizes across the whole domain and
	// drift costs nothing; this experiment isolates the re-adaptation
	// path.)
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.SemiSorted, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	var srs []streamResult
	var splitsAt []int // cumulative adaptive splits per query index
	for _, policy := range policies {
		e := buildEngineFromValues(cfg, vals, policy)
		gen := workload.NewGen(workload.QuerySpec{
			Kind: workload.DriftingHot, Domain: int64(cfg.Rows), Selectivity: 0.005,
			HotFrac: 0.05, ShiftEvery: shift, Seed: cfg.Seed + 5,
		})
		if policy == engine.PolicyAdaptive {
			var sr streamResult
			splitsAt = make([]int, cfg.Queries)
			az := e.Skipper("v").(*adaptive.Zonemap)
			for i := 0; i < cfg.Queries; i++ {
				one, err := cfg.runStream(e, gen, 1)
				if err != nil {
					return nil, err
				}
				sr.perQueryNs = append(sr.perQueryNs, one.perQueryNs[0])
				splitsAt[i] = az.Stats().Splits
			}
			srs = append(srs, sr)
			continue
		}
		sr, err := cfg.runStream(e, gen, cfg.Queries)
		if err != nil {
			return nil, err
		}
		srs = append(srs, sr)
	}
	t.Header = append(t.Header, "adaptive splits in window")
	for _, w := range windows {
		row := []string{w.name}
		for _, sr := range srs {
			row = append(row, fmtNs(sr.medianNs(w.from, w.to)))
		}
		from, to := w.from, w.to-1
		if to >= len(splitsAt) {
			to = len(splitsAt) - 1
		}
		prev := 0
		if from > 0 {
			prev = splitsAt[from-1]
		}
		row = append(row, fmt.Sprintf("%d", splitsAt[to]-prev))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"re-adaptation is nearly free by design: splits piggyback on the scans the first post-drift queries must do anyway,",
		"so the latency spike is small and the split column shows the structural response directly")
	return t, nil
}

// Fig6Adversarial reproduces the robustness bound on arbitrary data:
// static zonemaps pay probe overhead forever with no skipping; adaptive
// arbitration disables itself and tracks the no-skipping baseline.
func Fig6Adversarial(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "fig6",
		Title:  fmt.Sprintf("uniform random data, N=%d, sel=1%%", cfg.Rows),
		Header: []string{"configuration", "avg time", "steady time", "overhead vs none", "zones probed/query", "arbitration"},
	}
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Uniform, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 6,
	}
	// Configurations: the baseline, a fine-grained static zonemap (where
	// probe overhead is largest), the default static, and adaptive.
	type conf struct {
		name     string
		policy   engine.Policy
		zoneRows int
	}
	confs := []conf{
		{"none", engine.PolicyNone, 0},
		{"static/64", engine.PolicyStatic, 64},
		{fmt.Sprintf("static/%d", cfg.StaticZoneRows), engine.PolicyStatic, cfg.StaticZoneRows},
		{"adaptive", engine.PolicyAdaptive, 0},
	}
	var noneSteady float64
	for _, c := range confs {
		runCfg := cfg
		if c.zoneRows > 0 {
			runCfg.StaticZoneRows = c.zoneRows
		}
		e := buildEngineFromValues(runCfg, vals, c.policy)
		sr, err := cfg.runStream(e, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		steady := sr.avgNs(cfg.Queries/2, cfg.Queries)
		if c.policy == engine.PolicyNone {
			noneSteady = steady
		}
		arb := "-"
		if c.policy == engine.PolicyAdaptive {
			if z, ok := e.Skipper("v").(*adaptive.Zonemap); ok {
				st := z.Stats()
				arb = fmt.Sprintf("disabled=%d re-enabled=%d", st.Disables, st.Enables)
			}
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmtNs(sr.avgNs(0, cfg.Queries)),
			fmtNs(steady),
			fmt.Sprintf("%+.1f%%", (steady/noneSteady-1)*100),
			fmt.Sprintf("%.0f", float64(sr.zonesProbed)/float64(cfg.Queries)),
			arb,
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: static overhead grows as zones shrink; adaptive disables skipping and tracks none",
		"overhead magnitudes are compressed vs the paper: Go scans cost more per row than SIMD scans, making probes relatively cheaper (see DESIGN.md §3)")
	return t, nil
}

// Fig7Appends reproduces behavior under growth: the table doubles through
// periodic appends while the query stream runs. Appended rows land in an
// unindexed tail that folds into zones, so correctness and skipping both
// persist.
func Fig7Appends(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "fig7",
		Title:  fmt.Sprintf("append stream: N=%d growing to %d, sorted-by-ingest data", cfg.Rows/2, cfg.Rows),
		Header: []string{"phase", "none", "static", "adaptive", "adaptive zones"},
	}
	n0 := cfg.Rows / 2
	batch := cfg.Rows / 2 / 8 // 8 append batches
	phases := []struct {
		name     string
		from, to int
	}{
		{"first quarter", 0, cfg.Queries / 4},
		{"mid (appends ongoing)", cfg.Queries / 4, 3 * cfg.Queries / 4},
		{"final quarter", 3 * cfg.Queries / 4, cfg.Queries},
	}
	var srs []streamResult
	var adpZones int
	for _, policy := range policies {
		vals := workload.Generate(workload.DataSpec{
			N: n0, Dist: workload.Sorted, Domain: int64(cfg.Rows), Seed: cfg.Seed,
		})
		e := buildEngineFromValues(cfg, vals, policy)
		gen := workload.NewGen(workload.QuerySpec{
			Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 7,
		})
		var sr streamResult
		appended := 0
		next := int64(n0)
		for i := 0; i < cfg.Queries; i++ {
			// Interleave appends across the middle half of the stream.
			if i >= cfg.Queries/4 && i < 3*cfg.Queries/4 && appended < 8 &&
				(i-cfg.Queries/4)%(cfg.Queries/2/8) == 0 {
				for k := 0; k < batch; k++ {
					// Appends are value-clustered (timestamp-like ingest),
					// so folded tail zones have tight bounds.
					if err := e.AppendRow(storage.IntValue(next)); err != nil {
						return nil, err
					}
					next++
				}
				appended++
			}
			one, err := cfg.runStream(e, gen, 1)
			if err != nil {
				return nil, err
			}
			sr.perQueryNs = append(sr.perQueryNs, one.perQueryNs[0])
		}
		srs = append(srs, sr)
		if policy == engine.PolicyAdaptive {
			adpZones = e.Skipper("v").Metadata().Zones
		}
	}
	for _, ph := range phases {
		row := []string{ph.name}
		for _, sr := range srs {
			row = append(row, fmtNs(sr.medianNs(ph.from, ph.to)))
		}
		row = append(row, fmt.Sprintf("%d", adpZones))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "appended rows enter an unindexed tail folded into zones at threshold size")
	return t, nil
}

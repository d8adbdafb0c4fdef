package adaptive

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
)

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

// execute simulates the engine's scan loop over a prune result: it scans
// candidate windows with the kernels, honors covered short-circuits,
// gathers requested statistics, and feeds the observations back. It
// returns the matching row count.
func execute(z *Zonemap, codes []int64, nulls *bitvec.BitVec, r expr.Ranges) int {
	res := z.Prune(r)
	if !res.Enabled {
		count := scan.CountRanges(codes, 0, len(codes), r, nulls)
		z.Observe(res, nil)
		return count
	}
	count := 0
	var obs []core.ZoneObservation
	for _, c := range res.Zones {
		ob := core.ZoneObservation{ID: c.ID, Lo: c.Lo, Hi: c.Hi, Covered: c.Covered}
		if c.Covered {
			count += c.Hi - c.Lo
		} else if c.WantStats {
			m, stats := scan.CountWithStats(codes, c.Lo, c.Hi, r, nulls, c.StatParts)
			count += m
			ob.Matched = m
			ob.Stats = stats
		} else {
			m := scan.CountRanges(codes, c.Lo, c.Hi, r, nulls)
			count += m
			ob.Matched = m
		}
		obs = append(obs, ob)
	}
	z.Observe(res, obs)
	return count
}

func seqCodes(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func smallCfg() Config {
	return Config{
		InitialZoneRows: 100,
		MinZoneRows:     10,
		SplitParts:      5,
		MaxZones:        1000,
		Window:          8,
		MergeSweepEvery: 4,
		ReprobeEvery:    4,
	}
}

func TestNewBuildsCoarseZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(codes, nil, smallCfg())
	if z.NumZones() != 3 || z.Rows() != 250 || !z.Enabled() {
		t.Fatalf("zones=%d rows=%d", z.NumZones(), z.Rows())
	}
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
	md := z.Metadata()
	if md.Kind != "adaptive" || md.Zones != 3 || !md.Enabled || md.Bytes == 0 {
		t.Fatalf("metadata=%+v", md)
	}
}

func TestPruneSkipsAndCovers(t *testing.T) {
	// Three zones with values 0..99, 100..199, 200..249 (sorted data).
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(codes, nil, smallCfg())
	res := z.Prune(oneRange(120, 180))
	// 1 block probe + 3 member zones (all zones fit in one block).
	if !res.Enabled || res.ZonesProbed != 4 {
		t.Fatalf("res=%+v", res)
	}
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 || res.Zones[0].Hi != 200 {
		t.Fatalf("zones=%v", res.Zones)
	}
	if res.RowsSkipped != 150 {
		t.Fatalf("RowsSkipped=%d", res.RowsSkipped)
	}
	// Fully covering predicate -> covered candidate, no stats wanted.
	res = z.Prune(oneRange(100, 199))
	if len(res.Zones) != 1 || !res.Zones[0].Covered || res.Zones[0].WantStats {
		t.Fatalf("covered prune: %v", res.Zones)
	}
	// Partially overlapping zone asks for stats.
	res = z.Prune(oneRange(150, 260))
	var want []core.CandidateZone
	for _, c := range res.Zones {
		want = append(want, c)
	}
	if len(want) != 2 || !want[0].WantStats || want[0].StatParts != 5 {
		t.Fatalf("stats request: %+v", want)
	}
	if !want[1].Covered {
		t.Fatalf("third zone should be covered: %+v", want[1])
	}
}

func TestCountsMatchNaiveOnEveryDistribution(t *testing.T) {
	distros := map[string]func(i int) int64{
		"sorted":    func(i int) int64 { return int64(i) },
		"clustered": func(i int) int64 { return int64((i / 50) * 1000) },
		"random":    func(i int) int64 { return int64((i*2654435761 + 17) % 5000) },
	}
	for name, f := range distros {
		codes := seqCodes(1000, f)
		z := New(codes, nil, smallCfg())
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 200; q++ {
			lo := rng.Int63n(5200) - 100
			r := oneRange(lo, lo+rng.Int63n(500))
			got := execute(z, codes, nil, r)
			want := scan.CountRanges(codes, 0, 1000, r, nil)
			if got != want {
				t.Fatalf("%s q%d: got %d want %d", name, q, got, want)
			}
			if err := z.CheckInvariants(codes, nil, true); err != nil {
				t.Fatalf("%s q%d: %v", name, q, err)
			}
		}
	}
}

func TestSplitRefinesClusteredZone(t *testing.T) {
	// One initial zone of 100 rows, values = i (sorted inside the zone):
	// a narrow predicate should trigger a split that later prunes.
	cfg := smallCfg()
	cfg.InitialZoneRows = 1000
	codes := seqCodes(1000, func(i int) int64 { return int64(i) })
	z := New(codes, nil, cfg)
	if z.NumZones() != 1 {
		t.Fatalf("zones=%d", z.NumZones())
	}
	execute(z, codes, nil, oneRange(0, 49)) // scans, piggybacks stats, splits
	if z.NumZones() <= 1 {
		t.Fatal("no split happened")
	}
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
	if z.Stats().Splits == 0 {
		t.Fatal("split counter not incremented")
	}
	// The same query now skips most rows.
	res := z.Prune(oneRange(0, 49))
	if res.RowsSkipped == 0 {
		t.Fatalf("refined metadata should skip rows: %+v", res)
	}
}

func TestSplitRespectsMinZoneAndBudget(t *testing.T) {
	cfg := smallCfg()
	cfg.InitialZoneRows = 40
	cfg.MinZoneRows = 25 // 40/25 < 2 -> no stats wanted, no splits possible
	codes := seqCodes(40, func(i int) int64 { return int64(i) })
	z := New(codes, nil, cfg)
	res := z.Prune(oneRange(0, 5))
	if res.Zones[0].WantStats {
		t.Fatal("should not want stats below split floor")
	}
	// Budget: MaxZones equal to current count forbids splits.
	cfg2 := smallCfg()
	cfg2.InitialZoneRows = 100
	cfg2.MaxZones = 10 // 10 zones of 100 over 1000 rows; no headroom
	codes2 := seqCodes(1000, func(i int) int64 { return int64(i) })
	z2 := New(codes2, nil, cfg2)
	before := z2.NumZones()
	execute(z2, codes2, nil, oneRange(0, 10))
	if z2.NumZones() != before {
		t.Fatalf("split exceeded budget: %d -> %d", before, z2.NumZones())
	}
}

func TestMergeCoalescesUselessZones(t *testing.T) {
	// Random data: zones never skip, heat decays, merge sweep coalesces.
	cfg := smallCfg()
	cfg.Window = 1 << 30 // keep arbitration from disabling during this test
	rng := rand.New(rand.NewSource(3))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(1000) })
	z := New(codes, nil, cfg)
	before := z.NumZones() // 10
	for q := 0; q < 100; q++ {
		execute(z, codes, nil, oneRange(400, 600))
	}
	if z.NumZones() >= before {
		t.Fatalf("no merge: %d -> %d", before, z.NumZones())
	}
	if z.Stats().Merges == 0 {
		t.Fatal("merge counter not incremented")
	}
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRespectsMaxZoneRows(t *testing.T) {
	cfg := smallCfg()
	cfg.Window = 1 << 30
	cfg.MaxZoneRows = 250
	rng := rand.New(rand.NewSource(3))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(1000) })
	z := New(codes, nil, cfg)
	for q := 0; q < 200; q++ {
		execute(z, codes, nil, oneRange(0, 999))
	}
	// All zones cold -> merged, but never beyond 250 rows: at least 4 remain.
	if z.NumZones() < 4 {
		t.Fatalf("merge exceeded MaxZoneRows: %d zones", z.NumZones())
	}
}

func TestArbitrationDisablesOnAdversarialData(t *testing.T) {
	// Uniform random data: no zone ever skips; probing is pure overhead.
	cfg := smallCfg()
	cfg.ProbeCost = 100 // make the loss decisive quickly
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := New(codes, nil, cfg)
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("arbitration failed to disable on adversarial data")
	}
	if z.Stats().Disables == 0 {
		t.Fatal("disable counter not incremented")
	}
	// Disabled prune declines with no probe cost.
	res := z.Prune(oneRange(40, 60))
	if res.Enabled || res.ZonesProbed != 0 {
		t.Fatalf("disabled prune: %+v", res)
	}
	// Counts remain correct while disabled.
	got := execute(z, codes, nil, oneRange(40, 60))
	want := scan.CountRanges(codes, 0, 1000, oneRange(40, 60), nil)
	if got != want {
		t.Fatalf("disabled count %d want %d", got, want)
	}
}

func TestShadowProbeReenables(t *testing.T) {
	cfg := smallCfg()
	cfg.ProbeCost = 50 // loses badly on unskippable queries, wins on skippable
	cfg.ReprobeEvery = 2
	cfg.Window = 4
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := New(codes, nil, cfg)
	// Disable with an unskippable workload.
	for q := 0; q < 60; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("precondition: should be disabled")
	}
	// Workload drifts to a predicate entirely outside the data domain:
	// every zone would skip; shadow probes should re-enable.
	for q := 0; q < 60 && !z.Enabled(); q++ {
		execute(z, codes, nil, oneRange(10_000, 20_000))
	}
	if !z.Enabled() {
		t.Fatal("shadow probe never re-enabled")
	}
	if z.Stats().Enables == 0 {
		t.Fatal("enable counter not incremented")
	}
}

func TestExtendAndTailFold(t *testing.T) {
	cfg := smallCfg()
	cfg.TailFoldRows = 150
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	z := New(codes, nil, cfg)
	// Small append: goes to tail, still scanned, counts correct.
	codes = append(codes, seqCodes(50, func(i int) int64 { return int64(1000 + i) })...)
	z.Extend(codes, nil)
	if z.Stats().TailRows != 50 {
		t.Fatalf("tail=%d", z.Stats().TailRows)
	}
	got := execute(z, codes, nil, oneRange(1000, 2000))
	if got != 50 {
		t.Fatalf("tail rows not scanned: %d", got)
	}
	// Larger append crosses the fold threshold.
	codes = append(codes, seqCodes(120, func(i int) int64 { return int64(2000 + i) })...)
	z.Extend(codes, nil)
	if z.Stats().TailRows != 0 {
		t.Fatalf("tail not folded: %d", z.Stats().TailRows)
	}
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
	// Folded zones participate in pruning.
	res := z.Prune(oneRange(0, 10))
	if res.RowsSkipped == 0 {
		t.Fatal("folded zones should prune")
	}
	// FoldTail on empty tail is a no-op.
	z.FoldTail(codes, nil)
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
}

// The tail-fold ledger record carries the hull of the folded zones'
// bounds; a leading all-NULL zone has no bounds and must not pin the
// hull's minimum at 0.
func TestFoldTailHullSkipsNullZone(t *testing.T) {
	cfg := smallCfg()
	cfg.InitialZoneRows = 1024
	cfg.TailFoldRows = 1 << 20 // fold only on demand
	codes := seqCodes(1024, func(int) int64 { return 500 })
	z := New(codes, nil, cfg)
	var recs []obs.LedgerRecord
	z.SetLedgerSink(func(r obs.LedgerRecord) { recs = append(recs, r) })

	codes = append(codes, make([]int64, 1024)...)
	codes = append(codes, seqCodes(1024, func(i int) int64 { return 100 + int64(i%100) })...)
	nulls := bitvec.New(len(codes))
	nulls.SetRange(1024, 2048)
	z.Extend(codes, nulls)
	z.FoldTail(codes, nulls)

	if len(recs) != 1 || recs[0].Kind != obs.EventTailFold {
		t.Fatalf("records = %+v, want one tail-fold", recs)
	}
	r := recs[0]
	if r.RowLo != 1024 || r.RowHi != 3072 || r.ZonesBefore != 1 || r.ZonesAfter != 3 {
		t.Fatalf("fold window = rows [%d,%d) zones %d->%d, want [1024,3072) 1->3",
			r.RowLo, r.RowHi, r.ZonesBefore, r.ZonesAfter)
	}
	if r.MinAfter != 100 || r.MaxAfter != 199 {
		t.Fatalf("fold hull = [%d,%d], want [100,199]", r.MinAfter, r.MaxAfter)
	}
}

func TestWidenKeepsPruningSound(t *testing.T) {
	codes := seqCodes(200, func(i int) int64 { return int64(i) })
	z := New(codes, nil, smallCfg())
	// Update row 5 to a huge value; widen metadata accordingly.
	codes[5] = 99999
	z.Widen(5, 99999)
	got := execute(z, codes, nil, oneRange(99999, 99999))
	if got != 1 {
		t.Fatalf("updated row lost: count=%d", got)
	}
	if err := z.CheckInvariants(codes, nil, true); err != nil {
		t.Fatal(err)
	}
	// Widen in the tail region is a no-op and must not panic.
	codes = append(codes, 7)
	z.Extend(codes, nil)
	z.Widen(200, 7)
}

func TestNoteNonNull(t *testing.T) {
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(100)
	nulls.Set(10)
	z := New(codes, nulls, smallCfg())
	// Row 10 gains value 42.
	nulls.Clear(10)
	codes[10] = 42
	z.Widen(10, 42)
	z.NoteNonNull(10)
	if err := z.CheckInvariants(codes, nulls, true); err != nil {
		t.Fatal(err)
	}
}

func TestAllNullZone(t *testing.T) {
	codes := make([]int64, 200)
	nulls := bitvec.New(200)
	for i := 0; i < 100; i++ {
		nulls.Set(i) // first zone all null
	}
	for i := 100; i < 200; i++ {
		codes[i] = int64(i)
	}
	z := New(codes, nulls, smallCfg())
	res := z.Prune(oneRange(-1_000_000, 1_000_000))
	// All-null zone must be skipped even for an all-matching predicate.
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 {
		t.Fatalf("zones=%v", res.Zones)
	}
	got := execute(z, codes, nulls, oneRange(-1_000_000, 1_000_000))
	if got != 100 {
		t.Fatalf("count=%d want 100", got)
	}
}

// Property: under random interleavings of queries, appends, and updates,
// the adaptive zonemap stays structurally sound and always returns exact
// counts.
func TestQuickAdaptiveSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			InitialZoneRows: 20 + rng.Intn(100),
			MinZoneRows:     2 + rng.Intn(10),
			SplitParts:      2 + rng.Intn(6),
			MaxZones:        50 + rng.Intn(500),
			Window:          4 + rng.Intn(16),
			MergeSweepEvery: 1 + rng.Intn(8),
			ReprobeEvery:    1 + rng.Intn(8),
			MaxZoneRows:     50 + rng.Intn(500),
		}
		n := 50 + rng.Intn(400)
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = rng.Int63n(300)
		}
		var nulls *bitvec.BitVec
		z := New(codes, nulls, cfg)
		for step := 0; step < 120; step++ {
			switch rng.Intn(10) {
			case 0: // append
				for k := 0; k < 1+rng.Intn(30); k++ {
					codes = append(codes, rng.Int63n(300))
				}
				z.Extend(codes, nulls)
			case 1: // in-place update
				row := rng.Intn(len(codes))
				v := rng.Int63n(600) - 150
				codes[row] = v
				z.Widen(row, v)
			default: // query
				lo := rng.Int63n(400) - 50
				r := oneRange(lo, lo+rng.Int63n(150))
				got := execute(z, codes, nulls, r)
				want := scan.CountRanges(codes, 0, len(codes), r, nulls)
				if got != want {
					return false
				}
			}
			if err := z.CheckInvariants(codes, nulls, false); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.InitialZoneRows != 65536 || c.MinZoneRows != 1024 || c.SplitParts != 8 ||
		c.Window != 32 || c.ProbeCost != 4 || c.RowCost != 1 || c.TailFoldRows != 65536 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// TailFoldRows follows a custom InitialZoneRows.
	c = Config{InitialZoneRows: 100}.withDefaults()
	if c.TailFoldRows != 100 {
		t.Fatalf("TailFoldRows=%d", c.TailFoldRows)
	}
}

func TestDescribeZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(codes, nil, smallCfg())
	s := z.DescribeZones(2)
	if s == "" || len(s) < 20 {
		t.Fatalf("DescribeZones: %q", s)
	}
}

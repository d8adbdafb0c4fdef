package engine

import (
	"math/rand"
	"testing"

	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// bigTable builds a single-column table large enough to exceed the
// parallel threshold.
func bigTable(t testing.TB, n int, dist workload.Distribution) *table.Table {
	t.Helper()
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := tb.Column("v")
	for _, v := range workload.Generate(workload.DataSpec{N: n, Dist: dist, Domain: int64(n), Seed: 5}) {
		if err := col.AppendInt(v); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestParallelCountMatchesSerial(t *testing.T) {
	const n = 1 << 18
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive} {
		for _, dist := range []workload.Distribution{workload.Sorted, workload.Uniform, workload.Clustered} {
			serialEng := New(bigTable(t, n, dist), Options{Policy: policy, StaticZoneSize: 2048})
			parallelEng := New(bigTable(t, n, dist), Options{Policy: policy, StaticZoneSize: 2048, Parallelism: 8})
			if err := serialEng.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			if err := parallelEng.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			for q := 0; q < 40; q++ {
				lo := rng.Int63n(n)
				where := expr.And(expr.MustPred("v", expr.Between,
					storage.IntValue(lo), storage.IntValue(lo+rng.Int63n(n/10))))
				query := Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}
				a, err := serialEng.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				b, err := parallelEng.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				if a.Count != b.Count {
					t.Fatalf("%v/%v q%d: serial %d parallel %d", policy, dist, q, a.Count, b.Count)
				}
			}
		}
	}
}

// Adaptive learning must behave identically under parallel execution:
// observations carry the same per-zone evidence regardless of worker
// partitioning.
func TestParallelAdaptiveStillLearns(t *testing.T) {
	const n = 1 << 18
	e := New(bigTable(t, n, workload.Clustered), Options{Policy: PolicyAdaptive, Parallelism: 4})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	zonesBefore := e.Skipper("v").Metadata().Zones
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 60; q++ {
		lo := rng.Int63n(n - n/100)
		where := expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(lo), storage.IntValue(lo+int64(n/100))))
		if _, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Skipper("v").Metadata().Zones <= zonesBefore {
		t.Fatalf("no refinement under parallel execution: %d -> %d",
			zonesBefore, e.Skipper("v").Metadata().Zones)
	}
}

// TestPartitionZonesSplitsUnattributedWindows: a full scan is one window
// with no zone identity, and it must still spread over every worker,
// while zones with an identity (whose feedback must stay exact) are never
// cut.
func TestPartitionZonesSplitsUnattributedWindows(t *testing.T) {
	full := []core.CandidateZone{{ID: core.NoZoneID, Lo: 0, Hi: 1000}}
	groups := partitionZones(full, 1000, 4)
	if len(groups) != 4 {
		t.Fatalf("full scan split into %d groups, want 4", len(groups))
	}
	next := 0
	for _, g := range groups {
		for _, z := range g.zones {
			if z.Lo != next || z.Hi-z.Lo != 250 {
				t.Fatalf("groups %+v do not tile [0,1000) in quarters", groups)
			}
			next = z.Hi
		}
	}

	// Two identified zones stay whole; the unindexed tail is cut.
	mixed := []core.CandidateZone{{ID: 0, Lo: 0, Hi: 700}, {ID: 1, Lo: 700, Hi: 800}, {ID: core.NoZoneID, Lo: 800, Hi: 1200}}
	next = 0
	for _, g := range partitionZones(mixed, 1200, 4) {
		for _, z := range g.zones {
			if z.Lo != next || (z.ID != core.NoZoneID && z != mixed[z.ID]) {
				t.Fatalf("zone %+v: identified zones must stay whole and groups must tile", z)
			}
			next = z.Hi
		}
	}
	if next != 1200 {
		t.Fatalf("groups end at %d, want 1200", next)
	}
}

func TestParallelSmallInputStaysSerial(t *testing.T) {
	// Below the threshold the partitioner must not fan out (observable
	// only through correctness here; the fast path is exercised).
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := tb.Column("v")
	for i := int64(0); i < 100; i++ {
		col.AppendInt(i)
	}
	e := New(tb, Options{Policy: PolicyNone, Parallelism: 16})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(Query{
		Where: expr.And(expr.MustPred("v", expr.LT, storage.IntValue(50))),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil || res.Count != 50 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
}

func BenchmarkParallelCount(b *testing.B) {
	const n = 1 << 22
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "serial", 2: "2workers", 4: "4workers", 8: "8workers"}[workers], func(b *testing.B) {
			tb := bigTable(b, n, workload.Uniform)
			e := New(tb, Options{Policy: PolicyNone, Parallelism: workers})
			if err := e.EnableSkipping("v"); err != nil {
				b.Fatal(err)
			}
			q := Query{
				Where: expr.And(expr.MustPred("v", expr.Between,
					storage.IntValue(0), storage.IntValue(n/2))),
				Aggs: []Agg{{Kind: CountStar}},
			}
			b.SetBytes(8 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

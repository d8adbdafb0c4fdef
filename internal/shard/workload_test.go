package shard

import (
	"context"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// workloadTable builds a 1-shard table of n sorted rows with skipping on.
func workloadTable(tb testing.TB, n int64, st *stats.Table, eo engine.Options) *Manager {
	tb.Helper()
	t := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := t.Column("v")
	for i := int64(0); i < n; i++ {
		col.AppendInt(i)
	}
	m, err := NewFromTable(t, Options{Shards: 1, Stats: st, Engine: eo})
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.EnableSkipping("v"); err != nil {
		tb.Fatal(err)
	}
	return m
}

func rangeQuery(lo, hi int64) engine.Query {
	return engine.Query{
		Where: expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(lo), storage.IntValue(hi))),
		Aggs: []engine.Agg{{Kind: engine.CountStar}},
	}
}

// TestWorkloadAttribution: a query whose context carries a fingerprint
// is recorded against that template — latency, row accounting, zone
// reads vs prunes, and (under the adaptive policy, whose zones have
// feedback identities) the zone-touch sketch.
func TestWorkloadAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadTable(t, 4096, st, engine.Options{Policy: engine.PolicyAdaptive})

	// A partial-zone range: the matching zone cannot be covered, so rows
	// really scan (COUNT over a fully covered zone would short-circuit).
	ctx := obs.WithTemplate(context.Background(), "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
	res, err := e.QueryContext(ctx, rangeQuery(10, 300))
	if err != nil || res.Count != 291 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
	ts, ok := st.Template("SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
	if !ok || ts.Calls != 1 {
		t.Fatalf("template not recorded: ok=%v %+v", ok, ts)
	}
	if ts.ZonesRead == 0 {
		t.Fatalf("zone accounting: %+v", ts)
	}
	if ts.RowsRead == 0 || ts.BytesScanned != ts.RowsRead*bytesPerCode {
		t.Fatalf("row accounting: %+v", ts)
	}
	if len(ts.ZoneTouch["v"]) == 0 {
		t.Fatalf("no zone-touch sketch: %+v", ts.ZoneTouch)
	}
	if ts.Fingerprint != res.Trace.Fingerprint {
		t.Fatalf("trace fingerprint %q != template %q", res.Trace.Fingerprint, ts.Fingerprint)
	}

	// Without a fingerprint on the context nothing is recorded.
	if _, err := e.QueryContext(context.Background(), rangeQuery(10, 300)); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot("", 0); snap.Recorded != 1 {
		t.Fatalf("unattributed query was recorded: %+v", snap)
	}
}

// TestWorkloadErrorAttribution: failed executions count as errors on the
// template without polluting row/zone totals.
func TestWorkloadErrorAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadTable(t, 1024, st, engine.Options{Policy: engine.PolicyStatic, StaticZoneSize: 256})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx = obs.WithTemplate(ctx, "SELECT COUNT(*) FROM t WHERE v < ?")
	if _, err := e.QueryContext(ctx, rangeQuery(0, 100)); err == nil {
		t.Fatal("want error from canceled context")
	}
	ts, ok := st.Template("SELECT COUNT(*) FROM t WHERE v < ?")
	if !ok || ts.Errors != 1 || ts.Calls != 1 {
		t.Fatalf("error attribution: ok=%v %+v", ok, ts)
	}
	if ts.RowsRead != 0 || ts.ZonesRead != 0 {
		t.Fatalf("error sample polluted scan totals: %+v", ts)
	}
}

// TestWorkloadCacheHitAttribution: the plan-cached context mark becomes
// the template's cache-hit counter.
func TestWorkloadCacheHitAttribution(t *testing.T) {
	st := stats.New(stats.Options{})
	e := workloadTable(t, 1024, st, engine.Options{Policy: engine.PolicyStatic, StaticZoneSize: 256})

	fp := "SELECT COUNT(*) FROM t WHERE v < ?"
	ctx := obs.WithTemplate(context.Background(), fp)
	if _, err := e.QueryContext(ctx, rangeQuery(0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryContext(obs.WithPlanCached(ctx), rangeQuery(0, 200)); err != nil {
		t.Fatal(err)
	}
	ts, _ := st.Template(fp)
	if ts.Calls != 2 || ts.CacheHits != 1 {
		t.Fatalf("cache hits = %d of %d calls, want 1 of 2", ts.CacheHits, ts.Calls)
	}
}

// BenchmarkQueryAttribution measures the full hot-path cost of workload
// analytics: the same 1-shard query unattributed (stats off), with a
// stats table but no fingerprint (the one-nil-check bench path), and
// fully attributed (pprof labels + Record). The attributed/off delta is
// the documented overhead — it must stay under 1% of query latency.
func BenchmarkQueryAttribution(b *testing.B) {
	const n = 1 << 18
	q := rangeQuery(0, n/16)
	run := func(b *testing.B, e *Manager, ctx context.Context) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryContext(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		e := workloadTable(b, n, nil, engine.Options{Policy: engine.PolicyStatic, StaticZoneSize: 4096})
		run(b, e, context.Background())
	})
	b.Run("enabled-unattributed", func(b *testing.B) {
		e := workloadTable(b, n, stats.New(stats.Options{}), engine.Options{Policy: engine.PolicyStatic, StaticZoneSize: 4096})
		run(b, e, context.Background())
	})
	b.Run("attributed", func(b *testing.B) {
		e := workloadTable(b, n, stats.New(stats.Options{}), engine.Options{Policy: engine.PolicyStatic, StaticZoneSize: 4096})
		ctx := obs.WithTemplate(context.Background(), "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
		run(b, e, ctx)
	})
}

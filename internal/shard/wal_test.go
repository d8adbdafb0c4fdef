package shard

import (
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

func walManager(t *testing.T, shards int) *Manager {
	t.Helper()
	m, err := New("w", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	}, Options{Shards: shards, Key: "id",
		Engine: engine.Options{Policy: engine.PolicyStatic}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWALRoutesPerShard checks the durability loop: sharded appends log
// per-shard records, and recovery replays each record into the shard
// that wrote it — same placement, same bounds, same query results.
func TestWALRoutesPerShard(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, 3)

	l, _, err := wal.Open(wal.Options{Dir: dir}, func(rec *wal.Record) error {
		t.Fatal("fresh directory replayed a record")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)

	rows := make([][]storage.Value, 0, 600)
	for i := 0; i < 600; i++ {
		rows = append(rows, []storage.Value{
			storage.IntValue(int64(i)), storage.FloatValue(float64(i))})
	}
	// Several batches so multiple per-shard records land in the log.
	for lo := 0; lo < len(rows); lo += 100 {
		if err := m.AppendRows(rows[lo : lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh Manager with the same shard count.
	m2 := walManager(t, 3)
	l2, stats, err := wal.Open(wal.Options{Dir: dir}, m2.ReplayRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.Records == 0 {
		t.Fatal("recovery replayed no records")
	}
	if m2.NumRows() != 600 {
		t.Fatalf("recovered %d rows, want 600", m2.NumRows())
	}
	// Placement is preserved shard by shard, not just in total.
	for id := 1; id <= 3; id++ {
		want := m.ShardEngine(id).Table().NumRows()
		got := m2.ShardEngine(id).Table().NumRows()
		if want != got {
			t.Errorf("shard %d: recovered %d rows, want %d", id, got, want)
		}
	}
	// Recovered bounds still prune: a narrow key range must not scan
	// every shard.
	if err := m2.EnableSkipping("id"); err != nil {
		t.Fatal(err)
	}
	res, err := m2.Query(fullRangeCount(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 51 {
		t.Errorf("recovered count = %d, want 51", res.Count)
	}
	if res.Stats.ShardsPruned == 0 {
		t.Error("recovered bounds pruned no shards on a narrow key range")
	}
}

func fullRangeCount(lo, hi int64) engine.Query {
	return engine.Query{Where: expr.And(
		expr.MustPred("id", expr.Between, storage.IntValue(lo), storage.IntValue(hi)))}
}

// TestWALShardCountMismatch checks the two configuration-mismatch paths:
// records from a different shard count, and unsharded records replayed
// into a sharded table, both fail with reopen guidance.
func TestWALShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, 3)
	l, _, err := wal.Open(wal.Options{Dir: dir}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	// Enough rows to learn range bounds and land records on every shard —
	// a shard-3 record is what the 2-shard replay must choke on.
	batch := make([][]storage.Value, 0, 100)
	for i := 0; i < 100; i++ {
		batch = append(batch, []storage.Value{
			storage.IntValue(int64(i * 10)), storage.FloatValue(float64(i))})
	}
	if err := m.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Fewer shards than the log was written at: replay must refuse with
	// guidance, not drop or misroute rows.
	m2 := walManager(t, 2)
	if _, _, err := wal.Open(wal.Options{Dir: dir}, m2.ReplayRecord); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("replay at wrong shard count: err = %v, want shard-count guidance", err)
	}

	// Unsharded log replayed into a sharded table.
	dir2 := t.TempDir()
	tbl, err := table.New("w", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(tbl, engine.Options{})
	l2, _, err := wal.Open(wal.Options{Dir: dir2}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	e.SetWAL(l2)
	if err := e.AppendRows([][]storage.Value{{storage.IntValue(1), storage.FloatValue(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := walManager(t, 2)
	if _, _, err := wal.Open(wal.Options{Dir: dir2}, m3.ReplayRecord); err == nil ||
		!strings.Contains(err.Error(), "unsharded") {
		t.Errorf("unsharded log into sharded table: err = %v, want unsharded guidance", err)
	}
}

// TestWALSingleShardStampsZero: a 1-shard table logs like an unsharded
// one — records carry shard number 0 — so it replays logs written by a
// bare engine, rows and updates alike, and refuses a sharded table's log
// with reopen guidance.
func TestWALSingleShardStampsZero(t *testing.T) {
	dir := t.TempDir()
	tbl, err := table.New("w", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(tbl, engine.Options{})
	l, _, err := wal.Open(wal.Options{Dir: dir}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	e.SetWAL(l)
	for i := 0; i < 50; i++ {
		if err := e.AppendRow(storage.IntValue(int64(i)), storage.FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Update("v", 7, storage.FloatValue(700)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The bare engine's log replays into a 1-shard table, which then logs
	// its own appends stamped 0 as well.
	m := walManager(t, 1)
	l2, stats, err := wal.Open(wal.Options{Dir: dir}, m.ReplayRecord)
	if err != nil {
		t.Fatalf("replaying an unsharded log into one shard: %v", err)
	}
	if stats.Records != 51 || m.NumRows() != 50 {
		t.Fatalf("replayed %d records into %d rows, want 51 into 50", stats.Records, m.NumRows())
	}
	res, err := m.Query(engine.Query{Where: expr.And(expr.MustPred("v", expr.EQ, storage.FloatValue(700)))})
	if err != nil || res.Count != 1 {
		t.Fatalf("replayed update: count=%v err=%v", res, err)
	}
	m.SetWAL(l2)
	if err := m.AppendRows([][]storage.Value{{storage.IntValue(50), storage.FloatValue(50)}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update("v", 8, storage.FloatValue(800)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var shards []uint32
	l3, _, err := wal.Open(wal.Options{Dir: dir}, func(rec *wal.Record) error {
		shards = append(shards, rec.Shard)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
	if len(shards) != 53 {
		t.Fatalf("log holds %d records, want 53", len(shards))
	}
	for i, sh := range shards {
		if sh != 0 {
			t.Fatalf("record %d stamped shard %d, want 0", i, sh)
		}
	}

	// A 3-shard table's log does not replay into one shard.
	dir2 := t.TempDir()
	m3 := walManager(t, 3)
	l4, _, err := wal.Open(wal.Options{Dir: dir2}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m3.SetWAL(l4)
	batch := make([][]storage.Value, 0, 100)
	for i := 0; i < 100; i++ {
		batch = append(batch, []storage.Value{storage.IntValue(int64(i)), storage.FloatValue(float64(i))})
	}
	if err := m3.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := l4.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(wal.Options{Dir: dir2}, walManager(t, 1).ReplayRecord); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("sharded log into one shard: err = %v, want shard-count guidance", err)
	}
}

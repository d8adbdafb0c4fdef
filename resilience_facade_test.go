package adskip

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/table"
)

// metricsDB builds a DB with one adaptive-skipped table big enough to
// grow real zone metadata, and trains it with a short query stream.
func metricsDB(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := Open(Options{
		Policy: Adaptive,
		Adaptive: AdaptiveConfig{
			InitialZoneRows: 64, MinZoneRows: 8, SplitParts: 4,
			Window: 16, MergeSweepEvery: 4,
		},
	})
	tab, err := db.CreateTable("metrics", Col("v", Int64), Col("seq", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := tab.Append(int64(i%512), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 25; q++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200"); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// TestLoadTableCorruptionAtomic verifies DB.LoadTable is failure-atomic:
// a truncated or bit-flipped snapshot is rejected with a typed error and
// the catalog — including tables loaded before the bad attempt — is
// untouched and still serves queries.
func TestLoadTableCorruptionAtomic(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	var buf bytes.Buffer
	if err := db.SaveTable("sales", &buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	fresh := Open(Options{Policy: Static})

	// Bit flip mid-payload: the checksum must catch it.
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := fresh.LoadTable(bytes.NewReader(flipped)); !errors.Is(err, table.ErrChecksum) {
		t.Fatalf("bit flip: err=%v, want ErrChecksum", err)
	}
	if got := fresh.TableNames(); len(got) != 0 {
		t.Fatalf("failed load polluted catalog: %v", got)
	}

	// Truncations at several depths: all rejected, catalog stays clean.
	for _, cut := range []int{0, 2, len(snap) / 3, len(snap) - 1} {
		if _, err := fresh.LoadTable(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if got := fresh.TableNames(); len(got) != 0 {
		t.Fatalf("truncated load polluted catalog: %v", got)
	}

	// Garbage that is not a snapshot at all.
	if _, err := fresh.LoadTable(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, table.ErrBadMagic) {
		t.Fatalf("garbage: err=%v, want ErrBadMagic", err)
	}

	// The pristine snapshot still loads after all the failed attempts.
	tab, err := fresh.LoadTable(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
	if _, err := fresh.Exec("SELECT COUNT(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSkippingCorruptionAtomic verifies Table.LoadSkipping is
// failure-atomic: a corrupt zonemap snapshot is rejected with
// ErrBadSnapshot and the previously installed skipper keeps serving.
func TestLoadSkippingCorruptionAtomic(t *testing.T) {
	db, tab := metricsDB(t)
	var buf bytes.Buffer
	if err := tab.SaveSkipping("v", &buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	check := func(label string, data []byte) {
		t.Helper()
		err := tab.LoadSkipping("v", bytes.NewReader(data))
		if !errors.Is(err, adaptive.ErrBadSnapshot) {
			t.Fatalf("%s: err=%v, want ErrBadSnapshot", label, err)
		}
		// Prior metadata survives the failed load.
		info := tab.SkipperInfo()["v"]
		if info.Kind != "adaptive" || info.Zones == 0 {
			t.Fatalf("%s: skipper lost after failed load: %+v", label, info)
		}
		res, qerr := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200")
		if qerr != nil {
			t.Fatalf("%s: %v", label, qerr)
		}
		if !res.Aggs[0].Equal(IntValue(8 * 101)) {
			t.Fatalf("%s: count=%v", label, res.Aggs[0])
		}
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x08
	check("bit flip", flipped)
	check("truncated", snap[:len(snap)/2])
	check("empty", nil)

	// The pristine snapshot still round-trips.
	if err := tab.LoadSkipping("v", bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
}

func TestExecContextCancellation(t *testing.T) {
	db, _ := metricsDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, "SELECT COUNT(*) FROM metrics WHERE v > 10")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	// Same statement succeeds with a live context.
	if _, err := db.ExecContext(context.Background(), "SELECT COUNT(*) FROM metrics WHERE v > 10"); err != nil {
		t.Fatal(err)
	}
}

func TestLimitsThroughFacade(t *testing.T) {
	db := Open(Options{Limits: Limits{MaxRowsScanned: 1000}})
	tab, err := db.CreateTable("t", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v > 5"); !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
}

// TestQuarantineLifecycleThroughFacade drives metadata corruption with
// fault injection and checks the public surface end to end: queries stay
// correct, Quarantined reports the benched column, the quarantine event
// lands in AdaptationEvents, and RebuildSkipping restores service.
func TestQuarantineLifecycleThroughFacade(t *testing.T) {
	db, tab := metricsDB(t)

	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 50 AND 150"); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	// Next queries detect the corruption, quarantine, and stay correct.
	res, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(IntValue(8 * 101)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	q := tab.Quarantined()
	if _, ok := q["v"]; !ok {
		t.Fatalf("quarantined=%v, want column v", q)
	}
	found := false
	for _, rec := range db.AdaptationEvents() {
		if rec.Kind == obs.EventQuarantine && rec.Column == "v" && rec.Cause == "corruption" {
			found = true
		}
	}
	if !found {
		t.Fatal("no corruption quarantine record in AdaptationEvents")
	}

	if err := tab.RebuildSkipping(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Quarantined()) != 0 {
		t.Fatal("quarantine not cleared")
	}
	info := tab.SkipperInfo()["v"]
	if info.Kind != "adaptive" || info.Zones == 0 {
		t.Fatalf("skipper not rebuilt: %+v", info)
	}
	res, err = db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(IntValue(8 * 101)) {
		t.Fatalf("post-rebuild count=%v", res.Aggs[0])
	}
}

func TestMaxConcurrentQueriesSmoke(t *testing.T) {
	db := Open(Options{MaxConcurrentQueries: 1})
	tab, err := db.CreateTable("t", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential queries each acquire and release the single slot.
	for q := 0; q < 10; q++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v >= 0"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLimitsPerLogicalQuery: Limits bound the logical query, not each
// shard scan. Over 400k rows whose "k" metadata cannot prune, a table of
// four shards must refuse exactly what a table of one refuses — rows
// scanned, projected rows, gathered ORDER BY matches and merged GROUP BY
// groups are all charged to one budget — and accept what it accepts.
func TestLimitsPerLogicalQuery(t *testing.T) {
	const n = 400_000
	rows := make([][]Value, n)
	for i := range rows {
		// k = 7 matches 121 rows, spread evenly over every shard.
		rows[i] = []Value{IntValue(int64(i)), IntValue(int64(i % 3333))}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			open := func(lim Limits) *DB {
				t.Helper()
				db := Open(Options{Policy: Adaptive, Shards: shards, ShardKey: "v", Limits: lim})
				tab, err := db.CreateTable("t", Col("v", Int64), Col("k", Int64))
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.AppendBatch(rows); err != nil {
					t.Fatal(err)
				}
				if err := tab.EnableSkipping(); err != nil {
					t.Fatal(err)
				}
				return db
			}
			check := func(db *DB, q string, wantErr bool, wantRows int) {
				t.Helper()
				res, err := db.Exec(q)
				if wantErr {
					if !errors.Is(err, ErrBudget) {
						t.Errorf("%s: err = %v, want ErrBudget", q, err)
					}
					return
				}
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if len(res.Rows) != wantRows {
					t.Errorf("%s: %d rows, want %d", q, len(res.Rows), wantRows)
				}
			}

			db := open(Limits{MaxRowsScanned: 150_000})
			check(db, "SELECT COUNT(*) FROM t WHERE k < 500", true, 0)
			check(db, "SELECT COUNT(*) FROM t WHERE v < 100000", false, 0)

			db = open(Limits{MaxResultRows: 100})
			check(db, "SELECT v FROM t WHERE k = 7", true, 0)
			check(db, "SELECT v FROM t WHERE k = 7 ORDER BY v LIMIT 5", true, 0)
			check(db, "SELECT v, COUNT(*) FROM t WHERE k = 7 GROUP BY v", true, 0)
			check(db, "SELECT v, COUNT(*) FROM t WHERE k = 7 GROUP BY v LIMIT 10", true, 0)
			check(db, "SELECT v FROM t WHERE k = 7 LIMIT 100", false, 100)
			check(db, "SELECT k, COUNT(*) FROM t WHERE k = 7 GROUP BY k", false, 1)

			db = open(Limits{MaxResultRows: 200})
			check(db, "SELECT v FROM t WHERE k = 7", false, 121)
			check(db, "SELECT v FROM t WHERE k = 7 ORDER BY v DESC LIMIT 5", false, 5)

			restore := faultinject.Activate(faultinject.New(1).
				Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 5 * time.Millisecond}))
			defer restore()
			db = open(Limits{MaxDuration: 10 * time.Millisecond})
			check(db, "SELECT COUNT(*) FROM t WHERE k < 500", true, 0)
		})
	}
}

package adskip

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"adskip/internal/faultinject"
)

// adaptationDB opens an adaptive DB over 16k rows with two skipping
// columns of opposite character: "v" is sorted (a hot range converges
// and splits pay off) while "noise" is uniform pseudo-random (every
// zone's hull spans the domain, so its metadata never prunes — dead
// zones by construction).
func adaptationDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{
		Policy:   Adaptive,
		Adaptive: AdaptiveConfig{InitialZoneRows: 4096, MinZoneRows: 64},
	})
	tab, err := db.CreateTable("data", Col("v", Int64), Col("noise", Int64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []Value{
			IntValue(int64(i)),
			IntValue(int64(i) * 2654435761 % 1000),
		})
	}
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableSkipping("v", "noise"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainAnalyzeLedgerFooter: once a table has ledger activity,
// EXPLAIN ANALYZE gains the ledger footer with totals and the template
// behind the last split — on one shard and on four, where the splits
// happen inside the one shard the hot range prunes down to.
func TestExplainAnalyzeLedgerFooter(t *testing.T) {
	const fp = "SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?"
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := Open(Options{
				Policy:   Adaptive,
				Adaptive: AdaptiveConfig{InitialZoneRows: 4096, MinZoneRows: 64},
				Shards:   shards, ShardKey: "v",
			})
			defer db.Close()
			tab, err := db.CreateTable("data", Col("v", Int64))
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]Value, 1<<14)
			for i := range rows {
				rows[i] = []Value{IntValue(int64(i))}
			}
			if err := tab.AppendBatch(rows); err != nil {
				t.Fatal(err)
			}
			if err := tab.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			var lines []string
			for i := 0; i < 12; i++ {
				if lines, _, err = db.ExplainAnalyze("SELECT COUNT(*) FROM data WHERE v BETWEEN 5000 AND 5200"); err != nil {
					t.Fatal(err)
				}
			}
			var footer string
			for _, l := range lines {
				if strings.HasPrefix(l, "ledger: ") {
					footer = l
				}
			}
			if footer == "" {
				t.Fatalf("no ledger footer in:\n%s", strings.Join(lines, "\n"))
			}
			if !strings.Contains(footer, "adaptation events") || !strings.Contains(footer, "splits)") {
				t.Fatalf("ledger footer malformed: %q", footer)
			}
			if !strings.Contains(footer, "last split") || !strings.Contains(footer, fp) {
				t.Fatalf("ledger footer lost split provenance: %q", footer)
			}
		})
	}
}

// TestAdaptationThroughFacade is the end-to-end acceptance check: a hot
// SQL template drives splits that land in the ledger with the template's
// fingerprint as cause, ROI accounting credits the pruning against its
// maintenance, and useless metadata surfaces as a dead-zone report.
func TestAdaptationThroughFacade(t *testing.T) {
	db := adaptationDB(t)
	defer db.Close()

	for i := 0; i < 12; i++ {
		lo := 5000 + i // literal variants collapse into one template
		if _, err := db.Exec(fmt.Sprintf(
			"SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", lo, lo+200)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM data WHERE noise BETWEEN 400 AND 420"); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.Adaptation(16)
	if snap.Total == 0 || len(snap.Events) == 0 {
		t.Fatalf("empty adaptation snapshot: total=%d events=%d", snap.Total, len(snap.Events))
	}

	// Splits happened, and each carries the SQL template that caused it.
	const wantFP = "SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?"
	var splits int
	for _, e := range snap.Events {
		if e.Kind.String() != "split" {
			continue
		}
		splits++
		if e.Table != "data" || e.Column != "v" {
			t.Fatalf("split on unexpected column: %+v", e)
		}
		if e.Cause != "split-gain" || e.Fingerprint != wantFP {
			t.Fatalf("split provenance = cause %q fp %q, want split-gain / the SQL template", e.Cause, e.Fingerprint)
		}
	}
	if splits == 0 {
		t.Fatalf("no split events in %d records", len(snap.Events))
	}

	// ROI rows are sorted (table, column, shard) and tell the two columns
	// apart: v earns, noise is pure overhead.
	if len(snap.ROI) != 2 {
		t.Fatalf("ROI rows = %d, want 2", len(snap.ROI))
	}
	noise, v := snap.ROI[0], snap.ROI[1]
	if noise.Column != "noise" || v.Column != "v" {
		t.Fatalf("ROI rows out of order: %q then %q", noise.Column, v.Column)
	}
	if v.RowsSkipped == 0 || v.NetRows <= 0 {
		t.Fatalf("hot column earned nothing: %+v", v)
	}
	if noise.RowsSkipped != 0 || noise.NetRows >= 0 {
		t.Fatalf("noise column should be pure debit: %+v", noise)
	}
	if noise.DeadZones == 0 || len(noise.DeadZoneDetail) == 0 {
		t.Fatalf("dead-zone report missing: %+v", noise)
	}
	if noise.DeadZones != noise.Zones {
		t.Fatalf("dead zones = %d of %d, want every noise zone dead", noise.DeadZones, noise.Zones)
	}

	// The EXPLAIN ANALYZE footer reports the same ledger totals.
	lines, _, err := db.ExplainAnalyze("SELECT COUNT(*) FROM data WHERE v BETWEEN 5000 AND 5200")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ledger: ") || !strings.Contains(joined, "splits)") {
		t.Fatalf("EXPLAIN ANALYZE ledger footer missing:\n%s", joined)
	}
	if !strings.Contains(joined, wantFP) {
		t.Fatalf("footer lost the splitting template:\n%s", joined)
	}

	// No health monitor: shed status reports ok rather than guessing.
	if db.ShedStatus() != HealthOK {
		t.Fatalf("ShedStatus without monitor = %v, want ok", db.ShedStatus())
	}
}

// TestSkipRegressionFlipThroughFacade induces a real skip regression —
// metadata corruption quarantines the hot column, so a template that
// skipped ~90% of its rows abruptly skips none — and watches the
// skip_regression objective flip to firing and release again after the
// rebuild, with the load-shed exemption holding throughout.
func TestSkipRegressionFlipThroughFacade(t *testing.T) {
	db := Open(Options{
		Policy:          Adaptive,
		Adaptive:        AdaptiveConfig{InitialZoneRows: 1024, MinZoneRows: 256},
		HistoryInterval: 2 * time.Millisecond,
		Health: HealthConfig{
			Short: 20 * time.Millisecond, Mid: 60 * time.Millisecond,
			Long: 120 * time.Millisecond, ClearTicks: 3,
		},
		Objectives: []Objective{
			{Name: "skip-reg", Signal: SignalSkipRegression, Threshold: 0.3},
		},
	})
	defer db.Close()
	tab, err := db.CreateTable("data", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8192; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	const hot = "SELECT COUNT(*) FROM data WHERE v BETWEEN 4000 AND 4100"
	regState := func() HealthSeverity {
		snap, ok := db.Health()
		if !ok {
			t.Fatal("health monitor missing")
		}
		for _, o := range snap.Objectives {
			if o.Signal == SignalSkipRegression {
				return o.State
			}
		}
		t.Fatal("skip_regression objective missing")
		return HealthOK
	}

	// Learn the baseline: the sorted column prunes ~7 of 8 zones.
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(hot); err != nil {
			t.Fatal(err)
		}
	}
	if st := regState(); st != HealthOK {
		t.Fatalf("regression objective fired during healthy learning: %v", st)
	}

	// Induce: one injected invariant flip corrupts the zonemap; the next
	// probe detects it and quarantines the column — skipping collapses.
	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := db.Exec(hot); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	deadline := time.Now().Add(10 * time.Second)
	for regState() == HealthOK {
		if _, err := db.Exec(hot); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("skip_regression never fired after quarantine collapsed skipping")
		}
		time.Sleep(time.Millisecond)
	}
	if len(tab.Quarantined()) == 0 {
		t.Fatal("regression fired but the column was never quarantined")
	}
	// Shed exemption: the regression is burning, yet admission stays open.
	if db.ShedStatus() != HealthOK {
		t.Fatalf("ShedStatus = %v during a skip regression; the signal must be shed-exempt", db.ShedStatus())
	}

	// Recover: rebuild the metadata and keep the template hot; the fast
	// EWMA climbs back and hysteresis releases the alert.
	if err := tab.RebuildSkipping(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for regState() != HealthOK {
		if _, err := db.Exec(hot); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("skip_regression never cleared after the rebuild")
		}
		time.Sleep(time.Millisecond)
	}

	// The alert history tells the whole round trip.
	var fired, cleared bool
	for _, tr := range db.Alerts().History {
		if tr.Objective != "skip-reg" {
			continue
		}
		if tr.To != HealthOK {
			fired = true
		}
		if fired && tr.To == HealthOK {
			cleared = true
		}
	}
	if !fired || !cleared {
		t.Fatalf("alert history missing the fire/clear round trip: %+v", db.Alerts().History)
	}
}

// TestAdaptationSharded: the one shared ledger serves a sharded catalog
// — per-shard engines stamp their records, ROI fans out across shards,
// and the /adaptation endpoint serves it all with shard filtering.
func TestAdaptationSharded(t *testing.T) {
	db, _ := shardedDB(t, "range")
	defer db.Close()
	for i := 0; i < 4; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM sales WHERE id BETWEEN 10 AND 40"); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.Adaptation(8)
	shardsSeen := map[int]bool{}
	for _, e := range snap.Events {
		shardsSeen[e.Shard] = true
	}
	for sh := 1; sh <= 4; sh++ {
		if !shardsSeen[sh] {
			t.Fatalf("no ledger records from shard %d (saw %v)", sh, shardsSeen)
		}
	}
	if len(snap.ROI) == 0 {
		t.Fatal("no ROI rows from sharded catalog")
	}
	roiShards := map[int]bool{}
	for _, r := range snap.ROI {
		if r.Table != "sales" {
			t.Fatalf("ROI table = %q", r.Table)
		}
		roiShards[r.Shard] = true
	}
	for sh := 1; sh <= 4; sh++ {
		if !roiShards[sh] {
			t.Fatalf("no ROI row from shard %d (saw %v)", sh, roiShards)
		}
	}

	url, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/adaptation?shard=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/adaptation?shard=2 = %d", resp.StatusCode)
	}
	var served AdaptationSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if len(served.Events) == 0 && len(served.ROI) == 0 {
		t.Fatal("shard=2 served nothing")
	}
	for _, e := range served.Events {
		if e.Shard != 2 {
			t.Fatalf("shard filter leaked: %+v", e)
		}
	}
	for _, r := range served.ROI {
		if r.Shard != 2 {
			t.Fatalf("shard filter leaked ROI: %+v", r)
		}
	}
}

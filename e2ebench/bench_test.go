package main

import (
	"reflect"
	"testing"
	"time"
)

// small scales a workload down for tests, keeping its shape: the same
// distribution, 1024-row bands on skip-zipf, and its connection count.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.rows = 1 << 18
	if s.clusters > 0 {
		s.clusters = s.rows / 1024
	}
	s.warmQueries, s.queriesPerSec = 100, 300
	s.warmBatches, s.tailBatches = min(s.warmBatches, 20), 0
	s.batchesPerSec = min(s.batchesPerSec, 40)
	return s
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range specs {
		s := small(t, w.name)
		a, b := genBase(s, 7), genBase(s, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different tables", s.name)
		}
		if reflect.DeepEqual(a, genBase(s, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same table", s.name)
		}
		p, q := makePlan(s, 7, 2), makePlan(s, 7, 2)
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: seed 7 generated two different request streams", s.name)
		}
		if reflect.DeepEqual(p, makePlan(s, 8, 2)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", s.name)
		}
	}
}

// layerCounts runs single-connection skip-zipf served and returns the
// window's rows scanned and zones probed and the run's zone splits.
func layerCounts(t *testing.T, seed int64) [3]int64 {
	t.Helper()
	s := small(t, "skip-zipf")
	p := makePlan(s, seed, 2)
	o := newOracle(s, genBase(s, seed).v)
	r, err := runServed(s, seed, p, o, t.TempDir(), 1, false, false, time.Now().Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []*phase{r.warm, r.window} {
		if ph.failed+ph.wrong > 0 || ph.cut {
			t.Fatalf("seed %d: %d failed, %d wrong, cut=%v: %v", seed, ph.failed, ph.wrong, ph.cut, ph.firstBad)
		}
	}
	var c [3]int64
	for _, q := range r.window.queries {
		c[0] += int64(q.stats.RowsScanned)
		c[1] += int64(q.stats.ZonesProbed)
	}
	c[2] = delta(r.c0, r.c2, "adskip_adapt_events_total", `kind="split"`)
	return c
}

func TestLayerCountsRepeat(t *testing.T) {
	a, b := layerCounts(t, 3), layerCounts(t, 3)
	t.Logf("seed 3: rows scanned %d, zones probed %d, splits %d", a[0], a[1], a[2])
	if a != b {
		t.Fatalf("seed 3 twice: rows scanned, zones probed, splits = %v then %v", a, b)
	}
	if a[2] == 0 {
		t.Fatalf("seed 3 split no zone: the workload does not exercise adaptation")
	}
	if c := layerCounts(t, 4); c == a {
		t.Fatalf("seeds 3 and 4 gave the same layer counts %v", a)
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	s := small(t, "ingest-sharded")
	o := newOracle(s, genBase(s, 1).v)
	q := query{shape: shapeSum, lo: 1000, hi: 1000 + s.width(shapeSum) - 1}
	n, sum := o.baseRange(q.lo, q.hi)
	if err := o.check(q, answer{count: n, sum: sum}, 0, 0); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for _, a := range []answer{{count: n + 1, sum: sum}, {count: n, sum: sum + 1}, {count: n, null: true}} {
		if o.check(q, a, 0, 0) == nil {
			t.Errorf("wrong answer %+v accepted", a)
		}
	}
	// A range over arrivals: 5 rows acknowledged before the send, 9 sent
	// before the reply, so 5..9 of them may be visible.
	q = query{shape: shapeTop, lo: s.domain() + 2, hi: s.domain() + 100}
	if err := o.check(q, answer{top: []int64{q.lo, q.lo + 1, q.lo + 2, q.lo + 3, q.lo + 4}}, 5, 9); err != nil {
		t.Fatalf("visible arrivals rejected: %v", err)
	}
	if o.check(q, answer{top: []int64{q.lo, q.lo + 1}}, 5, 9) == nil {
		t.Errorf("acknowledged arrivals missing from a reply were accepted")
	}
	if o.check(q, answer{top: []int64{q.lo, q.lo + 2, q.lo + 3}}, 0, 9) == nil {
		t.Errorf("a gap in arrivals was accepted")
	}
}

package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "help", L("a", "1"))
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Different labels are a different series.
	if r.Gauge("g", "help", L("a", "2")) == g {
		t.Fatal("distinct label sets shared a series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	// Buckets are "le": 1 catches {0.5, 1}, 10 catches {5}, 100 catches
	// {50}, overflow catches {500}.
	want := []int64{2, 1, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two kinds did not panic")
		}
	}()
	r.Gauge("m", "help")
}

// goldenRegistry builds the small fixture behind both exposition goldens.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests.", L("table", "t")).Add(3)
	r.Gauge("test_temp", "Temp.").Set(-2)
	h := r.Histogram("test_lat_seconds", "Latency.", []float64{0.5, 1, 2.5})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(7)
	return r
}

func TestGoldenPrometheus(t *testing.T) {
	const want = `# HELP test_lat_seconds Latency.
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.5"} 1
test_lat_seconds_bucket{le="1"} 2
test_lat_seconds_bucket{le="2.5"} 2
test_lat_seconds_bucket{le="+Inf"} 3
test_lat_seconds_sum 8
test_lat_seconds_count 3
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{table="t"} 3
# HELP test_temp Temp.
# TYPE test_temp gauge
test_temp -2
`
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestGoldenJSON(t *testing.T) {
	const want = `{
  "counters": {
    "test_requests_total{table=\"t\"}": 3
  },
  "gauges": {
    "test_temp": -2
  },
  "histograms": {
    "test_lat_seconds": {
      "count": 3,
      "sum": 8,
      "buckets": [
        {
          "le": "0.5",
          "count": 1
        },
        {
          "le": "1",
          "count": 2
        },
        {
          "le": "2.5",
          "count": 2
        },
        {
          "le": "+Inf",
          "count": 3
        }
      ]
    }
  }
}
`
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("json exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventSplit: "split", EventMerge: "merge", EventDisable: "disable",
		EventEnable: "enable", EventTailFold: "tail-fold",
		EventSkipperBuilt: "skipper-built", EventSkipperLoad: "skipper-load",
		EventQuarantine: "quarantine", EventRebuild: "rebuild", EventWiden: "widen",
	}
	if len(kinds) != int(EventWiden)+1 {
		t.Fatalf("table covers %d kinds, want all %d", len(kinds), int(EventWiden)+1)
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), want)
		}
		var back EventKind
		if b, err := k.MarshalJSON(); err != nil || back.UnmarshalJSON(b) != nil || back != k {
			t.Errorf("EventKind(%d) does not round-trip through JSON (%s, %v)", k, b, err)
		}
	}
}

func TestTraceLines(t *testing.T) {
	tr := &QueryTrace{
		Table: "t", RowsTotal: 1000,
		RowsScanned: 100, RowsSkipped: 800, RowsCovered: 100, ZonesProbed: 16,
		Predicates: []PredicateTrace{{
			Column: "v", Predicate: "[10, 20]", Skipper: "adaptive-zonemap",
			Active: true, ZonesProbed: 16, Windows: 3, CoveredWindows: 1,
			CandidateRows: 200, EstRowsSkipped: 800, Matched: 42,
		}},
	}
	lines := tr.Lines(false)
	want := []string{
		`trace: table "t", 1000 rows`,
		`probe: 16 zone probes`,
		`scan: scanned 100, covered 100, skipped 800 rows`,
		`predicate on "v": [10, 20] — adaptive-zonemap skipper: est. 800 rows skippable (80.0%), 3 windows (1 covered, 200 candidate rows); actual matched 42`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i, lines[i], want[i])
		}
	}
	// With timings every phase appears, and String carries them too.
	timed := strings.Join(tr.Lines(true), "\n")
	for _, phase := range []string{"phase plan", "phase probe", "phase scan", "phase feedback", "total"} {
		if !strings.Contains(timed, phase) {
			t.Errorf("timed trace missing %q:\n%s", phase, timed)
		}
	}
	if tr.String() != timed {
		t.Error("String() differs from joined timed lines")
	}
}

// TestRegistryConcurrent hammers registration, updates, and exposition from
// many goroutines; run under -race this proves the registry's locking
// discipline (mutex on structure, atomics on values).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := []string{"a_total", "b_total"}[id%2]
			c := r.Counter(name, "help", L("w", string(rune('a'+id))))
			h := r.Histogram("h_seconds", "help", []float64{0.01, 0.1, 1})
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.05)
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkQueryTraceRecord documents the per-query cost of the trace the
// engine allocates for every query: one QueryTrace + a one-predicate
// slice, phase stamps, and the counter/histogram updates finishTrace
// performs. This is the entire per-query observability overhead; nothing
// is recorded per row.
func BenchmarkQueryTraceRecord(b *testing.B) {
	r := NewRegistry()
	queries := r.Counter("adskip_queries_total", "help", L("table", "t"))
	scanned := r.Counter("adskip_rows_scanned_total", "help", L("table", "t"))
	skipped := r.Counter("adskip_rows_skipped_total", "help", L("table", "t"))
	lat := r.Histogram("adskip_query_seconds", "help", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}, L("table", "t"))
	sel := r.Histogram("adskip_query_selectivity", "help", []float64{1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1}, L("table", "t"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &QueryTrace{Table: "t", Start: time.Now()}
		tr.Plan = time.Since(tr.Start)
		tr.Predicates = make([]PredicateTrace, 1)
		tr.Predicates[0] = PredicateTrace{Column: "v", Skipper: "adaptive-zonemap", Active: true, Matched: -1}
		tr.RowsScanned, tr.RowsSkipped, tr.RowsTotal = 1024, 64512, 65536
		tr.Total = time.Since(tr.Start)
		queries.Inc()
		scanned.Add(int64(tr.RowsScanned))
		skipped.Add(int64(tr.RowsSkipped))
		lat.Observe(tr.Total.Seconds())
		sel.Observe(0.01)
		sink = tr
	}
}

// sink defeats dead-code elimination in benchmarks.
var sink interface{}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram([]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

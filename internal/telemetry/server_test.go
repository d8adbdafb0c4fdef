package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adskip/internal/health"
	"adskip/internal/obs"
)

// testSource builds a server source with one trace and a canned skipmap.
func testSource() Source {
	reg := obs.NewRegistry()
	reg.Counter("t_total", "help").Inc()
	ring := obs.NewTraceRing(8)
	root := obs.NewSpan("query")
	root.StartChild("scan").FinishRows(100, 10, 80)
	root.Finish()
	ring.Append(&obs.QueryTrace{Table: "t", Start: root.Start, Root: root})
	return Source{
		Registry: reg,
		Traces:   ring,
		Events: func() []obs.LedgerRecord {
			return []obs.LedgerRecord{{Table: "t", Column: "v", Kind: obs.EventSplit, Cause: "split-gain"}}
		},
		Skipmap: func(maxZones int) []obs.SkipmapTable {
			zones := []obs.SkipmapZone{{Lo: 0, Hi: 64, Min: 1, Max: 9, NonNull: 64, Hits: 3, Misses: 1}}
			if maxZones == 0 {
				zones = nil
			}
			return []obs.SkipmapTable{{Table: "t", Rows: 64, Columns: []obs.SkipmapColumn{{
				Column: "v", Kind: "adaptive", Zones: 1, Enabled: true, ZoneDetail: zones,
			}}}}
		},
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q, want ephemeral localhost", srv.URL())
	}

	// Every JSON endpoint returns 200 and parses.
	for _, path := range []string{"/metrics.json", "/traces", "/slow", "/skipmap", "/events", "/runtime"} {
		code, body := get(t, srv.URL()+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
	}

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "t_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	// /traces carries the span tree; ?format=chrome is a trace_event file.
	_, body = get(t, srv.URL()+"/traces")
	if !strings.Contains(body, `"spans"`) || !strings.Contains(body, `"scan"`) {
		t.Fatalf("/traces missing span tree:\n%s", body)
	}
	_, body = get(t, srv.URL()+"/traces?format=chrome")
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil || len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome export: err=%v events=%d\n%s", err, len(chrome.TraceEvents), body)
	}

	// /events serves ledger records, which decode back into the type.
	_, body = get(t, srv.URL()+"/events")
	var recs []obs.LedgerRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil || len(recs) != 1 ||
		recs[0].Kind != obs.EventSplit || recs[0].Cause != "split-gain" {
		t.Fatalf("/events = %v %+v\n%s", err, recs, body)
	}

	// /skipmap default includes zone detail; zones=0 strips it; junk is 400.
	_, body = get(t, srv.URL()+"/skipmap")
	if !strings.Contains(body, `"zone_detail"`) || !strings.Contains(body, `"hits": 3`) {
		t.Fatalf("/skipmap missing zone detail:\n%s", body)
	}
	_, body = get(t, srv.URL()+"/skipmap?zones=0")
	if strings.Contains(body, `"zone_detail"`) || !strings.Contains(body, `"zones_truncated": 1`) {
		t.Fatalf("/skipmap?zones=0 should strip detail and count truncation:\n%s", body)
	}
	if code, _ := get(t, srv.URL()+"/skipmap?zones=junk"); code != http.StatusBadRequest {
		t.Fatalf("/skipmap?zones=junk = %d, want 400", code)
	}

	if code, _ := get(t, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL()+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestServerMissingSource(t *testing.T) {
	if _, err := Start(Options{}, Source{}); err == nil {
		t.Fatal("Start with empty source did not fail")
	}
}

func TestServerOptionalSourcesNil(t *testing.T) {
	src := Source{Registry: obs.NewRegistry(), Traces: obs.NewTraceRing(1)}
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/slow", "/skipmap", "/events"} {
		code, body := get(t, srv.URL()+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}
}

func TestCollectorRingAndStop(t *testing.T) {
	c := NewCollector(time.Millisecond, 4)
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Snapshot()) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("collector never filled its ring")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	snap := c.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Time.Before(snap[i-1].Time) {
			t.Fatal("samples not oldest-first")
		}
	}
	if snap[0].Goroutines <= 0 {
		t.Fatalf("sample missing goroutine count: %+v", snap[0])
	}
	// After Stop the ring is frozen.
	n := len(c.Snapshot())
	time.Sleep(5 * time.Millisecond)
	if len(c.Snapshot()) != n {
		t.Fatal("collector kept sampling after Stop")
	}
}

// TestHistoryEndpoint serves an adaptation timeline and locks the
// listing envelope: interval, total, then samples, oldest-first.
func TestHistoryEndpoint(t *testing.T) {
	smp := obs.NewSampler(time.Hour, 8, func(h *obs.HistorySample) {
		h.Queries = 7
		h.Columns = append(h.Columns, obs.HistoryColumn{Table: "t", Column: "v", SkipRatio: 0.5, Zones: 3, Enabled: true})
	})
	defer smp.Stop()
	src := testSource()
	src.History = smp
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/history")
	if code != http.StatusOK {
		t.Fatalf("/history = %d, want 200", code)
	}
	var listing struct {
		IntervalNS int64               `json:"interval_ns"`
		Total      uint64              `json:"total"`
		Samples    []obs.HistorySample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("invalid /history JSON: %v\n%s", err, body)
	}
	if listing.IntervalNS != int64(time.Hour) || listing.Total != 1 || len(listing.Samples) != 1 {
		t.Fatalf("listing = interval %d, total %d, %d samples", listing.IntervalNS, listing.Total, len(listing.Samples))
	}
	if s := listing.Samples[0]; s.Queries != 7 || len(s.Columns) != 1 || s.Columns[0].Column != "v" {
		t.Fatalf("sample did not survive serving: %+v", listing.Samples[0])
	}
	// Envelope key order is part of the contract (scripts cut on it).
	if !strings.Contains(body, `"interval_ns"`) ||
		strings.Index(body, `"interval_ns"`) > strings.Index(body, `"total"`) ||
		strings.Index(body, `"total"`) > strings.Index(body, `"samples"`) {
		t.Fatalf("/history envelope keys out of order:\n%s", body)
	}

	// With no sampler the endpoint still answers with an empty listing.
	srv2, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	code, body = get(t, srv2.URL()+"/history")
	if code != http.StatusOK {
		t.Fatalf("/history without sampler = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("invalid empty /history JSON: %v\n%s", err, body)
	}
	if len(listing.Samples) != 0 {
		t.Fatalf("empty listing has %d samples", len(listing.Samples))
	}
}

// TestDashEndpoint: the dashboard is a self-contained HTML page wired to
// the JSON endpoints it polls.
func TestDashEndpoint(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dash = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/dash Content-Type = %q, want text/html", ct)
	}
	page := string(body)
	for _, want := range []string{"<!DOCTYPE html>", "/history", "/skipmap", "/adaptation", "renderAdaptation", "prefers-color-scheme"} {
		if !strings.Contains(page, want) {
			t.Fatalf("/dash page missing %q", want)
		}
	}
}

// healthTestMonitor builds a monitor driven to critical with injected
// tick times, so the golden bodies below are fully deterministic: a
// queue-depth objective (integer values — no float rendering noise)
// breaches for four consecutive ticks.
func healthTestMonitor(t *testing.T) *health.Monitor {
	t.Helper()
	m, err := health.New(
		[]health.Objective{{Signal: health.SignalQueueDepth, Threshold: 8, Budget: 0.5}},
		time.Second,
		health.Config{
			Short: 2 * time.Second, Mid: 4 * time.Second, Long: 8 * time.Second,
			CritBurn: 2, WarnBurn: 1, ClearTicks: 3,
		},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m.OnSample(&obs.HistorySample{Time: at}) // baseline
	for i := 0; i < 4; i++ {
		at = at.Add(time.Second)
		m.OnSample(&obs.HistorySample{Time: at, QueueDepth: 40})
	}
	if m.Status() != health.SevCritical {
		t.Fatalf("setup: monitor status = %v, want critical", m.Status())
	}
	return m
}

// TestHealthEndpointGolden locks the /health JSON shape — and the
// readiness semantics: 503 while critical, 200 otherwise.
func TestHealthEndpointGolden(t *testing.T) {
	m := healthTestMonitor(t)
	src := testSource()
	src.Health = func() (health.Snapshot, bool) { return m.Snapshot(), true }
	src.Alerts = m.Alerts
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health while critical = %d, want 503", code)
	}
	const wantHealth = `{
  "enabled": true,
  "status": "critical",
  "since": "2026-01-02T03:04:09Z",
  "ticks": 5,
  "interval_ns": 1000000000,
  "objectives": [
    {
      "name": "queue_depth",
      "signal": "queue_depth",
      "threshold": 8,
      "budget": 0.5,
      "state": "critical",
      "since": "2026-01-02T03:04:09Z",
      "windows": [
        {
          "window": "2s",
          "value": 40,
          "burn": 2,
          "bad_ticks": 2,
          "data_ticks": 2
        },
        {
          "window": "4s",
          "value": 40,
          "burn": 2,
          "bad_ticks": 4,
          "data_ticks": 4
        },
        {
          "window": "8s",
          "value": 40,
          "burn": 1,
          "bad_ticks": 4,
          "data_ticks": 4
        }
      ]
    }
  ]
}
`
	if body != wantHealth {
		t.Errorf("/health JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", body, wantHealth)
	}

	code, body = get(t, srv.URL()+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("/alerts = %d, want 200", code)
	}
	const wantAlerts = `{
  "active": [
    {
      "name": "queue_depth",
      "signal": "queue_depth",
      "threshold": 8,
      "budget": 0.5,
      "state": "critical",
      "since": "2026-01-02T03:04:09Z",
      "windows": [
        {
          "window": "2s",
          "value": 40,
          "burn": 2,
          "bad_ticks": 2,
          "data_ticks": 2
        },
        {
          "window": "4s",
          "value": 40,
          "burn": 2,
          "bad_ticks": 4,
          "data_ticks": 4
        },
        {
          "window": "8s",
          "value": 40,
          "burn": 1,
          "bad_ticks": 4,
          "data_ticks": 4
        }
      ]
    }
  ],
  "history": [
    {
      "time": "2026-01-02T03:04:09Z",
      "objective": "queue_depth",
      "signal": "queue_depth",
      "from": "ok",
      "to": "critical",
      "value": 40,
      "burn": 2
    }
  ],
  "total": 1,
  "dropped": 0
}
`
	if body != wantAlerts {
		t.Errorf("/alerts JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", body, wantAlerts)
	}
}

// TestHealthEndpointRecovers: once the monitor steps back below
// critical, /health returns 200 again (the readiness flip is live, not
// latched).
func TestHealthEndpointRecovers(t *testing.T) {
	m := healthTestMonitor(t)
	src := testSource()
	src.Health = func() (health.Snapshot, bool) { return m.Snapshot(), true }
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, srv.URL()+"/health"); code != http.StatusServiceUnavailable {
		t.Fatalf("critical /health = %d, want 503", code)
	}
	// Healthy ticks until the burn decays and hysteresis clears.
	at := time.Date(2026, 1, 2, 3, 4, 9, 0, time.UTC)
	for i := 0; i < 20 && m.Status() != health.SevOK; i++ {
		at = at.Add(time.Second)
		m.OnSample(&obs.HistorySample{Time: at, QueueDepth: 0})
	}
	if m.Status() != health.SevOK {
		t.Fatalf("monitor never recovered: %v", m.Status())
	}
	if code, _ := get(t, srv.URL()+"/health"); code != http.StatusOK {
		t.Fatal("/health still 503 after recovery")
	}
}

// TestHealthEndpointDisabled: without SLO tracking the probe answers 200
// so it cannot fail a deployment that declared no objectives.
func TestHealthEndpointDisabled(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusOK || !strings.Contains(body, `"enabled": false`) {
		t.Fatalf("/health disabled = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL()+"/alerts")
	if code != http.StatusOK || !strings.Contains(body, `"active": []`) {
		t.Fatalf("/alerts disabled = %d:\n%s", code, body)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"

	"adskip"
)

// counters is a point-in-time copy of the DB's metrics registry (counters
// and gauges keyed name{labels}, the WAL's among them) and the Go
// runtime's GC count. Layer counts are deltas of two of these.
type counters struct {
	values map[string]int64
	numGC  uint32
}

func snapshot(db *adskip.DB) (counters, error) {
	var buf bytes.Buffer
	if err := db.Metrics().WriteJSON(&buf); err != nil {
		return counters{}, err
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return counters{}, err
	}
	c := counters{values: make(map[string]int64, len(doc.Counters)+len(doc.Gauges))}
	for k, v := range doc.Counters {
		c.values[k] = v
	}
	for k, v := range doc.Gauges {
		c.values[k] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.numGC = ms.NumGC
	return c, nil
}

// sum adds every series of the named family whose labels contain each of
// the given label matchers (like `kind="split"`).
func (c counters) sum(name string, match ...string) int64 {
	var n int64
	for k, v := range c.values {
		fam, labels, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(labels, m)
		}
		if ok {
			n += v
		}
	}
	return n
}

// delta is b.sum - a.sum for one family.
func delta(a, b counters, name string, match ...string) int64 {
	return b.sum(name, match...) - a.sum(name, match...)
}

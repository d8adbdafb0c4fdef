package obs

import (
	"sync"
	"time"
)

// The adaptation timeline: a background sampler that snapshots the
// engine's cumulative counters plus per-column skipping state onto a
// bounded ring, so the convergence the paper plots as a *curve* (skip
// ratio and latency improving query-over-query as the adaptive zonemaps
// learn the workload) can be watched live instead of inferred from two
// point-in-time scrapes.
//
// The sampler is built for an always-on deployment: ring slots and their
// per-column slices are reused once the ring is warm, so the steady
// state allocates nothing on the sampling goroutine; the fill callback
// reads resolved atomic metric handles, never the registry maps.

// HistoryColumn is one column's skipping state at sample time.
type HistoryColumn struct {
	Table string `json:"table"`
	// Shard is the 1-based shard the column state came from (0 =
	// unsharded). /history?shard=N filters per-sample columns on it.
	Shard  int    `json:"shard,omitempty"`
	Column string `json:"column"`
	// SkipRatio is the cumulative fraction of probed rows the column's
	// metadata pruned: skipped / (skipped + candidate).
	SkipRatio float64 `json:"skip_ratio"`
	Zones     int64   `json:"zones"`
	Enabled   bool    `json:"enabled"`
}

// HistorySample is one point on the adaptation timeline: cumulative
// engine totals, estimated latency quantiles, and per-column skipping
// state (sorted by table then column, so serialized series are
// deterministic).
type HistorySample struct {
	Time        time.Time `json:"time"`
	Queries     int64     `json:"queries"`
	RowsScanned int64     `json:"rows_scanned"`
	RowsSkipped int64     `json:"rows_skipped"`
	RowsCovered int64     `json:"rows_covered"`
	SlowQueries int64     `json:"slow_queries"`
	// Errors is the cumulative count of failed queries (canceled, over
	// budget, or recovered panics).
	Errors int64 `json:"errors"`
	// QueueDepth is the number of queries waiting for admission at sample
	// time (instantaneous, not cumulative).
	QueueDepth int64 `json:"queue_depth"`
	// SkipRatio is the cumulative engine-wide skip ratio:
	// skipped / (skipped + scanned).
	SkipRatio float64 `json:"skip_ratio"`
	// LatencyP50/P95 are estimated from the engine's cumulative latency
	// histograms (merged across tables), in seconds.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	// AdaptEvents is the cumulative adaptation-ledger record count
	// (splits, merges, widens, arbitration flips, quarantines).
	AdaptEvents int64 `json:"adapt_events"`
	// WALLagSeconds is the age of the oldest write-ahead-log record not
	// yet fsynced (0 when no WAL is configured or nothing is pending).
	// Instantaneous, like QueueDepth.
	WALLagSeconds float64 `json:"wal_lag_seconds"`
	// SkipRegression is the worst per-template skip-rate regression at
	// sample time: max over templates of (learned baseline − fast EWMA)
	// of the template's skip rate, clamped at 0. Instantaneous, like
	// QueueDepth; feeds the skip_regression health signal.
	SkipRegression float64 `json:"skip_regression"`

	Columns []HistoryColumn `json:"columns"`

	// LatencyBuckets holds the merged cumulative latency histogram counts
	// at sample time (len(LatencyBuckets bounds)+1, last = overflow). It
	// feeds windowed quantile estimation (per-tick bucket deltas) and is
	// excluded from JSON: /history consumers get the derived quantiles.
	// Like Columns, the slice's backing array is reused once the ring is
	// warm.
	LatencyBuckets []int64 `json:"-"`
}

// DefaultSampleInterval and DefaultSampleCapacity are the sampler's
// defaults: one sample per second, ~17 minutes of history.
const (
	DefaultSampleInterval = time.Second
	DefaultSampleCapacity = 1024
)

// Sampler periodically fills HistorySamples into a bounded ring via a
// caller-supplied callback. It owns one goroutine; Stop shuts it down
// and waits, so a stopped Sampler leaks nothing.
type Sampler struct {
	interval time.Duration
	fill     func(*HistorySample)

	mu    sync.Mutex
	buf   []HistorySample
	next  int
	full  bool
	total uint64

	// Subscribers are invoked synchronously on the sampler goroutine after
	// each tick, outside s.mu. subScratch is the reused dispatch list.
	subMu      sync.Mutex
	subs       map[int]func(*HistorySample)
	nextSub    int
	subScratch []func(*HistorySample)

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSampler starts a sampler calling fill every interval into a ring of
// the given capacity (defaults apply when <= 0). The first sample is
// taken immediately so History is never empty. fill runs on the sampler
// goroutine with the slot's reused Columns slice (length zero, capacity
// retained); it must append columns in any order — the sampler sorts.
func NewSampler(interval time.Duration, capacity int, fill func(*HistorySample)) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	s := &Sampler{
		interval: interval,
		fill:     fill,
		buf:      make([]HistorySample, 0, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.sample()
	go s.run()
	return s
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Subscribe registers fn to be called with each new sample, and returns
// a function that unsubscribes it. fn runs synchronously on the sampler
// goroutine right after the tick (so subscribers see every sample without
// polling Snapshot); the *HistorySample is a ring slot valid only for the
// duration of the call — copy what outlives it. Stop implicitly silences
// all subscribers by stopping the goroutine that calls them.
func (s *Sampler) Subscribe(fn func(*HistorySample)) (unsubscribe func()) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subs == nil {
		s.subs = make(map[int]func(*HistorySample))
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	return func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// notify dispatches one filled slot to the subscribers. Called on the
// sampling goroutine with s.mu released; the dispatch list is copied out
// under subMu so callbacks may themselves subscribe or unsubscribe.
func (s *Sampler) notify(slot *HistorySample) {
	s.subMu.Lock()
	fns := s.subScratch[:0]
	for _, fn := range s.subs {
		fns = append(fns, fn)
	}
	s.subScratch = fns
	s.subMu.Unlock()
	for _, fn := range fns {
		fn(slot)
	}
}

func (s *Sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sample()
		case <-s.stop:
			return
		}
	}
}

// sample fills one ring slot in place. Once the ring is full, the slot
// being overwritten donates its Columns backing array, so the steady
// state performs no allocation.
func (s *Sampler) sample() {
	s.mu.Lock()
	var slot *HistorySample
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, HistorySample{})
		slot = &s.buf[len(s.buf)-1]
	} else {
		slot = &s.buf[s.next]
		s.next = (s.next + 1) % cap(s.buf)
		s.full = true
	}
	cols := slot.Columns[:0]
	lat := slot.LatencyBuckets[:0]
	*slot = HistorySample{Time: time.Now(), Columns: cols, LatencyBuckets: lat}
	if s.fill != nil {
		s.fill(slot)
	}
	sortColumns(slot.Columns)
	s.total++
	s.mu.Unlock()
	// Subscribers run outside the ring lock: the slot is only rewritten by
	// this goroutine, at least a full ring revolution later, so handing
	// them the pointer for the duration of the call is safe.
	s.notify(slot)
}

// sortColumns orders per-column series by (table, column) with an
// in-place insertion sort: column counts are small and this keeps the
// sampling tick allocation-free (sort.Slice would box a closure).
func sortColumns(cols []HistoryColumn) {
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && columnLess(&cols[j], &cols[j-1]); j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
}

func columnLess(a, b *HistoryColumn) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	return a.Shard < b.Shard
}

// Snapshot returns a deep copy of the retained samples oldest-first
// (cold path: the serving side pays the allocations, not the sampler).
func (s *Sampler) Snapshot() []HistorySample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HistorySample, 0, len(s.buf))
	if s.full {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	for i := range out {
		out[i].Columns = append([]HistoryColumn(nil), out[i].Columns...)
		out[i].LatencyBuckets = append([]int64(nil), out[i].LatencyBuckets...)
	}
	return out
}

// Len returns the number of retained samples.
func (s *Sampler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Total returns the number of samples ever taken.
func (s *Sampler) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Stop shuts the sampling goroutine down and waits for it to exit.
// Idempotent and safe to call concurrently.
func (s *Sampler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

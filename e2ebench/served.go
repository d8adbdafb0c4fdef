package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adskip"
	"adskip/internal/client"
	"adskip/internal/proto"
	"adskip/internal/server"
)

// stack is one system under test: a DB loaded through the public facade
// and, for served passes, an in-process server on 127.0.0.1.
type stack struct {
	s      spec
	db     *adskip.DB
	tbl    *adskip.Table
	srv    *server.Server
	walDir string

	// acked and sent count inserted rows: acked advances after the server
	// acknowledges a batch, sent before the batch is written. A query sent
	// after acked=a whose reply arrived before sent=b saw a..b arrivals.
	acked, sent atomic.Int64
}

// setup generates the base rows and brings a system up to the point where
// it accepts queries: load, skipper build, WAL recover, listen.
func setup(s spec, seed int64, workDir string, serve bool) (*stack, time.Duration, error) {
	t0 := time.Now()
	b := genBase(s, seed)
	st := &stack{s: s}
	opts := adskip.Options{Policy: adskip.Adaptive}
	if s.shards > 0 {
		opts.Shards, opts.ShardKey, opts.ShardBy = s.shards, "v", "range"
	}
	if s.durable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, 0, fmt.Errorf("wal dir: %w", err)
		}
		st.walDir = dir
		opts.Durability = adskip.Durability{Dir: dir}
	}
	st.db = adskip.Open(opts)
	tbl, err := st.db.CreateTable("data",
		adskip.Col("v", adskip.Int64), adskip.Col("seq", adskip.Int64), adskip.Col("noise", adskip.Float64))
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.tbl = tbl
	// A range-sharded table learns its shard bounds from its first batch,
	// so it gets the whole base in one; unsharded loads go in chunks to
	// bound the transient row slices.
	chunk := 1 << 16
	if s.shards > 0 {
		chunk = s.rows
	}
	for lo := 0; lo < s.rows; lo += chunk {
		hi := min(lo+chunk, s.rows)
		cells := make([]adskip.Value, 3*(hi-lo))
		rows := make([][]adskip.Value, hi-lo)
		for i := lo; i < hi; i++ {
			c := cells[3*(i-lo) : 3*(i-lo)+3]
			c[0], c[1], c[2] = adskip.IntValue(b.v[i]), adskip.IntValue(int64(i)), adskip.FloatValue(b.noise[i])
			rows[i-lo] = c
		}
		if err := tbl.AppendBatch(rows); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
	}
	if err := tbl.EnableSkipping("v", "seq"); err != nil {
		st.close()
		return nil, 0, err
	}
	if s.durable {
		if _, err := st.db.Recover(); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("recover: %w", err)
		}
	}
	if serve {
		srv, err := server.Start(st.db, server.Options{Addr: "127.0.0.1:0"})
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.srv = srv
	}
	return st, time.Since(t0), nil
}

func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.db != nil {
		st.db.Close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}

// op is one request's send and reply times, since its phase began.
type op struct{ start, end time.Duration }

// served is one query as the client saw it.
type served struct {
	op
	q      query
	stats  proto.Stats
	timing *proto.Timing // traced passes only
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	queries   []served // every reader's replies, reader by reader
	inserts   []op
	queryWall time.Duration // phase start to the last reader's last reply
	writeWall time.Duration // phase start to the writer's last ack
	attempted int
	failed    int // errors and refusals
	wrong     int // replies the oracle rejected
	firstBad  error
	cut       bool // stopped at the run's deadline
}

func (p *phase) fail(err error, wrong bool) {
	if wrong {
		p.wrong++
	} else {
		p.failed++
	}
	if p.firstBad == nil {
		p.firstBad = err
	}
}

func (p *phase) merge(o *phase) {
	p.queries = append(p.queries, o.queries...)
	p.inserts = append(p.inserts, o.inserts...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	if p.firstBad == nil {
		p.firstBad = o.firstBad
	}
	p.cut = p.cut || o.cut
}

// run drives one phase: one closed-loop connection per reader stream and,
// when batches > 0, one writer connection appending batches concurrently.
// Each caller waits for its reply before sending the next request.
func (st *stack) run(readers [][]query, batches int, timing bool, o *oracle, deadline time.Time) *phase {
	addr := st.srv.Addr().String()
	t0 := time.Now()
	parts := make([]*phase, len(readers)+1)
	var wg sync.WaitGroup
	for r, qs := range readers {
		wg.Add(1)
		go func(r int, qs []query) {
			defer wg.Done()
			parts[r] = st.read(addr, qs, timing, o, t0, deadline)
		}(r, qs)
	}
	if batches > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[len(readers)] = st.write(addr, batches, t0, deadline)
		}()
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.merge(p)
		out.queryWall = max(out.queryWall, p.queryWall)
		out.writeWall = max(out.writeWall, p.writeWall)
	}
	return out
}

func (st *stack) read(addr string, qs []query, timing bool, o *oracle, t0, deadline time.Time) *phase {
	p := &phase{queries: make([]served, 0, len(qs))}
	if len(qs) == 0 {
		return p
	}
	c, err := client.Dial(addr, client.Options{Timing: timing})
	if err != nil {
		p.attempted++
		p.fail(fmt.Errorf("dial: %w", err), false)
		return p
	}
	defer c.Close()
	for _, q := range qs {
		if time.Now().After(deadline) {
			p.cut = true
			break
		}
		text := q.sql()
		mLo := st.acked.Load()
		start := time.Since(t0)
		res, err := c.Query(text)
		end := time.Since(t0)
		mHi := st.sent.Load()
		p.attempted++
		if err != nil {
			p.fail(err, false)
			var se *client.ServerError
			if !errors.As(err, &se) {
				break // the connection is gone
			}
			continue
		}
		a, err := fromWire(q, res)
		if err == nil {
			err = o.check(q, a, mLo, mHi)
		}
		if err != nil {
			p.fail(err, true)
		}
		p.queries = append(p.queries, served{op: op{start, end}, q: q, stats: res.Stats, timing: res.Timing})
		p.queryWall = end
	}
	return p
}

// write appends batches of in-order keys. A failed insert stops the
// writer: its outcome is unknown, and the oracle relies on arrivals being
// an unbroken prefix.
func (st *stack) write(addr string, batches int, t0, deadline time.Time) *phase {
	p := &phase{inserts: make([]op, 0, batches)}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		p.attempted++
		p.fail(fmt.Errorf("dial: %w", err), false)
		return p
	}
	defer c.Close()
	rows := make([][]any, insertBatch)
	for b := 0; b < batches; b++ {
		if time.Now().After(deadline) {
			p.cut = true
			break
		}
		k := st.sent.Load()
		for i := range rows {
			v, seq, noise := insertedRow(st.s, k+int64(i))
			rows[i] = []any{v, seq, noise}
		}
		st.sent.Store(k + insertBatch)
		start := time.Since(t0)
		n, err := c.Insert("data", rows)
		end := time.Since(t0)
		p.attempted++
		if err == nil && n != insertBatch {
			err = fmt.Errorf("insert acknowledged %d of %d rows", n, insertBatch)
		}
		if err != nil {
			p.fail(err, false)
			break
		}
		st.acked.Store(k + insertBatch)
		p.inserts = append(p.inserts, op{start, end})
		p.writeWall = end
	}
	return p
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

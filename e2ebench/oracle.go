package main

import (
	"encoding/json"
	"fmt"

	"adskip/internal/engine"
	"adskip/internal/proto"
)

// oracle computes expected answers from the rows the benchmark generated
// and had acknowledged: per-value prefix counts and prefix seq sums over
// the base rows (a counting-sort copy, since base keys lie in [0, domain)),
// plus the closed form of the inserted rows, whose keys domain+k arrive in
// order.
type oracle struct {
	domain int64
	rows   int64
	cnt    []int64 // cnt[x]: base rows with v < x
	seqSum []int64 // seqSum[x]: sum of seq over base rows with v < x
}

func newOracle(s spec, v []int64) *oracle {
	d := s.domain()
	o := &oracle{domain: d, rows: int64(len(v)), cnt: make([]int64, d+1), seqSum: make([]int64, d+1)}
	for i, x := range v {
		o.cnt[x+1]++
		o.seqSum[x+1] += int64(i)
	}
	for x := int64(1); x <= d; x++ {
		o.cnt[x] += o.cnt[x-1]
		o.seqSum[x] += o.seqSum[x-1]
	}
	return o
}

// baseRange returns the base rows' count and seq sum over [lo, hi].
func (o *oracle) baseRange(lo, hi int64) (n, sum int64) {
	lo, hi = max(lo, 0), min(hi, o.domain-1)
	if lo > hi {
		return 0, 0
	}
	return o.cnt[hi+1] - o.cnt[lo], o.seqSum[hi+1] - o.seqSum[lo]
}

// insertedRange returns the first inserted index k0 whose key can fall in
// [lo, hi] and how many inserted keys do when m rows are present.
func (o *oracle) insertedRange(lo, hi, m int64) (k0, n int64) {
	k0 = max(lo-o.domain, 0)
	k1 := min(hi-o.domain, m-1)
	return k0, max(k1-k0+1, 0)
}

// answer is one reply reduced to what the oracle checks.
type answer struct {
	count int64
	sum   int64
	null  bool    // SUM over no rows
	top   []int64 // shapeTop keys, in reply order
}

// check verifies a reply given that between mLo and mHi inserted rows
// were visible: at least the rows acknowledged before the query was sent,
// at most the rows sent before its reply arrived.
func (o *oracle) check(q query, a answer, mLo, mHi int64) error {
	bn, bsum := o.baseRange(q.lo, q.hi)
	k0, nLo := o.insertedRange(q.lo, q.hi, mLo)
	_, nHi := o.insertedRange(q.lo, q.hi, mHi)
	if q.shape == shapeTop {
		return o.checkTop(q, a.top, bn, k0, nLo, nHi)
	}
	// The inserted rows in range are always the arrivals k0, k0+1, ...,
	// so the observed count fixes the expected sum.
	ins := a.count - bn
	if ins < nLo || ins > nHi {
		return fmt.Errorf("%s: count %d, want %d..%d", q.sql(), a.count, bn+nLo, bn+nHi)
	}
	if q.shape != shapeSum {
		return nil
	}
	if a.count == 0 {
		if !a.null && a.sum != 0 {
			return fmt.Errorf("%s: sum %d over no rows", q.sql(), a.sum)
		}
		return nil
	}
	want := bsum + ins*o.rows + (2*k0+ins-1)*ins/2
	if a.null || a.sum != want {
		return fmt.Errorf("%s: sum %d (null=%v), want %d", q.sql(), a.sum, a.null, want)
	}
	return nil
}

// checkTop verifies an ORDER BY v LIMIT reply: the smallest keys in range,
// base keys (with duplicates) first, then arrivals k0, k0+1, ...
func (o *oracle) checkTop(q query, top []int64, bn, k0, nLo, nHi int64) error {
	if n := int64(len(top)); n < min(bn+nLo, topK) || n > min(bn+nHi, topK) {
		return fmt.Errorf("%s: %d rows, want %d..%d", q.sql(), n, min(bn+nLo, topK), min(bn+nHi, topK))
	}
	i := 0
	for x := max(q.lo, 0); x <= min(q.hi, o.domain-1) && i < len(top); x++ {
		for c := o.cnt[x+1] - o.cnt[x]; c > 0 && i < len(top); c-- {
			if top[i] != x {
				return fmt.Errorf("%s: row %d is %d, want %d", q.sql(), i, top[i], x)
			}
			i++
		}
	}
	for k := k0; i < len(top); k++ {
		if top[i] != o.domain+k {
			return fmt.Errorf("%s: row %d is %d, want %d", q.sql(), i, top[i], o.domain+k)
		}
		i++
	}
	return nil
}

// fromWire reduces a client result to an answer.
func fromWire(q query, r *proto.Result) (answer, error) {
	a := answer{count: int64(r.Count)}
	switch q.shape {
	case shapeCount:
		n, err := wireInt(r.Aggs, 0)
		if err != nil {
			return a, err
		}
		a.count = n
	case shapeSum:
		if len(r.Aggs) != 1 {
			return a, fmt.Errorf("want 1 aggregate, got %d", len(r.Aggs))
		}
		if r.Aggs[0] == nil {
			a.null = true
			break
		}
		n, err := wireInt(r.Aggs, 0)
		if err != nil {
			return a, err
		}
		a.sum = n
	case shapeTop:
		a.top = make([]int64, len(r.Rows))
		for i, row := range r.Rows {
			n, err := wireInt(row, 0)
			if err != nil {
				return a, err
			}
			a.top[i] = n
		}
	}
	return a, nil
}

func wireInt(cells []any, i int) (int64, error) {
	if len(cells) <= i {
		return 0, fmt.Errorf("missing cell %d", i)
	}
	n, ok := cells[i].(json.Number)
	if !ok {
		return 0, fmt.Errorf("cell %d is %T, want a number", i, cells[i])
	}
	return n.Int64()
}

// fromEngine reduces an in-process result to an answer. top is reused
// across calls so the in-process pass allocates nothing per check.
func fromEngine(q query, r *engine.Result, top []int64) (answer, error) {
	a := answer{count: int64(r.Count)}
	switch q.shape {
	case shapeCount:
		if len(r.Aggs) != 1 {
			return a, fmt.Errorf("want 1 aggregate, got %d", len(r.Aggs))
		}
		a.count = r.Aggs[0].Int()
	case shapeSum:
		if len(r.Aggs) != 1 {
			return a, fmt.Errorf("want 1 aggregate, got %d", len(r.Aggs))
		}
		if r.Aggs[0].IsNull() {
			a.null = true
		} else {
			a.sum = r.Aggs[0].Int()
		}
	case shapeTop:
		a.top = top[:0]
		for _, row := range r.Rows {
			a.top = append(a.top, row[0].Int())
		}
	}
	return a, nil
}

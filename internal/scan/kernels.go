// Package scan implements the tight scan kernels of the column store.
//
// The paper's substrate is a main-memory column store whose scans are fast
// enough that any index must justify its metadata-read cost — that ratio is
// what makes adaptive data skipping interesting. These kernels are the Go
// stand-in for the paper's SIMD scans: plain loops over the code vector,
// the dense count unrolled by four. They are not branch-free: the
// short-circuit range test in countRangeDense and FilterSel's append
// branch on the data. Absolute throughput differs from hand-written SIMD;
// the scan-vs-probe cost ratio that drives the paper's results is
// preserved.
//
// All kernels operate on a column's physical []int64 codes (see package
// storage) against inclusive code intervals, and optionally mask NULL
// rows. Row indices are absolute: codes[i] is row i, as is nulls bit i.
package scan

import (
	"math"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
)

// b2i converts a bool to 0/1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CountRange returns how many codes in codes[lo:hi] fall inside the
// inclusive interval [rlo, rhi]. nulls, when non-nil, is the column's null
// bitmap and null rows never match.
func CountRange(codes []int64, lo, hi int, rlo, rhi int64, nulls *bitvec.BitVec) int {
	if nulls == nil {
		return countRangeDense(codes[lo:hi], rlo, rhi)
	}
	n := 0
	for i := lo; i < hi; i++ {
		c := codes[i]
		if c >= rlo && c <= rhi && !nullAt(nulls, i) {
			n++
		}
	}
	return n
}

// countRangeDense is the null-free hot loop, unrolled by four.
func countRangeDense(codes []int64, rlo, rhi int64) int {
	n := 0
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		n += b2i(c0 >= rlo && c0 <= rhi)
		n += b2i(c1 >= rlo && c1 <= rhi)
		n += b2i(c2 >= rlo && c2 <= rhi)
		n += b2i(c3 >= rlo && c3 <= rhi)
	}
	for ; i < len(codes); i++ {
		c := codes[i]
		n += b2i(c >= rlo && c <= rhi)
	}
	return n
}

// CountRanges counts codes in codes[lo:hi] matching any interval of r.
// Specializes the common one-interval case to the dense kernel.
func CountRanges(codes []int64, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec) int {
	switch r.Len() {
	case 0:
		return 0
	case 1:
		return CountRange(codes, lo, hi, r.Lo[0], r.Hi[0], nulls)
	}
	n := 0
	for i := lo; i < hi; i++ {
		if r.Contains(codes[i]) && !nullAt(nulls, i) {
			n++
		}
	}
	return n
}

// FilterSel appends the row indices in [lo, hi) whose codes match r (and
// are not NULL) to sel, in ascending order. Returns the match count.
func FilterSel(codes []int64, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, sel *bitvec.SelVec) int {
	n := 0
	if r.Len() == 1 {
		rlo, rhi := r.Lo[0], r.Hi[0]
		for i := lo; i < hi; i++ {
			c := codes[i]
			if c >= rlo && c <= rhi && !nullAt(nulls, i) {
				sel.Append(uint32(i))
				n++
			}
		}
		return n
	}
	for i := lo; i < hi; i++ {
		if r.Contains(codes[i]) && !nullAt(nulls, i) {
			sel.Append(uint32(i))
			n++
		}
	}
	return n
}

// MinMaxRange returns the min and max code among non-null rows of
// codes[lo:hi]. ok is false when every row in the window is NULL (or the
// window is empty). Used by metadata builders and by zone re-tightening.
func MinMaxRange(codes []int64, lo, hi int, nulls *bitvec.BitVec) (min, max int64, ok bool) {
	min, max = math.MaxInt64, math.MinInt64
	if nulls == nil {
		for _, c := range codes[lo:hi] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return min, max, hi > lo
	}
	for i := lo; i < hi; i++ {
		if nullAt(nulls, i) {
			continue
		}
		c := codes[i]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		ok = true
	}
	return min, max, ok
}

func nullAt(nulls *bitvec.BitVec, row int) bool {
	return nulls != nil && row < nulls.Len() && nulls.Get(row)
}

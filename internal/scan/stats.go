package scan

import (
	"adskip/internal/bitvec"
	"adskip/internal/expr"
)

// PartStat describes one sub-partition of a scanned window: its bounds over
// non-null rows and how many rows matched the predicate. Adaptive zonemaps
// consume these to decide and execute splits without re-reading data — the
// statistics are piggybacked on a scan the query had to do anyway, which is
// the "pay-as-you-go" cost model of adaptive indexing.
type PartStat struct {
	Lo, Hi   int   // absolute row window [Lo, Hi)
	Min, Max int64 // code bounds over non-null rows (valid iff NonNull > 0)
	NonNull  int   // rows with a value
	Matched  int   // rows matching the predicate
}

// CountWithStats scans codes[lo:hi] against r, returning the total match
// count and per-sub-partition statistics for `parts` equal-width
// sub-windows. It makes a single pass: the marginal cost over CountRanges
// is the stat bookkeeping, not a second data read.
//
// parts is clamped to [1, hi-lo].
func CountWithStats(codes []int64, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, parts int) (int, []PartStat) {
	n := hi - lo
	if n <= 0 {
		return 0, nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	stats := make([]PartStat, parts)
	total := 0
	single := r.Len() == 1
	var rlo, rhi int64
	if single {
		rlo, rhi = r.Lo[0], r.Hi[0]
	}
	for p := 0; p < parts; p++ {
		s := &stats[p]
		pLo := lo + p*n/parts
		pHi := lo + (p+1)*n/parts
		s.Lo, s.Hi = pLo, pHi
		if nulls == nil && single && pHi > pLo {
			// Dense single-interval fast path: locals only, no branches
			// beyond the comparisons themselves.
			w := codes[pLo:pHi]
			cmin, cmax := w[0], w[0]
			matched := 0
			for _, c := range w {
				if c < cmin {
					cmin = c
				}
				if c > cmax {
					cmax = c
				}
				matched += b2i(c >= rlo && c <= rhi)
			}
			s.Min, s.Max, s.NonNull, s.Matched = cmin, cmax, len(w), matched
			total += matched
			continue
		}
		s.Min, s.Max = int64(1)<<62, -(int64(1) << 62) // sentinels; overwritten on first non-null
		first := true
		for i := pLo; i < pHi; i++ {
			if nullAt(nulls, i) {
				continue
			}
			c := codes[i]
			if first {
				s.Min, s.Max = c, c
				first = false
			} else {
				if c < s.Min {
					s.Min = c
				}
				if c > s.Max {
					s.Max = c
				}
			}
			s.NonNull++
			var match bool
			if single {
				match = c >= rlo && c <= rhi
			} else {
				match = r.Contains(c)
			}
			if match {
				s.Matched++
			}
		}
		total += s.Matched
	}
	return total, stats
}

package scan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
)

func seq(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

func naiveCount(codes []int64, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec) int {
	n := 0
	for i := lo; i < hi; i++ {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		if r.Contains(codes[i]) {
			n++
		}
	}
	return n
}

func TestCountRangeDense(t *testing.T) {
	codes := seq(103, func(i int) int64 { return int64(i) }) // 0..102
	got := CountRange(codes, 0, len(codes), 10, 20, nil)
	if got != 11 {
		t.Fatalf("CountRange=%d want 11", got)
	}
	// Sub-window.
	got = CountRange(codes, 15, 30, 10, 20, nil)
	if got != 6 { // 15..20
		t.Fatalf("sub-window CountRange=%d want 6", got)
	}
	// Empty predicate range.
	if CountRange(codes, 0, len(codes), 50, 40, nil) != 0 {
		t.Fatal("inverted range should match nothing")
	}
	// Full range.
	if CountRange(codes, 0, len(codes), math.MinInt64, math.MaxInt64, nil) != 103 {
		t.Fatal("full range should match all")
	}
}

func TestCountRangeWithNulls(t *testing.T) {
	codes := seq(10, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(10)
	nulls.Set(3)
	nulls.Set(7)
	got := CountRange(codes, 0, 10, 0, 9, nulls)
	if got != 8 {
		t.Fatalf("with nulls CountRange=%d want 8", got)
	}
}

func TestCountRanges(t *testing.T) {
	codes := seq(100, func(i int) int64 { return int64(i) })
	r := expr.Ranges{Lo: []int64{5, 90}, Hi: []int64{9, 94}}
	if got := CountRanges(codes, 0, 100, r, nil); got != 10 {
		t.Fatalf("CountRanges=%d want 10", got)
	}
	if got := CountRanges(codes, 0, 100, expr.Ranges{}, nil); got != 0 {
		t.Fatalf("empty ranges=%d want 0", got)
	}
	if got := CountRanges(codes, 0, 100, oneRange(50, 59), nil); got != 10 {
		t.Fatalf("single range=%d want 10", got)
	}
}

func TestFilterSel(t *testing.T) {
	codes := []int64{5, 1, 9, 3, 7, 3}
	sel := bitvec.NewSelVec(0)
	n := FilterSel(codes, 0, len(codes), oneRange(3, 5), nil, sel)
	if n != 3 {
		t.Fatalf("FilterSel n=%d want 3", n)
	}
	want := []uint32{0, 3, 5}
	for i, r := range sel.Rows() {
		if r != want[i] {
			t.Fatalf("sel rows=%v want %v", sel.Rows(), want)
		}
	}
	// Multi-interval path.
	sel.Reset()
	r := expr.Ranges{Lo: []int64{1, 9}, Hi: []int64{1, 9}}
	FilterSel(codes, 0, len(codes), r, nil, sel)
	if rows := sel.Rows(); len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Fatalf("multi-interval sel=%v", sel.Rows())
	}
}

func TestMinMaxRange(t *testing.T) {
	codes := []int64{5, -2, 9, 0}
	min, max, ok := MinMaxRange(codes, 0, 4, nil)
	if !ok || min != -2 || max != 9 {
		t.Fatalf("MinMax=%d,%d,%v", min, max, ok)
	}
	min, max, ok = MinMaxRange(codes, 1, 2, nil)
	if !ok || min != -2 || max != -2 {
		t.Fatalf("single MinMax=%d,%d,%v", min, max, ok)
	}
	if _, _, ok := MinMaxRange(codes, 2, 2, nil); ok {
		t.Fatal("empty window should be ok=false")
	}
	nulls := bitvec.New(4)
	nulls.Set(2) // mask the 9
	min, max, ok = MinMaxRange(codes, 0, 4, nulls)
	if !ok || min != -2 || max != 5 {
		t.Fatalf("null MinMax=%d,%d,%v", min, max, ok)
	}
	nulls.SetAll()
	if _, _, ok := MinMaxRange(codes, 0, 4, nulls); ok {
		t.Fatal("all-null window should be ok=false")
	}
}

func TestCountWithStats(t *testing.T) {
	codes := seq(100, func(i int) int64 { return int64(i) })
	total, stats := CountWithStats(codes, 0, 100, oneRange(25, 74), nil, 4)
	if total != 50 {
		t.Fatalf("total=%d want 50", total)
	}
	if len(stats) != 4 {
		t.Fatalf("parts=%d want 4", len(stats))
	}
	wantMatch := []int{0, 25, 25, 0}
	for p, s := range stats {
		if s.Lo != p*25 || s.Hi != (p+1)*25 {
			t.Fatalf("part %d window [%d,%d)", p, s.Lo, s.Hi)
		}
		if s.Min != int64(p*25) || s.Max != int64(p*25+24) {
			t.Fatalf("part %d bounds [%d,%d]", p, s.Min, s.Max)
		}
		if s.NonNull != 25 || s.Matched != wantMatch[p] {
			t.Fatalf("part %d nonnull=%d matched=%d", p, s.NonNull, s.Matched)
		}
	}
}

func TestCountWithStatsEdges(t *testing.T) {
	codes := seq(5, func(i int) int64 { return int64(i) })
	// parts > n clamps to n.
	total, stats := CountWithStats(codes, 0, 5, oneRange(0, 4), nil, 99)
	if total != 5 || len(stats) != 5 {
		t.Fatalf("clamp: total=%d parts=%d", total, len(stats))
	}
	// parts < 1 clamps to 1.
	_, stats = CountWithStats(codes, 0, 5, oneRange(0, 4), nil, 0)
	if len(stats) != 1 {
		t.Fatalf("min clamp: parts=%d", len(stats))
	}
	// Empty window.
	total, stats = CountWithStats(codes, 3, 3, oneRange(0, 4), nil, 2)
	if total != 0 || stats != nil {
		t.Fatalf("empty window: total=%d stats=%v", total, stats)
	}
	// Window offsets.
	_, stats = CountWithStats(codes, 2, 5, oneRange(0, 4), nil, 1)
	if stats[0].Lo != 2 || stats[0].Hi != 5 {
		t.Fatalf("window [%d,%d)", stats[0].Lo, stats[0].Hi)
	}
}

func TestCountWithStatsNulls(t *testing.T) {
	codes := seq(10, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(10)
	nulls.Set(0)
	nulls.Set(9)
	total, stats := CountWithStats(codes, 0, 10, oneRange(0, 100), nulls, 2)
	if total != 8 {
		t.Fatalf("total=%d want 8", total)
	}
	if stats[0].Min != 1 || stats[0].NonNull != 4 {
		t.Fatalf("part0 min=%d nonnull=%d", stats[0].Min, stats[0].NonNull)
	}
	if stats[1].Max != 8 || stats[1].NonNull != 4 {
		t.Fatalf("part1 max=%d nonnull=%d", stats[1].Max, stats[1].NonNull)
	}
}

// Property: every kernel agrees with the naive reference on random data,
// random windows, random interval sets, random nulls.
func TestQuickKernelsAgreeWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		codes := seq(n, func(int) int64 { return rng.Int63n(200) - 100 })
		var nulls *bitvec.BitVec
		if rng.Intn(2) == 0 {
			nulls = bitvec.New(n)
			for i := 0; i < n/10; i++ {
				nulls.Set(rng.Intn(n))
			}
		}
		// Random normalized interval set.
		r := expr.Ranges{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			lo := rng.Int63n(220) - 110
			r.Lo = append(r.Lo, lo)
			r.Hi = append(r.Hi, lo+rng.Int63n(60))
		}
		r = r.Normalize()
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)

		want := naiveCount(codes, lo, hi, r, nulls)
		if CountRanges(codes, lo, hi, r, nulls) != want {
			return false
		}
		sel := bitvec.NewSelVec(0)
		if FilterSel(codes, lo, hi, r, nulls, sel) != want || sel.Len() != want {
			return false
		}
		total, stats := CountWithStats(codes, lo, hi, r, nulls, 1+rng.Intn(8))
		if total != want {
			return false
		}
		sumMatched, sumNonNull := 0, 0
		for _, s := range stats {
			sumMatched += s.Matched
			sumNonNull += s.NonNull
			// Bounds must enclose all non-null codes in the window.
			for i := s.Lo; i < s.Hi; i++ {
				if nulls != nil && nulls.Get(i) {
					continue
				}
				if codes[i] < s.Min || codes[i] > s.Max {
					return false
				}
			}
		}
		return sumMatched == want && (hi == lo || sumNonNull > 0 || nulls != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCountRangeDense(b *testing.B) {
	codes := seq(1<<20, func(i int) int64 { return int64(i * 7 % 1000) })
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountRange(codes, 0, len(codes), 100, 300, nil)
	}
}

func BenchmarkCountWithStats(b *testing.B) {
	codes := seq(1<<20, func(i int) int64 { return int64(i * 7 % 1000) })
	r := oneRange(100, 300)
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountWithStats(codes, 0, len(codes), r, nil, 16)
	}
}

package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func testSchema() table.Schema {
	return table.Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
}

// buildTable creates a deterministic 4-column table with some nulls.
func buildTable(t testing.TB, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := table.MustNew("t", testSchema())
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	for i := 0; i < n; i++ {
		a := storage.IntValue(int64(i)) // sorted
		b := storage.Value(storage.IntValue(rng.Int63n(1000)))
		if rng.Intn(20) == 0 {
			b = storage.NullValue(storage.Int64)
		}
		f := storage.FloatValue(rng.NormFloat64() * 50)
		s := storage.StringValue(words[rng.Intn(len(words))])
		if err := tb.AppendRow(a, b, f, s); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func smallAdaptive() adaptive.Config {
	return adaptive.Config{InitialZoneRows: 64, MinZoneRows: 8, SplitParts: 4, Window: 16, MergeSweepEvery: 4}
}

func newEngine(t testing.TB, tb *table.Table, policy Policy) *Engine {
	t.Helper()
	e := New(tb, Options{Policy: policy, StaticZoneSize: 64, Adaptive: smallAdaptive()})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	return e
}

func intPred(col string, op expr.Op, vals ...int64) expr.Pred {
	args := make([]storage.Value, len(vals))
	for i, v := range vals {
		args[i] = storage.IntValue(v)
	}
	return expr.MustPred(col, op, args...)
}

func TestCountMatchesAcrossPolicies(t *testing.T) {
	tb := buildTable(t, 1000, 1)
	engines := map[string]*Engine{
		"none":     newEngine(t, tb, PolicyNone),
		"static":   newEngine(t, tb, PolicyStatic),
		"adaptive": newEngine(t, tb, PolicyAdaptive),
		"imprint":  newEngine(t, tb, PolicyImprint),
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 150; q++ {
		lo := rng.Int63n(1100) - 50
		where := expr.And(intPred("a", expr.Between, lo, lo+rng.Int63n(300)))
		var want *Result
		for name, e := range engines {
			got, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}})
			if err != nil {
				t.Fatalf("%s q%d: %v", name, q, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Count != want.Count {
				t.Fatalf("q%d policy %s: count %d, baseline %d", q, name, got.Count, want.Count)
			}
			if !got.Aggs[0].Equal(want.Aggs[0]) {
				t.Fatalf("q%d policy %s: agg %v vs %v", q, name, got.Aggs[0], want.Aggs[0])
			}
		}
	}
	// Adaptive should have skipped rows on this sorted column by now.
	meta := engines["adaptive"].SkipperMetadata()["a"]
	if meta.Kind != "adaptive" {
		t.Fatalf("meta=%+v", meta)
	}
}

func TestSkippingActuallySkips(t *testing.T) {
	tb := buildTable(t, 1000, 3)
	e := newEngine(t, tb, PolicyStatic)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.Between, 100, 199)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Fatalf("count=%d", res.Count)
	}
	if res.Stats.RowsSkipped == 0 || res.Stats.ZonesProbed == 0 {
		t.Fatalf("no skipping: %+v", res.Stats)
	}
	if res.Stats.RowsScanned+res.Stats.RowsSkipped+res.Stats.RowsCovered != 1000 {
		t.Fatalf("rows don't add up: %+v", res.Stats)
	}
}

func TestAggregates(t *testing.T) {
	tb := table.MustNew("t", testSchema())
	rows := []struct {
		a int64
		b interface{} // int64 or nil
		f float64
		s string
	}{
		{1, int64(10), 1.5, "x"},
		{2, nil, 2.5, "y"},
		{3, int64(30), 3.5, "z"},
		{4, int64(20), -1.0, "x"},
		{5, int64(50), 0.0, "a"},
	}
	for _, r := range rows {
		b := storage.NullValue(storage.Int64)
		if r.b != nil {
			b = storage.IntValue(r.b.(int64))
		}
		if err := tb.AppendRow(storage.IntValue(r.a), b, storage.FloatValue(r.f), storage.StringValue(r.s)); err != nil {
			t.Fatal(err)
		}
	}
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.GE, 2)),
		Aggs: []Agg{
			{Kind: CountStar},
			{Kind: CountCol, Col: "b"},
			{Kind: Sum, Col: "b"},
			{Kind: Avg, Col: "b"},
			{Kind: Min, Col: "f"},
			{Kind: Max, Col: "f"},
			{Kind: Min, Col: "s"},
			{Kind: Sum, Col: "f"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Value{
		storage.IntValue(4),                 // COUNT(*)
		storage.IntValue(3),                 // COUNT(b): null excluded
		storage.IntValue(100),               // SUM(b)=30+20+50
		storage.FloatValue(100.0 / 3.0),     // AVG(b)
		storage.FloatValue(-1.0),            // MIN(f)
		storage.FloatValue(3.5),             // MAX(f)
		storage.StringValue("a"),            // MIN(s)
		storage.FloatValue(2.5 + 3.5 - 1.0), // SUM(f)
	}
	for i, w := range want {
		if !res.Aggs[i].Equal(w) {
			t.Fatalf("agg %d: got %v want %v", i, res.Aggs[i], w)
		}
	}
}

func TestAggregatesEmptyResult(t *testing.T) {
	tb := buildTable(t, 100, 4)
	e := newEngine(t, tb, PolicyStatic)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.GT, 10_000)),
		Aggs:  []Agg{{Kind: CountStar}, {Kind: Sum, Col: "b"}, {Kind: Min, Col: "f"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || !res.Aggs[0].Equal(storage.IntValue(0)) {
		t.Fatalf("count: %v", res.Aggs[0])
	}
	if !res.Aggs[1].IsNull() || !res.Aggs[2].IsNull() {
		t.Fatalf("empty SUM/MIN should be NULL: %v %v", res.Aggs[1], res.Aggs[2])
	}
}

func TestUnsatisfiablePredicate(t *testing.T) {
	tb := buildTable(t, 100, 5)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.LT, 10), intPred("a", expr.GT, 50)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Stats.RowsScanned != 0 {
		t.Fatalf("contradiction scanned rows: %+v", res.Stats)
	}
}

func TestProjectionAndLimit(t *testing.T) {
	tb := buildTable(t, 200, 6)
	e := newEngine(t, tb, PolicyStatic)
	res, err := e.Query(Query{
		Where:  expr.And(intPred("a", expr.GE, 150)),
		Select: []string{"a", "s"},
		Limit:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Count != 10 {
		t.Fatalf("rows=%d count=%d", len(res.Rows), res.Count)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "s" {
		t.Fatalf("columns=%v", res.Columns)
	}
	// Rows come back in row order starting at the first match.
	if res.Rows[0][0].Int() != 150 || res.Rows[9][0].Int() != 159 {
		t.Fatalf("rows=%v..%v", res.Rows[0][0], res.Rows[9][0])
	}
	// No limit returns all matches.
	res, err = e.Query(Query{Where: expr.And(intPred("a", expr.GE, 150)), Select: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Fatalf("count=%d", res.Count)
	}
	if _, err := e.Query(Query{Limit: -1}); !errors.Is(err, ErrBadLimit) {
		t.Fatalf("negative limit: %v", err)
	}
}

// TestRowsCoveredSameForEveryShape checks that covered windows count
// toward RowsCovered alike for every result shape, and that a LIMITed
// projection counts only the covered rows it actually emitted.
func TestRowsCoveredSameForEveryShape(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}, {Name: "g", Type: storage.Int64}})
	for i := 0; i < 262144; i++ {
		if err := tb.AppendRow(storage.IntValue(int64(i)), storage.IntValue(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	e := New(tb, Options{Policy: PolicyStatic, StaticZoneSize: 4096})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	// Zones [12288,16384) .. [53248,57344) lie inside the range: 11 x 4096.
	where := expr.And(intPred("v", expr.Between, 10000, 60000))
	const covered = 45056
	shapes := map[string]Query{
		"count":      {Where: where, Aggs: []Agg{{Kind: CountStar}}},
		"sum":        {Where: where, Aggs: []Agg{{Kind: Sum, Col: "g"}}},
		"group by":   {Where: where, GroupBy: "g", Aggs: []Agg{{Kind: CountStar}}},
		"projection": {Where: where, Select: []string{"v"}},
		"order by":   {Where: where, Select: []string{"v"}, OrderBy: "g", Limit: 5},
	}
	for name, q := range shapes {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsCovered != covered {
			t.Errorf("%s: rows_covered=%d, want %d", name, res.Stats.RowsCovered, covered)
		}
	}
	// The first 2288 matches lie in the partial zone [8192,12288); a
	// LIMIT of 3000 then emits 712 rows of the first covered zone.
	res, err := e.Query(Query{Where: where, Select: []string{"v"}, Limit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsCovered != 712 {
		t.Fatalf("limited projection: rows_covered=%d, want 712", res.Stats.RowsCovered)
	}
}

func TestMultiColumnConjunction(t *testing.T) {
	tb := buildTable(t, 1000, 7)
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive, PolicyImprint} {
		e := newEngine(t, tb, policy)
		res, err := e.Query(Query{
			Where: expr.And(
				intPred("a", expr.Between, 100, 600),
				intPred("b", expr.LT, 500),
				expr.MustPred("s", expr.EQ, storage.StringValue("cat")),
			),
			Aggs: []Agg{{Kind: CountStar}},
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		// Naive reference.
		want := 0
		colA, _ := tb.Column("a")
		colB, _ := tb.Column("b")
		colS, _ := tb.Column("s")
		for i := 0; i < tb.NumRows(); i++ {
			if colA.Value(i).Int() < 100 || colA.Value(i).Int() > 600 {
				continue
			}
			if colB.IsNull(i) || colB.Value(i).Int() >= 500 {
				continue
			}
			if colS.Value(i).Str() != "cat" {
				continue
			}
			want++
		}
		if res.Count != want {
			t.Fatalf("%v: count=%d want %d", policy, res.Count, want)
		}
	}
}

func TestStringAndFloatPredicates(t *testing.T) {
	tb := buildTable(t, 500, 8)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where: expr.And(
			expr.MustPred("s", expr.Between, storage.StringValue("bee"), storage.StringValue("dog")),
			expr.MustPred("f", expr.GT, storage.FloatValue(0)),
		),
		Aggs: []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	colS, _ := tb.Column("s")
	colF, _ := tb.Column("f")
	want := 0
	for i := 0; i < 500; i++ {
		s := colS.Value(i).Str()
		if s >= "bee" && s <= "dog" && colF.Value(i).Float() > 0 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

func TestAppendsVisibleAndMetadataSynced(t *testing.T) {
	tb := buildTable(t, 300, 9)
	for _, policy := range []Policy{PolicyStatic, PolicyAdaptive} {
		e := newEngine(t, tb, policy)
		before, err := e.Query(Query{Where: expr.And(intPred("a", expr.GE, 0)), Aggs: []Agg{{Kind: CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		n0 := before.Count
		for i := 0; i < 50; i++ {
			err := e.AppendRow(storage.IntValue(int64(100000+i)), storage.IntValue(1),
				storage.FloatValue(1), storage.StringValue("ant"))
			if err != nil {
				t.Fatal(err)
			}
		}
		after, err := e.Query(Query{Where: expr.And(intPred("a", expr.GE, 0)), Aggs: []Agg{{Kind: CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		if after.Count != n0+50 {
			t.Fatalf("%v: appended rows invisible: %d vs %d", policy, after.Count, n0+50)
		}
		// Narrow query on the appended range.
		res, err := e.Query(Query{Where: expr.And(intPred("a", expr.GE, 100000)), Aggs: []Agg{{Kind: CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 50 {
			t.Fatalf("%v: appended range count=%d", policy, res.Count)
		}
		tb = buildTable(t, 300, 9) // fresh copy for next policy
	}
}

func TestAppendRowTypeError(t *testing.T) {
	tb := buildTable(t, 10, 10)
	e := newEngine(t, tb, PolicyStatic)
	err := e.AppendRow(storage.StringValue("wrong"), storage.IntValue(1), storage.FloatValue(1), storage.StringValue("x"))
	if !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("err=%v", err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("rejected row skewed the table: %v", err)
	}
	// Sealed dictionary: appending a new word must fail cleanly before any
	// column is written.
	err = e.AppendRow(storage.IntValue(1), storage.IntValue(1), storage.FloatValue(1), storage.StringValue("brand-new-word"))
	if err == nil {
		t.Fatal("new word after seal accepted")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("failed append skewed the table: %v", err)
	}
}

func TestUpdateKeepsResultsCorrect(t *testing.T) {
	tb := buildTable(t, 200, 11)
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive} {
		e := newEngine(t, tb, policy)
		// Warm adaptive metadata.
		for q := 0; q < 20; q++ {
			if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, int64(q*10), int64(q*10+5)))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Update("a", 50, storage.IntValue(999_999)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(Query{Where: expr.And(intPred("a", expr.EQ, 999_999)), Aggs: []Agg{{Kind: CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 {
			t.Fatalf("%v: updated row lost (count=%d)", policy, res.Count)
		}
		tb = buildTable(t, 200, 11)
	}
}

func TestUpdateErrors(t *testing.T) {
	tb := buildTable(t, 10, 12)
	e := newEngine(t, tb, PolicyStatic)
	if err := e.Update("nope", 0, storage.IntValue(1)); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing column: %v", err)
	}
	if err := e.Update("a", 99, storage.IntValue(1)); !errors.Is(err, table.ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := e.Update("a", 0, storage.NullValue(storage.Int64)); err == nil {
		t.Fatal("NULL update accepted")
	}
	if err := e.Update("s", 0, storage.StringValue("x")); err == nil {
		t.Fatal("string update accepted")
	}
}

func TestQueryValidationErrors(t *testing.T) {
	tb := buildTable(t, 10, 13)
	e := newEngine(t, tb, PolicyStatic)
	if _, err := e.Query(Query{Where: expr.And(intPred("missing", expr.EQ, 1))}); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing predicate column: %v", err)
	}
	if _, err := e.Query(Query{Select: []string{"missing"}}); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing projection column: %v", err)
	}
	if _, err := e.Query(Query{Aggs: []Agg{{Kind: Sum, Col: "s"}}}); !errors.Is(err, ErrUnsupportedAgg) {
		t.Fatalf("SUM over string: %v", err)
	}
	if _, err := e.Query(Query{Aggs: []Agg{{Kind: CountStar, Col: "a"}}}); !errors.Is(err, ErrUnsupportedAgg) {
		t.Fatalf("COUNT(*) with column: %v", err)
	}
	// Type mismatch in predicate.
	bad := expr.And(expr.MustPred("a", expr.EQ, storage.StringValue("x")))
	if _, err := e.Query(Query{Where: bad}); !errors.Is(err, expr.ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
}

func TestEmptyWhereMatchesAll(t *testing.T) {
	tb := buildTable(t, 77, 14)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{Aggs: []Agg{{Kind: CountStar}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 77 {
		t.Fatalf("count=%d", res.Count)
	}
}

func TestEnableSkippingErrors(t *testing.T) {
	tb := buildTable(t, 10, 15)
	e := New(tb, Options{Policy: PolicyStatic})
	if err := e.EnableSkipping("missing"); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("err=%v", err)
	}
	e2 := New(tb, Options{Policy: Policy(99)})
	if err := e2.EnableSkipping("a"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if e.Skipper("a") != nil {
		t.Fatal("skipper registered despite error path")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyNone.String() != "none" || PolicyStatic.String() != "static" || PolicyAdaptive.String() != "adaptive" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy renders empty")
	}
}

// The long-haul randomized equivalence test: across hundreds of random
// queries (mixed shapes), all three policies return identical results
// while appends and updates interleave.
func TestRandomizedPolicyEquivalence(t *testing.T) {
	tbs := []*table.Table{buildTable(t, 600, 21), buildTable(t, 600, 21), buildTable(t, 600, 21)}
	engines := []*Engine{
		newEngine(t, tbs[0], PolicyNone),
		newEngine(t, tbs[1], PolicyStatic),
		newEngine(t, tbs[2], PolicyAdaptive),
	}
	rng := rand.New(rand.NewSource(22))
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	for step := 0; step < 300; step++ {
		switch rng.Intn(12) {
		case 0: // append the same row everywhere
			vals := []storage.Value{
				storage.IntValue(rng.Int63n(2000)),
				storage.IntValue(rng.Int63n(1000)),
				storage.FloatValue(rng.NormFloat64() * 10),
				storage.StringValue(words[rng.Intn(len(words))]),
			}
			for _, e := range engines {
				if err := e.AppendRow(vals...); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // update the same cell everywhere
			row := rng.Intn(tbs[0].NumRows())
			v := storage.IntValue(rng.Int63n(5000))
			col := []string{"a", "b"}[rng.Intn(2)]
			for _, e := range engines {
				// Updating a null b cell is fine; engine handles NoteNonNull.
				if err := e.Update(col, row, v); err != nil {
					t.Fatal(err)
				}
			}
		default: // query
			var where expr.Conj
			switch rng.Intn(4) {
			case 0:
				lo := rng.Int63n(2000)
				where = expr.And(intPred("a", expr.Between, lo, lo+rng.Int63n(400)))
			case 1:
				where = expr.And(intPred("b", expr.GE, rng.Int63n(1000)))
			case 2:
				where = expr.And(
					intPred("a", expr.LT, rng.Int63n(2000)),
					expr.MustPred("s", expr.EQ, storage.StringValue(words[rng.Intn(len(words))])),
				)
			case 3:
				where = expr.And(expr.MustPred("f", expr.GT, storage.FloatValue(rng.NormFloat64()*20)))
			}
			q := Query{Where: where, Aggs: []Agg{{Kind: CountStar}, {Kind: Sum, Col: "b"}}}
			var base *Result
			for ei, e := range engines {
				got, err := e.Query(q)
				if err != nil {
					t.Fatalf("step %d engine %d: %v", step, ei, err)
				}
				if base == nil {
					base = got
					continue
				}
				if got.Count != base.Count || !got.Aggs[0].Equal(base.Aggs[0]) || !got.Aggs[1].Equal(base.Aggs[1]) {
					t.Fatalf("step %d engine %d diverged: count %d vs %d, aggs %v vs %v",
						step, ei, got.Count, base.Count, got.Aggs, base.Aggs)
				}
			}
		}
	}
}

func TestSkipperSnapshotRoundTrip(t *testing.T) {
	tb := buildTable(t, 1000, 40)
	e := newEngine(t, tb, PolicyAdaptive)
	// Train.
	for q := 0; q < 50; q++ {
		if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, int64(q*15), int64(q*15+30)))}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.SaveSkipper("a", &buf); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSkipper("missing", &bytes.Buffer{}); err == nil {
		t.Fatal("missing column accepted")
	}
	// A fresh engine over the same table restores the learned structure.
	e2 := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive()})
	if err := e2.LoadSkipper("a", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if e2.Skipper("a").Metadata().Zones != e.Skipper("a").Metadata().Zones {
		t.Fatalf("zones differ: %d vs %d",
			e2.Skipper("a").Metadata().Zones, e.Skipper("a").Metadata().Zones)
	}
	res, err := e2.Query(Query{
		Where: expr.And(intPred("a", expr.Between, 100, 200)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil || res.Count != 101 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
	if res.Stats.RowsSkipped == 0 {
		t.Fatal("restored skipper pruned nothing")
	}
}

func TestSkipperSnapshotRejectsStaleMetadata(t *testing.T) {
	tb := buildTable(t, 500, 41)
	e := newEngine(t, tb, PolicyAdaptive)
	for q := 0; q < 30; q++ {
		if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, int64(q*10), int64(q*10+20)))}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.SaveSkipper("a", &buf); err != nil {
		t.Fatal(err)
	}
	// Mutate the column so the snapshot's bounds become wrong.
	colA, _ := tb.Column("a")
	if err := colA.SetInt(10, 9_999_999); err != nil {
		t.Fatal(err)
	}
	e2 := New(tb, Options{Policy: PolicyAdaptive})
	if err := e2.LoadSkipper("a", bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("stale snapshot accepted")
	}
}

func TestSaveSkipperNonAdaptive(t *testing.T) {
	tb := buildTable(t, 100, 42)
	e := newEngine(t, tb, PolicyStatic)
	if err := e.SaveSkipper("a", &bytes.Buffer{}); err == nil {
		t.Fatal("static skipper snapshot accepted")
	}
}

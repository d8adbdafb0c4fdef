package engine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// equivOp is one step of the equivalence stream: a query, an append
// batch, or a cell update.
type equivOp struct {
	q      *Query
	append [][]storage.Value
	update *struct {
		col string
		row int
		val storage.Value
	}
}

const (
	equivRows    = 133000 // above 2*minRowsPerWorker, so Parallelism 4 fans out
	equivQueries = 2000
)

var equivWords = []string{"ant", "bee", "cat", "dog", "elk", "fox"}

// equivStream builds the seeded operation stream every configuration
// replays: mixed query shapes with AppendRows batches and Updates.
func equivStream() []equivOp {
	rng := rand.New(rand.NewSource(15))
	rows := equivRows
	aPred := func(maxWidth int64) expr.Pred {
		lo := rng.Int63n(int64(rows)+2000) - 1000
		switch rng.Intn(6) {
		case 0:
			return intPred("a", expr.LT, lo)
		case 1:
			return intPred("a", expr.GE, lo)
		case 2:
			return intPred("a", expr.In, lo, lo+7, lo+4096)
		case 3:
			return intPred("a", expr.Between, lo+10, lo) // empty interval
		default:
			return intPred("a", expr.Between, lo, lo+rng.Int63n(maxWidth))
		}
	}
	aRange := func(maxWidth int64) expr.Pred {
		lo := rng.Int63n(int64(rows))
		return intPred("a", expr.Between, lo, lo+rng.Int63n(maxWidth))
	}
	bPred := func() expr.Pred {
		switch rng.Intn(5) {
		case 0:
			return expr.MustPred("b", expr.IsNull)
		case 1:
			return expr.MustPred("b", expr.IsNotNull)
		case 2:
			return intPred("b", expr.EQ, rng.Int63n(1000))
		default:
			lo := rng.Int63n(1000)
			return intPred("b", expr.Between, lo, lo+rng.Int63n(400))
		}
	}
	fPred := func() expr.Pred {
		return expr.MustPred("f", expr.GT, storage.FloatValue(rng.NormFloat64()*50))
	}
	sPred := func() expr.Pred {
		return expr.MustPred("s", expr.In, storage.StringValue(equivWords[rng.Intn(6)]), storage.StringValue(equivWords[rng.Intn(6)]))
	}
	maybe := func(preds ...expr.Pred) expr.Conj {
		var keep []expr.Pred
		for i, p := range preds {
			if i == 0 || rng.Intn(2) == 0 {
				keep = append(keep, p)
			}
		}
		return expr.And(keep...)
	}

	var ops []equivOp
	for qi := 0; qi < equivQueries; qi++ {
		if qi%40 == 39 {
			batch := make([][]storage.Value, 500)
			for i := range batch {
				b := storage.Value(storage.IntValue(rng.Int63n(1000)))
				if rng.Intn(20) == 0 {
					b = storage.NullValue(storage.Int64)
				}
				batch[i] = []storage.Value{storage.IntValue(int64(rows + i)), b,
					storage.FloatValue(rng.NormFloat64() * 50), storage.StringValue(equivWords[rng.Intn(6)])}
			}
			rows += len(batch)
			ops = append(ops, equivOp{append: batch})
		}
		if qi%100 == 77 {
			for k := 0; k < 3; k++ {
				u := &struct {
					col string
					row int
					val storage.Value
				}{row: rng.Intn(rows)}
				switch k {
				case 0:
					u.col, u.val = "a", storage.IntValue(rng.Int63n(int64(rows)))
				case 1:
					u.col, u.val = "b", storage.IntValue(rng.Int63n(1000))
				default:
					u.col, u.val = "f", storage.FloatValue(rng.NormFloat64()*50)
				}
				ops = append(ops, equivOp{update: u})
			}
		}
		var q Query
		switch rng.Intn(14) {
		case 0, 1: // COUNT fast path on the sorted column
			q = Query{Where: expr.And(aPred(60000)), Aggs: []Agg{{Kind: CountStar}}}
		case 2: // COUNT fast path on the random column, IS NULL included
			q = Query{Where: expr.And(bPred()), Aggs: []Agg{{Kind: CountStar}}}
		case 3: // two-column COUNT
			q = Query{Where: expr.And(aPred(60000), bPred()), Aggs: []Agg{{Kind: CountStar}}}
		case 4: // aggregates over data
			q = Query{Where: maybe(aPred(60000), fPred()), Aggs: []Agg{
				{Kind: Sum, Col: "b"}, {Kind: Avg, Col: "f"}, {Kind: Min, Col: "a"},
				{Kind: Max, Col: "s"}, {Kind: CountCol, Col: "b"}, {Kind: CountStar}}}
		case 5: // aggregates with no WHERE, or over IS NULL
			if rng.Intn(2) == 0 {
				q = Query{Aggs: []Agg{{Kind: Sum, Col: "a"}, {Kind: CountStar}}}
			} else {
				q = Query{Where: maybe(expr.MustPred("b", expr.IsNull), aRange(40000)), Aggs: []Agg{{Kind: Max, Col: "f"}, {Kind: CountStar}}}
			}
		case 6: // GROUP BY
			q = Query{Where: maybe(aPred(30000), bPred()), GroupBy: "s", Select: []string{"s"},
				Aggs: []Agg{{Kind: CountStar}, {Kind: Sum, Col: "b"}, {Kind: Min, Col: "f"}}}
			if rng.Intn(3) == 0 {
				q.Limit = 1 + rng.Intn(4)
			}
		case 7, 8: // projection with LIMIT
			q = Query{Where: maybe(aPred(60000), bPred(), sPred()), Select: []string{"a", "b", "s"}, Limit: 1 + rng.Intn(60)}
		case 9: // projection without LIMIT
			q = Query{Where: maybe(aRange(400), bPred()), Select: []string{"a", "f"}}
		case 10, 11: // ORDER BY with LIMIT
			col := []string{"b", "f", "s", "a"}[rng.Intn(4)]
			q = Query{Where: maybe(aRange(4000), fPred()), Select: []string{"a", col}, OrderBy: col,
				OrderDesc: rng.Intn(2) == 0, Limit: 1 + rng.Intn(40)}
		case 12: // ORDER BY without LIMIT
			q = Query{Where: maybe(aRange(400), bPred()), Select: []string{"a", "b"}, OrderBy: "b", OrderDesc: rng.Intn(2) == 0}
		default: // IS NULL projection and count
			if rng.Intn(2) == 0 {
				q = Query{Where: expr.And(expr.MustPred("b", expr.IsNull), aRange(3000)), Select: []string{"a", "b"}}
			} else {
				q = Query{Where: expr.And(expr.MustPred("b", expr.IsNull), aRange(60000)), Aggs: []Agg{{Kind: CountStar}}}
			}
		}
		ops = append(ops, equivOp{q: &q})
	}
	return ops
}

// equivRun replays the stream on one engine per skipping policy at the
// given parallelism and renders the golden text: one line per query with
// the shared answer and each policy's pruning stats, then each policy's
// final zone detail and ledger.
func equivRun(t *testing.T, ops []equivOp, parallelism int) string {
	t.Helper()
	policies := []Policy{PolicyNone, PolicyStatic, PolicyAdaptive, PolicyImprint}
	engines := make([]*Engine, len(policies))
	for i, p := range policies {
		engines[i] = New(buildTable(t, equivRows, 7), Options{
			Policy: p, StaticZoneSize: 4096, Parallelism: parallelism,
			Adaptive: adaptive.Config{InitialZoneRows: 4096, MinZoneRows: 256, SplitParts: 4, Window: 16, MergeSweepEvery: 4},
		})
		if err := engines[i].EnableSkipping(); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	qi := 0
	for _, op := range ops {
		switch {
		case op.append != nil:
			for _, e := range engines {
				if err := e.AppendRows(op.append); err != nil {
					t.Fatal(err)
				}
			}
		case op.update != nil:
			for _, e := range engines {
				if err := e.Update(op.update.col, op.update.row, op.update.val); err != nil {
					t.Fatal(err)
				}
			}
		default:
			var answer string
			var stats []string
			for i, e := range engines {
				res, err := e.Query(*op.q)
				if err != nil {
					t.Fatalf("query %d (%+v) policy %v: %v", qi, *op.q, policies[i], err)
				}
				a := fmt.Sprintf("c=%d a=%v r=%s", res.Count, res.Aggs, rowsDigest(res.Rows))
				if i == 0 {
					answer = a
				} else if a != answer {
					t.Fatalf("query %d (%+v): policy %v answered %s, none answered %s", qi, *op.q, policies[i], a, answer)
				}
				stats = append(stats, fmt.Sprintf("%v=%d/%d/%d", policies[i],
					res.Stats.RowsScanned, res.Stats.RowsSkipped, res.Stats.ZonesProbed))
			}
			fmt.Fprintf(&out, "%d %s %s\n", qi, answer, strings.Join(stats, " "))
			qi++
		}
	}
	for i, e := range engines {
		fmt.Fprintf(&out, "== %v\n", policies[i])
		for _, c := range e.Skipmap(0).Columns {
			fmt.Fprintf(&out, "col %s kind=%s zones=%d enabled=%v\n", c.Column, c.Kind, c.Zones, c.Enabled)
			for _, z := range c.ZoneDetail {
				fmt.Fprintf(&out, "  [%d,%d) %d..%d nn=%d heat=%v hits=%d misses=%d\n",
					z.Lo, z.Hi, z.Min, z.Max, z.NonNull, z.Heat, z.Hits, z.Misses)
			}
		}
		// Appends reach the skippers in map order, so records are
		// grouped per column (in order) and printed without their
		// table-wide sequence number or timestamp.
		recs := e.Ledger().Records()
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Column < recs[j].Column })
		for _, r := range recs {
			fmt.Fprintf(&out, "%s %s cause=%s zones %d->%d rows [%d,%d) bounds [%d,%d]->[%d,%d] fp=%q\n",
				r.Column, r.Kind, r.Cause, r.ZonesBefore, r.ZonesAfter, r.RowLo, r.RowHi,
				r.MinBefore, r.MaxBefore, r.MinAfter, r.MaxAfter, r.Fingerprint)
		}
	}
	return out.String()
}

// rowsDigest renders a result's rows as "count:fnv64".
func rowsDigest(rows [][]storage.Value) string {
	h := fnv.New64a()
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(h, "%v|", v)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%016x", len(rows), h.Sum64())
}

// TestExecEquivalenceGolden pins what the executor computes — answers,
// pruning stats, the adaptive structure it learns and the ledger it
// writes — over a seeded stream of every query shape with appends and
// updates mixed in, under every skipping policy, serial and parallel.
// Parallelism must not change a single line. Regenerate with -update
// only when the executor's observable behaviour is meant to change.
func TestExecEquivalenceGolden(t *testing.T) {
	path := filepath.Join("testdata", "exec_equivalence.golden")
	ops := equivStream()
	for _, par := range []int{1, 4} {
		got := equivRun(t, ops, par)
		if *updateGolden && par == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("parallelism %d: golden line %d differs\n got: %s\nwant: %s", par, i+1, g, w)
			}
		}
	}
}

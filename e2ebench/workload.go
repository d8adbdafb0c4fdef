package main

import (
	"fmt"
	"math"
	"math/rand"

	"adskip/internal/workload"
)

// shape is one of the three query templates every workload draws from.
type shape uint8

const (
	shapeCount shape = iota // SELECT COUNT(*) ... WHERE v BETWEEN
	shapeSum                // SELECT SUM(seq) ... WHERE v BETWEEN
	shapeTop                // SELECT v ... WHERE v BETWEEN ... ORDER BY v LIMIT topK
)

const topK = 10

// query is one generated request: a template shape over v BETWEEN lo AND hi.
type query struct {
	shape  shape
	lo, hi int64
}

func (q query) sql() string {
	switch q.shape {
	case shapeCount:
		return fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", q.lo, q.hi)
	case shapeSum:
		return fmt.Sprintf("SELECT SUM(seq) FROM data WHERE v BETWEEN %d AND %d", q.lo, q.hi)
	default:
		return fmt.Sprintf("SELECT v FROM data WHERE v BETWEEN %d AND %d ORDER BY v LIMIT %d", q.lo, q.hi, topK)
	}
}

// spec fixes one workload. Request counts are fixed per run — derived from
// --seconds through the per-second rates below, never from elapsed time —
// so both commits of a comparison end with the same adaptive state and the
// same table size, and a slower writer cannot shrink the table it is
// measured on. The rates approximate what the seed commit sustains on a
// 2-core host, so a window lasts about --seconds there (twice that on
// scan-uniform).
type spec struct {
	name string

	rows     int
	dist     workload.Distribution
	clusters int  // Clustered: contiguous bands (0 = generator default)
	shards   int  // range shards on v; 0 = unsharded
	durable  bool // WAL armed with fsync in a fresh directory

	readers   int  // reader connections
	templates int  // > 0: Zipf(1.2) over this many fixed templates; 0: fresh literals
	newest    bool // every other range covers recently inserted keys

	queriesPerSec int // window queries per --seconds second, all readers together
	warmQueries   int // fixed warm-up queries, all readers together

	batchesPerSec int // window insert batches per --seconds second (concurrent writer)
	warmBatches   int // warm-up insert batches (concurrent writer)
	tailBatches   int // insert batches after the query window (read-only workloads)
}

// insertBatch is the rows per insert request.
const insertBatch = 64

// zipfS is the template skew: Exploiting Data Skew motivates a skewed mix.
const zipfS = 1.2

var specs = []spec{
	{
		// Skipping prunes ~99% and the statement cache always hits, so
		// probes, adaptation, fixed overhead and the wire dominate.
		name: "skip-zipf",
		// 16384-row bands: a 64k-row initial zone spans four bands, so
		// the first queries split zones and warm-up pays for adaptive
		// convergence. With 1024-row bands convergence is seed-dependent
		// (README.md), which no steady benchmark can be built on.
		rows: 4 << 20, dist: workload.Clustered, clusters: 256,
		readers: 1, templates: 64,
		queriesPerSec: 1200, warmQueries: 4000,
		tailBatches: 5000,
	},
	{
		// Arbitration turns skipping off: the scan kernels and two readers
		// queueing on one engine mutex do the work. The window is twice
		// --seconds long, to average over more of a shared host's drift
		// in scan speed.
		name: "scan-uniform",
		rows: 1 << 20, dist: workload.Uniform,
		readers: 2, templates: 64,
		queriesPerSec: 400, warmQueries: 400,
		tailBatches: 5000,
	},
	{
		// The only workload driving wal, shard, parse/plan and the
		// durable append path.
		name: "ingest-sharded",
		rows: 1 << 20, dist: workload.SemiSorted,
		shards: 4, durable: true,
		readers: 1, newest: true,
		queriesPerSec: 5000, warmQueries: 10000,
		batchesPerSec: 300, warmBatches: 600,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// domain is the base value domain: base v lies in [0, domain) and the k-th
// inserted row carries v = domain+k, like timestamps arriving in order.
func (s spec) domain() int64 { return int64(s.rows) }

// width is a query range's width: 1% of the base domain for COUNT and SUM.
// ORDER BY sorts every match before applying its LIMIT, which at 1% costs
// about 25 ms on skip-zipf and would be most of that workload's time, so
// its ranges are ten times narrower: the sort is exercised without
// drowning the probe, upkeep and wire costs the workloads exist to measure.
func (s spec) width(sh shape) int64 {
	if sh == shapeTop {
		return s.domain() / 1000
	}
	return s.domain() / 100
}

// plan is the deterministic request plan of one run: the counts of every
// phase and each reader's query stream.
type plan struct {
	warm, window [][]query // per reader
	warmBatches  int
	batches      int // window insert batches
	tailBatches  int
}

// base is the generated base table: v is the column under test, seq the
// row number, noise a never-skippable double.
type base struct {
	v     []int64
	noise []float64
}

// genBase generates the base rows from the seed.
func genBase(s spec, seed int64) base {
	v := workload.Generate(workload.DataSpec{N: s.rows, Dist: s.dist, Domain: s.domain(), Clusters: s.clusters, Seed: seed})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	noise := make([]float64, s.rows)
	for i := range noise {
		noise[i] = rng.Float64() * 1000
	}
	return base{v: v, noise: noise}
}

// insertedRow is the k-th inserted row of a run: keys continue past the
// base domain in arrival order.
func insertedRow(s spec, k int64) (v, seq int64, noise float64) {
	return s.domain() + k, int64(s.rows) + k, float64(k%1000) + 0.5
}

// makePlan derives every request of a run from the seed and --seconds.
func makePlan(s spec, seed int64, seconds int) plan {
	p := plan{
		warmBatches: s.warmBatches,
		batches:     s.batchesPerSec * seconds,
		tailBatches: s.tailBatches,
	}
	windowQueries := s.queriesPerSec * seconds
	p.warm = make([][]query, s.readers)
	p.window = make([][]query, s.readers)
	if s.templates > 0 {
		tmpl := templates(s, seed)
		for r := 0; r < s.readers; r++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(r) + 1))
			p.warm[r] = zipfStream(rng, tmpl, share(s.warmQueries, s.readers, r))
			p.window[r] = zipfStream(rng, tmpl, share(windowQueries, s.readers, r))
		}
		return p
	}
	// Fresh literals: no two queries of the run share SQL text, so the
	// statement cache never hits. Shapes rotate and, on workloads with
	// arrivals, every other query covers the newest keys, so seeds move
	// the ranges but not the mix.
	rng := rand.New(rand.NewSource(seed*31 + 1))
	seen := make(map[query]bool)
	fresh := func(n int, insertedFrom, insertedTo int64) []query {
		qs := make([]query, n)
		for i := range qs {
			q := query{shape: shape(i % 3)}
			if s.newest && i%2 == 1 {
				// The range ends at half the writer's expected progress
				// at this point of the phase, so its keys are recent yet
				// already written even when the reader runs ahead.
				// Ranges past the head would be empty and cheap, letting
				// a reader that got ahead race further ahead.
				head := insertedFrom + (insertedTo-insertedFrom)*int64(i)/int64(2*n)
				q.lo = max(s.domain()+head-s.width(q.shape), 0)
			} else {
				q.lo = rng.Int63n(s.domain() - s.width(q.shape))
			}
			for seen[query{shape: q.shape, lo: q.lo}] {
				q.lo++
			}
			seen[query{shape: q.shape, lo: q.lo}] = true
			q.hi = q.lo + s.width(q.shape) - 1
			qs[i] = q
		}
		return qs
	}
	warmRows := int64(p.warmBatches) * insertBatch
	p.warm[0] = fresh(s.warmQueries, 0, warmRows)
	p.window[0] = fresh(windowQueries, warmRows, warmRows+int64(p.batches)*insertBatch)
	return p
}

// templates draws the fixed template pool: shapes in rotation by Zipf
// rank, each over a random range of the base keys. The rotation starts at
// SUM so the hottest template is a SUM: the median request then falls in
// the middle of one shape's latencies, not on the edge between two, where
// it would swing with every seed.
func templates(s spec, seed int64) []query {
	rng := rand.New(rand.NewSource(seed*17 + 3))
	ts := make([]query, s.templates)
	for i := range ts {
		sh := []shape{shapeSum, shapeTop, shapeCount}[i%3]
		lo := rng.Int63n(s.domain() - s.width(sh))
		ts[i] = query{shape: sh, lo: lo, hi: lo + s.width(sh) - 1}
	}
	return ts
}

// zipfStream draws n queries over the templates with Zipf(zipfS) weights
// (1+rank)^-s. The draw is stratified — each template appears its expected
// number of times, rounded, in a seeded random order — so seeds change which
// ranges are hot and in what order, but not how the load splits over the
// ranks.
func zipfStream(rng *rand.Rand, tmpl []query, n int) []query {
	w := make([]float64, len(tmpl))
	var total float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		total += w[r]
	}
	qs := make([]query, 0, n)
	var cum float64
	for r, t := range tmpl {
		cum += w[r]
		for k := int(math.Round(cum / total * float64(n))); len(qs) < k; {
			qs = append(qs, t)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// share splits n requests over k readers; reader r gets its share.
func share(n, k, r int) int {
	m := n / k
	if r < n%k {
		m++
	}
	return m
}

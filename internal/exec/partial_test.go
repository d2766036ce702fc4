package exec

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kaskade/internal/graph"
)

// partialAggQueries are aggregate shapes over every accumulator:
// COUNT/COUNT(*), MIN/MAX over arbitrary comparables, integer SUM, and
// SUM/AVG over float-valued expressions.
var partialAggQueries = []string{
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, COUNT(f) AS nfiles`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (j:Job) RETURN MIN(j.CPU) AS lo, MAX(j.CPU) AS hi`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, MIN(f.name) AS first, COUNT(*) AS n`,
	`MATCH (a:Job)-[r*1..3]->(v) RETURN a, SUM(LENGTH(r)) AS hops, COUNT(*) AS n`,
	`MATCH (j:Job) RETURN MAX(ID(j)) AS maxid, SUM(ID(j)) AS sumid`,
	`MATCH (j:Job) WHERE j.CPU > 1000 RETURN COUNT(*) AS n, MIN(j.CPU) AS lo`,
	`MATCH (j:Job) RETURN LABEL(j) AS kind, SUM(2*ID(j) + 1) AS s, MAX(j.name) AS last`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, SUM(j.CPU / 3.0) AS s, AVG(j.CPU) AS a`,
	`MATCH (a:Job)-[r*1..3]->(v) RETURN a, AVG(LENGTH(r)) AS hops, SUM(ID(v) * 0.1) AS w`,
}

// TestPartialAggMatchesSeqOnLineage: for every aggregate shape,
// sequential and parallel execution must agree byte for byte (rows,
// group order, float bits) at every worker count, streamed or
// buffered.
func TestPartialAggMatchesSeqOnLineage(t *testing.T) {
	g, _ := lineage(t)
	for _, src := range partialAggQueries {
		seq := runWorkers(t, g, src, 1)
		for _, workers := range []int{2, 4, 8, -1} {
			assertSameResult(t, src, seq, runWorkers(t, g, src, workers), workers)
		}
		// The streaming cursor consumes the same partial-merge core.
		for _, workers := range []int{1, 4} {
			streamed, err := streamWorkers(t, g, src, workers)
			if err != nil {
				t.Fatalf("stream(%q, workers=%d): %v", src, workers, err)
			}
			assertSameResult(t, src, seq, streamed, workers)
		}
	}
}

// partialDatasetQueries are aggregate shapes per synthetic dataset
// (schema-appropriate), run on randomized graphs.
var partialDatasetQueries = map[string][]string{
	"prov": {
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, COUNT(f) AS n, MAX(f.size) AS biggest`,
		`MATCH (v) RETURN LABEL(v) AS kind, COUNT(*) AS n, MIN(ID(v)) AS first`,
		`MATCH (j:Job)-[r*1..2]->(v) RETURN j, SUM(LENGTH(r)) AS hops`,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, SUM(f.size / 7.0) AS s, AVG(f.size) AS a`,
	},
	"dblp": {
		`MATCH (p:Paper)-[:PUBLISHED_IN]->(v:Venue) RETURN v, COUNT(p) AS papers, MIN(p.year) AS oldest`,
		`MATCH (a:Author)-[r*2..2]->(b:Author) RETURN COUNT(r) AS n`,
		`MATCH (p:Paper)-[:PUBLISHED_IN]->(v:Venue) RETURN v, AVG(p.year) AS meanyear, SUM(p.year * 0.001) AS s`,
	},
	"roadnet": {
		`MATCH (a)-[r*1..2]->(b) RETURN COUNT(r) AS n, MAX(LENGTH(r)) AS longest`,
		`MATCH (a)-[r*1..2]->(b) RETURN AVG(ID(b) / 3.0) AS a`,
	},
	"soc": {
		`MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a, COUNT(b) AS out, MAX(ID(b)) AS hub`,
		`MATCH (a)-[r*1..2]->(b) RETURN SUM(LENGTH(r)) AS hops, COUNT(*) AS n`,
		`MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a, AVG(ID(b) * 1.1) AS avg`,
	},
}

// TestPartialAggMatchesSeqOnDatagen repeats the seq-vs-parallel
// equivalence on randomized skewed, cyclic, and grid-shaped data.
func TestPartialAggMatchesSeqOnDatagen(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		graphs := datagenGraphs(t, seed)
		for name, g := range graphs {
			for _, src := range partialDatasetQueries[name] {
				seq := runWorkers(t, g, src, 1)
				assertSameResult(t, src, seq, runWorkers(t, g, src, 4), 4)
			}
		}
	}
}

// TestPartialAggFloatSumOrderIndependent: SUM and AVG over one multiset
// inserted in two orders return the exact answer (s = 1, a = 1/3) in
// both, sequentially and in parallel. Naive left-to-right float
// addition gives 0 for the first order and 1 for the second.
func TestPartialAggFloatSumOrderIndependent(t *testing.T) {
	const src = `SELECT SUM(x) AS s, AVG(x) AS a FROM (MATCH (v:V) RETURN v.x AS x)`
	for _, xs := range [][]float64{{1e17, 1, -1e17}, {1e17, -1e17, 1}} {
		g := graph.NewGraph(nil)
		for _, x := range xs {
			g.MustAddVertex("V", graph.Properties{"x": x})
		}
		for _, workers := range []int{1, 4} {
			res := runWorkers(t, g, src, workers)
			if s, a := res.Rows[0][0], res.Rows[0][1]; s != 1.0 || a != 1.0/3 {
				t.Errorf("rows %v workers=%d: s, a = %v, %v; want 1, 1/3", xs, workers, s, a)
			}
		}
	}
}

// TestPartialAggFloatBitsAcrossWorkers: grouped float SUM/AVG over
// random magnitudes and signs returns identical bits at every worker
// count and through the streaming cursor.
func TestPartialAggFloatBitsAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.NewGraph(nil)
	for i := 0; i < 500; i++ {
		x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
		g.MustAddVertex("V", graph.Properties{"g": int64(i % 7), "x": x})
	}
	const src = `MATCH (v:V) RETURN v.g AS g, SUM(v.x) AS s, AVG(v.x) AS a`
	bitsOf := func(res *Result) [][3]uint64 {
		out := make([][3]uint64, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = [3]uint64{uint64(row[0].(int64)), math.Float64bits(row[1].(float64)), math.Float64bits(row[2].(float64))}
		}
		return out
	}
	want := bitsOf(runWorkers(t, g, src, 1))
	for _, workers := range []int{1, 2, 4, 8} {
		if got := bitsOf(runWorkers(t, g, src, workers)); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: bits %x, want %x", workers, got, want)
		}
		streamed, err := streamWorkers(t, g, src, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsOf(streamed); !reflect.DeepEqual(got, want) {
			t.Errorf("stream workers=%d: bits %x, want %x", workers, got, want)
		}
	}
}

// TestPartialAggRowLimitShadowsLaterEvalError is the partial-mode
// counterpart of TestParallelRowLimitShadowsLaterEvalError: the limit
// gate must trip at the exact global yield position — before the
// aggregate-argument evaluation one worker never reaches —
// even though the chunk only ships an event count, not per-yield
// entries.
func TestPartialAggRowLimitShadowsLaterEvalError(t *testing.T) {
	g := graph.NewGraph(nil)
	for i := 0; i < 5; i++ {
		j := g.MustAddVertex("Job", nil)
		var v any = "s"
		if i == 4 {
			v = int64(7) // 5th row: LENGTH(int64) is an eval error
		}
		f := g.MustAddVertex("File", graph.Properties{"v": v})
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(LENGTH(f.v)) AS s`)
	for _, workers := range []int{1, 2, 8, -1} {
		// Limit before the bad row: both paths must say ErrRowLimit.
		ex := &Executor{G: g, MaxRows: 4, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d MaxRows=4: got %v, want ErrRowLimit", workers, err)
		}
		// No limit: both paths must surface the evaluation error.
		ex = &Executor{G: g, Workers: workers}
		if _, err := ex.Execute(q); err == nil || err == ErrRowLimit {
			t.Errorf("workers=%d no limit: got %v, want eval error", workers, err)
		}
	}
}

// TestPartialAggEmptyMatch: zero-row aggregation still yields the
// single conventional row (COUNT 0, MIN nil) through the partial merge.
func TestPartialAggEmptyMatch(t *testing.T) {
	g, _ := lineage(t)
	src := `MATCH (j:Job) WHERE j.CPU > 100000 RETURN COUNT(*) AS n, MIN(j.CPU) AS lo`
	for _, workers := range []int{1, 4} {
		res := runWorkers(t, g, src, workers)
		if len(res.Rows) != 1 {
			t.Fatalf("workers=%d: %d rows, want 1", workers, len(res.Rows))
		}
		if res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
			t.Errorf("workers=%d: row = %v, want [0 <nil>]", workers, res.Rows[0])
		}
	}
}

// TestPartialAggMinMaxIgnoresNaN: a NaN property landing at a chunk
// boundary must not poison MIN/MAX — compareValues ties NaN with
// everything, so a chunk-local fold that kept a first-seen NaN would
// discard that chunk's true extremum at merge time. MIN/MAX ignore NaN
// (like nil), keeping the fold associative and all paths identical.
func TestPartialAggMinMaxIgnoresNaN(t *testing.T) {
	g := graph.NewGraph(nil)
	const n = 200
	for i := 0; i < n; i++ {
		x := float64(i + 10)
		switch i {
		case 148:
			x = math.NaN() // likely a chunk-start position at workers=4
		case 149:
			x = 100000 // the true max, right behind the NaN
		}
		g.MustAddVertex("V", graph.Properties{"x": x})
	}
	src := `MATCH (a:V) RETURN MAX(a.x) AS hi, MIN(a.x) AS lo`
	seq := runWorkers(t, g, src, 1)
	if seq.Rows[0][0] != float64(100000) || seq.Rows[0][1] != float64(10) {
		t.Fatalf("sequential row = %v, want [100000 10]", seq.Rows[0])
	}
	for _, workers := range []int{2, 4, 8, -1} {
		assertSameResult(t, src, seq, runWorkers(t, g, src, workers), workers)
	}
}

// explosiveGraph is denseGraph without the cheap detached prefix: the
// very first candidate vertex sits inside the dense component, so a
// merge that released a chunk's rows only at chunk completion could not
// produce a first row within any reasonable time.
func explosiveGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(nil)
	const n = 24
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = g.MustAddVertex("V", graph.Properties{"i": int64(i)})
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 6; d++ {
			g.MustAddEdge(ids[i], ids[(i+d)%n], "E", nil)
		}
	}
	return g
}

// TestStreamFirstRowBeforePartitionCompletes pins eager prefix
// streaming under workers>1: chunk 0's rows must release as they are
// produced, not when the chunk completes. Chunk 0 here is an explosive
// match whose full enumeration is combinatorially out of reach, so the
// first row arriving at all proves it arrived while the partition was
// still running.
func TestStreamFirstRowBeforePartitionCompletes(t *testing.T) {
	g := explosiveGraph(t)
	q := mustParse(t, `MATCH (a:V)-[r*1..12]->(b:V) RETURN a, b`)
	for _, workers := range []int{2, 4} {
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if !rows.Next() {
			t.Fatalf("workers=%d: no first row: %v", workers, rows.Err())
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("workers=%d: first row took %s", workers, elapsed)
		}
		// Drain a few more to show the prefix keeps flowing, then abort
		// the still-running partition.
		for i := 0; i < 10 && rows.Next(); i++ {
		}
		if err := rows.Close(); err != nil {
			t.Errorf("workers=%d: Close = %v", workers, err)
		}
	}
}

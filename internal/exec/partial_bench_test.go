package exec

import (
	"fmt"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// The BenchmarkPartialAgg* family measures what the chunked schedule's
// aggregation costs over one worker: on a single-CPU host, workers=N
// cannot beat one worker walking the candidates inline, so any gap
// between "w1" and the partial variants is pure coordination cost. The
// chunked schedule folds yields into per-chunk accumulators as they
// happen and must stay within a few percent of "w1". On multi-core
// hosts the same variants show the speedup instead.

func partialBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		Users: 600, Edges: 6000, Exponent: 2.3, MaxDegree: 80, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchAggVariants runs src on one worker, then on the chunked schedule
// at each larger worker count.
func benchAggVariants(b *testing.B, src string) {
	g := partialBenchGraph(b)
	q := mustParse(b, src)
	run := func(ex *Executor) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("w1", run(&Executor{G: g, Workers: 1}))
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("partial/w%d", workers), run(&Executor{G: g, Workers: workers}))
	}
}

// BenchmarkPartialAggCount: grouped COUNT over a skewed social graph.
func BenchmarkPartialAggCount(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, COUNT(b) AS n`)
}

// BenchmarkPartialAggMinMax: MIN/MAX over vertex properties, grouped.
func BenchmarkPartialAggMinMax(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, MIN(ID(b)) AS lo, MAX(ID(b)) AS hi`)
}

// BenchmarkPartialAggSumInt: SUM over an integer expression (path
// length) on variable-length matches.
func BenchmarkPartialAggSumInt(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[r*1..2]->(b:User) RETURN a AS u, SUM(LENGTH(r)) AS hops`)
}

// BenchmarkPartialAggAvg: grouped AVG, whose exact running sum merges
// per chunk like every other accumulator.
func BenchmarkPartialAggAvg(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, AVG(ID(b)) AS avg`)
}

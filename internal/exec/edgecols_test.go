package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"kaskade/internal/graph"
)

// edgeTSGraph is a lineage DAG whose WRITES_TO edges declare an int64
// ts and sometimes carry an undeclared "w", while IS_READ_BY leaves ts
// undeclared: an int64 on most edges, a float64 on every fifth, absent
// on every seventh. Many int64s of both types lie beyond 2^53, where
// float64 comparison ties. A PATH_* fold over it mixes column ints, map
// ints and map floats along one path.
type edgeTSGraph struct {
	g      *graph.Graph
	rng    *rand.Rand
	jobs   []graph.VertexID
	nextTS int64
}

func newEdgeTSGraph(t *testing.T, seed int64) *edgeTSGraph {
	t.Helper()
	s := declaredSchema(t)
	if err := s.DeclareProperty("WRITES_TO", "ts", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	b := &edgeTSGraph{g: graph.NewGraph(s), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 10; i++ {
		b.jobs = append(b.jobs, b.g.MustAddVertex("Job", graph.Properties{"CPU": int64(i)}))
	}
	b.addFiles(16)
	return b
}

// addFiles adds n files, each written by one job and read by up to
// three later jobs.
func (b *edgeTSGraph) addFiles(n int) {
	for i := 0; i < n; i++ {
		w := b.rng.Intn(len(b.jobs) - 1)
		f := b.g.MustAddVertex("File", nil)
		b.nextTS++
		ts := b.nextTS
		if ts%2 == 0 {
			ts += 1 << 60
		}
		props := graph.Properties{"ts": ts}
		if ts%3 == 0 {
			props["w"] = float64(ts) / 4
		}
		b.g.MustAddEdge(b.jobs[w], f, "WRITES_TO", props)
		for r := 0; r <= b.rng.Intn(3); r++ {
			reader := w + 1 + b.rng.Intn(len(b.jobs)-w-1)
			b.nextTS++
			var rp graph.Properties
			switch {
			case b.nextTS%7 == 0:
			case b.nextTS%5 == 0:
				rp = graph.Properties{"ts": float64(b.nextTS) + 0.5}
			case b.nextTS%3 == 0:
				rp = graph.Properties{"ts": b.nextTS + 1<<60}
			default:
				rp = graph.Properties{"ts": b.nextTS}
			}
			b.g.MustAddEdge(f, b.jobs[reader], "IS_READ_BY", rp)
		}
	}
}

// edgeColumnQueries read edge properties in WHERE, RETURN, aggregates
// and the PATH_* folds over paths and single edges.
var edgeColumnQueries = []string{
	`MATCH (j:Job)-[e:WRITES_TO]->(f:File) WHERE e.ts >= 5 RETURN ID(j) AS j, ID(f) AS f, e.ts AS ts, e.w AS w`,
	`MATCH (a)-[e]->(b) WHERE e.ts <> 7 RETURN ID(e) AS id, TYPE(e) AS t, e.ts AS ts`,
	`MATCH (a)-[e]->(b) RETURN TYPE(e) AS t, COUNT(e) AS n, SUM(e.ts) AS s, MAX(e.ts) AS m, MIN(e.ts) AS lo`,
	`MATCH (a:Job)-[r*1..4]->(b) RETURN ID(a) AS a, ID(b) AS b, PATH_MAX(r, 'ts') AS mx, PATH_MIN(r, 'ts') AS mn, PATH_SUM(r, 'ts') AS s`,
	`MATCH (a:Job)-[r:WRITES_TO*1..1]->(b) RETURN ID(b) AS b, PATH_SUM(r, 'ts') AS s, PATH_MAX(r, 'w') AS w`,
	`MATCH (a:Job)-[e:WRITES_TO]->(f:File) RETURN ID(e) AS id, PATH_SUM(e, 'ts') AS s, PATH_MIN(e, 'ts') AS m`,
}

// TestEdgeColumnsMatchMap is the edge-column oracle: every edge
// property read — WHERE, RETURN, aggregates, PATH_MAX/MIN/SUM — over
// the declared graph matches the undeclared twin, whose edges keep
// every value in their maps, at workers 1 and 4; on the loaded graph,
// with edges added to the delta tail after a freeze, and after the
// tail folds.
func TestEdgeColumnsMatchMap(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		b := newEdgeTSGraph(t, seed)
		check := func(phase string) {
			t.Helper()
			twin := undeclaredTwin(b.g)
			for _, src := range edgeColumnQueries {
				t.Run(fmt.Sprintf("seed=%d/%s", seed, phase), func(t *testing.T) {
					assertColumnsMatchMap(t, b.g, twin, src)
				})
			}
		}
		check("loaded")
		b.g.SetCompactionThreshold(1 << 20)
		b.g.Freeze()
		b.addFiles(8)
		if _, te := b.g.CachedFrozen().TailSize(); te == 0 {
			t.Fatal("no tail edges")
		}
		check("tail")
		if err := b.g.Compact(); err != nil {
			t.Fatal(err)
		}
		check("compacted")
	}
}

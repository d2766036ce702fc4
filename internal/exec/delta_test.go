package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// renderResult flattens a result to strings, so results computed on
// distinct graph instances — whose VertexRefs embed different graph
// pointers and so never reflect.DeepEqual — can be compared for
// byte-identity of content and order.
func renderResult(res *Result) []string {
	out := make([]string, 0, len(res.Rows)+1)
	out = append(out, fmt.Sprint(res.Cols))
	for _, r := range res.Rows {
		out = append(out, fmt.Sprint(r))
	}
	return out
}

// assertSameRendered is assertSameResult across graph instances.
func assertSameRendered(t *testing.T, src string, want, got *Result, workers int) {
	t.Helper()
	a, b := renderResult(want), renderResult(got)
	if len(a) != len(b) {
		t.Fatalf("query %q workers=%d: %d rendered rows != %d", src, workers, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %q workers=%d: row %d = %s, want %s", src, workers, i, b[i], a[i])
		}
	}
}

// compactEveryMutation freezes g with a compaction threshold of one, so
// every later mutation folds a fresh base CSR: the snapshot a refreeze
// after each mutation would build. It is the reference twin the overlay
// suites compare a tail-carrying snapshot against.
func compactEveryMutation(g *graph.Graph) {
	g.SetCompactionThreshold(1)
	g.Freeze()
}

// assertRefrozen fails unless g's snapshot was rebuilt and carries no
// tail, i.e. the twin really is a compact-every-mutation reference.
func assertRefrozen(t *testing.T, g *graph.Graph) {
	t.Helper()
	if f := g.CachedFrozen(); f == nil {
		t.Fatal("reference twin lost its snapshot")
	} else if tv, te := f.TailSize(); tv+te != 0 || g.Compactions() == 0 {
		t.Fatalf("reference twin did not compact: tail (%d, %d), %d compactions", tv, te, g.Compactions())
	}
}

// TestDeltaOverlayMatchesRefreezeOnLineage is the delta-overlay
// equivalence suite over every query shape: a graph mutating on
// overlay storage (tail merged behind the frozen accessors) must
// produce byte-identical results, sequential and parallel, to a twin
// that compacts after every mutation.
func TestDeltaOverlayMatchesRefreezeOnLineage(t *testing.T) {
	gOv, idsOv := lineage(t)
	gRf, idsRf := lineage(t)
	gOv.Freeze()
	compactEveryMutation(gRf)
	mutate := func(g *graph.Graph, ids map[string]graph.VertexID, round int) {
		j := g.MustAddVertex("Job", graph.Properties{
			"name": fmt.Sprintf("jx%d", round), "CPU": int64(40 + round), "pipelineName": "px",
		})
		f := g.MustAddVertex("File", graph.Properties{"name": fmt.Sprintf("fx%d", round)})
		g.MustAddEdge(j, f, "WRITES_TO", nil)
		g.MustAddEdge(f, ids["j1"], "IS_READ_BY", nil)
		g.MustAddEdge(ids["j2"], f, "WRITES_TO", nil)
	}
	for round := 0; round < 3; round++ {
		mutate(gOv, idsOv, round)
		mutate(gRf, idsRf, round)
		if gOv.CachedFrozen() == nil {
			t.Fatal("overlay graph lost its snapshot")
		}
		if _, te := gOv.CachedFrozen().TailSize(); te == 0 {
			t.Fatal("mutations did not land in the tail")
		}
		assertRefrozen(t, gRf)
		for _, src := range equivalenceQueries {
			ref := runWorkers(t, gRf, src, 1)
			for _, workers := range []int{1, 4} {
				assertSameRendered(t, src, ref, runWorkers(t, gOv, src, workers), workers)
			}
		}
	}
}

// TestDeltaOverlayMatchesRefreezeWithColumns runs the same comparison
// with declared properties, so tail vertices resolve through the
// columnar path (tail column extensions, prefilter included) rather
// than the property maps.
func TestDeltaOverlayMatchesRefreezeWithColumns(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.NewGraph(declaredSchema(t))
		var jobs, files []graph.VertexID
		for i := 0; i < 6; i++ {
			jobs = append(jobs, g.MustAddVertex("Job", graph.Properties{
				"name": fmt.Sprintf("j%d", i), "CPU": int64(10 * (i + 1)),
			}))
			files = append(files, g.MustAddVertex("File", graph.Properties{
				"name": fmt.Sprintf("f%d", i),
			}))
		}
		for i := range jobs {
			g.MustAddEdge(jobs[i], files[i], "WRITES_TO", nil)
			g.MustAddEdge(files[i], jobs[(i+1)%len(jobs)], "IS_READ_BY", nil)
		}
		return g
	}
	gOv := build()
	gRf := build()
	gOv.Freeze()
	compactEveryMutation(gRf)
	queries := []string{
		`MATCH (j:Job) WHERE j.CPU >= 35 RETURN j.name AS name`,
		`MATCH (j:Job) RETURN SUM(j.CPU) AS total`,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 20 RETURN j.name AS name, f.name AS file`,
		`SELECT name, cpu FROM (
			MATCH (j:Job) RETURN j.name AS name, j.CPU AS cpu
		) ORDER BY cpu DESC LIMIT 4`,
	}
	mutate := func(g *graph.Graph, round int) {
		// Tail Jobs straddling the WHERE thresholds, and a tail File.
		j1 := g.MustAddVertex("Job", graph.Properties{"name": fmt.Sprintf("tj%d", round), "CPU": int64(33 + round)})
		j2 := g.MustAddVertex("Job", graph.Properties{"name": fmt.Sprintf("tn%d", round), "CPU": int64(7 + round)})
		f := g.MustAddVertex("File", graph.Properties{"name": fmt.Sprintf("tf%d", round)})
		g.MustAddEdge(j1, f, "WRITES_TO", nil)
		g.MustAddEdge(f, j2, "IS_READ_BY", nil)
	}
	for round := 0; round < 3; round++ {
		mutate(gOv, round)
		mutate(gRf, round)
		assertRefrozen(t, gRf)
		for _, src := range queries {
			ref := runWorkers(t, gRf, src, 1)
			for _, workers := range []int{1, 4} {
				assertSameRendered(t, src, ref, runWorkers(t, gOv, src, workers), workers)
			}
		}
	}
}

// TestDeltaOverlayInterleavedRandom drives a randomized interleaved
// mutate/query sequence over a datagen provenance graph, in three
// storage lifecycles at once: plain overlay, overlay with an aggressive
// compaction threshold (folding every few mutations), and the
// compact-every-mutation reference. All three must agree on every query
// at workers {1,4}.
func TestDeltaOverlayInterleavedRandom(t *testing.T) {
	cfg := datagen.ProvConfig{
		Jobs: 40, Files: 100, TasksPerJob: 2, Machines: 8, Users: 4,
		MaxReads: 12, Pipelines: 4, Seed: 5,
	}
	build := func() *graph.Graph {
		g, err := datagen.Prov(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gOv := build()
	gCp := build()
	gCp.SetCompactionThreshold(8)
	gRf := build()
	all := []*graph.Graph{gOv, gCp, gRf}
	gOv.Freeze()
	gCp.Freeze()
	compactEveryMutation(gRf)
	rng := rand.New(rand.NewSource(99))
	queries := datasetQueries["prov"]
	for step := 0; step < 30; step++ {
		jobs := gOv.VerticesOfType("Job")
		files := gOv.VerticesOfType("File")
		switch rng.Intn(3) {
		case 0:
			name := fmt.Sprintf("fx%d", step)
			for _, g := range all {
				g.MustAddVertex("File", graph.Properties{"name": name})
			}
		case 1:
			j, f := jobs[rng.Intn(len(jobs))], files[rng.Intn(len(files))]
			for _, g := range all {
				g.MustAddEdge(j, f, "WRITES_TO", graph.Properties{"ts": int64(step)})
			}
		case 2:
			j, f := jobs[rng.Intn(len(jobs))], files[rng.Intn(len(files))]
			for _, g := range all {
				g.MustAddEdge(f, j, "IS_READ_BY", graph.Properties{"ts": int64(step)})
			}
		}
		src := queries[rng.Intn(len(queries))]
		ref := runWorkers(t, gRf, src, 1)
		for _, workers := range []int{1, 4} {
			assertSameRendered(t, src, ref, runWorkers(t, gOv, src, workers), workers)
			assertSameRendered(t, src, ref, runWorkers(t, gCp, src, workers), workers)
		}
	}
	assertRefrozen(t, gRf)
	if f := gOv.CachedFrozen(); f == nil {
		t.Fatal("overlay graph lost its snapshot")
	} else if tv, te := f.TailSize(); tv+te == 0 {
		t.Fatal("overlay graph accumulated no tail")
	}
	if gCp.Compactions() == 0 {
		t.Fatal("aggressive-threshold graph never compacted")
	}
}

package views

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kaskade/internal/graph"
)

// viewFingerprint summarizes a connector view's edge multiset
// independently of insertion order.
func viewFingerprint(g *graph.Graph) []string {
	var out []string
	g.EachEdge(func(e graph.Edge) {
		out = append(out, fmt.Sprintf("%d->%d ts=%v hops=%v", e.From, e.To, g.EdgeProp(e.ID, "ts"), g.EdgeProp(e.ID, "hops")))
	})
	sort.Strings(out)
	return out
}

func sameFingerprint(t *testing.T, a, b []string, context string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d view edges", context, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: edge %d differs: %q vs %q", context, i, a[i], b[i])
		}
	}
}

// TestMaintainedConnectorMatchesRematerialization drives a random
// lineage DAG edge by edge through the maintainer and checks, at every
// step, that the incrementally maintained view equals a from-scratch
// materialization. The half-typed connectors copy every vertex, so
// their maintainers must mirror every vertex too.
func TestMaintainedConnectorMatchesRematerialization(t *testing.T) {
	schema := graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "W"},
			{From: "File", To: "Job", Name: "R"},
		},
	)
	for _, def := range []KHopConnector{
		{SrcType: "Job", DstType: "Job", K: 2},
		{SrcType: "Job", K: 2},
		{DstType: "Job", K: 2},
	} {
		t.Run(def.Name(), func(t *testing.T) {
			base := graph.NewGraph(schema)
			m, err := NewMaintainedConnector(def, base)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(77))
			var jobs, files []graph.VertexID
			for i := 0; i < 12; i++ {
				j, err := m.AddVertex("Job", graph.Properties{"name": fmt.Sprintf("j%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				f, err := m.AddVertex("File", nil)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			for step := 0; step < 60; step++ {
				var err error
				if rng.Intn(2) == 0 {
					j := jobs[rng.Intn(len(jobs))]
					f := files[rng.Intn(len(files))]
					_, err = m.AddEdge(j, f, "W", graph.Properties{"ts": int64(step)})
				} else {
					f := files[rng.Intn(len(files))]
					j := jobs[rng.Intn(len(jobs))]
					_, err = m.AddEdge(f, j, "R", graph.Properties{"ts": int64(step)})
				}
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := def.Materialize(m.Base())
				if err != nil {
					t.Fatal(err)
				}
				sameFingerprint(t, viewFingerprint(m.View()), viewFingerprint(fresh),
					fmt.Sprintf("after step %d", step))
			}
			if m.View().NumEdges() == 0 {
				t.Fatal("maintained view never gained an edge; test exercised nothing")
			}
			// A maintainer built over a populated base maps every
			// vertex the materializer copied.
			if _, err := NewMaintainedConnector(def, m.Base()); err != nil {
				t.Fatalf("maintainer over the populated base: %v", err)
			}
		})
	}
}

// TestMaintainedConnectorK3 checks a longer contraction on a homogeneous
// graph, where a new edge can sit at any of three positions in a path.
func TestMaintainedConnectorK3(t *testing.T) {
	def := KHopConnector{K: 3}
	base := graph.NewGraph(nil)
	m, err := NewMaintainedConnector(def, base)
	if err != nil {
		t.Fatal(err)
	}
	var ids []graph.VertexID
	for i := 0; i < 8; i++ {
		id, err := m.AddVertex("V", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 40; step++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		if _, err := m.AddEdge(a, b, "E", graph.Properties{"ts": int64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := def.Materialize(m.Base())
	if err != nil {
		t.Fatal(err)
	}
	sameFingerprint(t, viewFingerprint(m.View()), viewFingerprint(fresh), "k=3 final")
	if m.View().NumEdges() == 0 {
		t.Fatal("k=3 view empty")
	}
}

func TestMaintainedConnectorEdgeTypeFilter(t *testing.T) {
	def := KHopConnector{K: 2, EdgeTypes: []string{"E"}}
	base := graph.NewGraph(nil)
	m, err := NewMaintainedConnector(def, base)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.AddVertex("V", nil)
	b, _ := m.AddVertex("V", nil)
	c, _ := m.AddVertex("V", nil)
	if _, err := m.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	// An edge of a filtered-out type contributes no paths.
	if _, err := m.AddEdge(b, c, "OTHER", nil); err != nil {
		t.Fatal(err)
	}
	if m.View().NumEdges() != 0 {
		t.Errorf("filtered edge created %d connector edges", m.View().NumEdges())
	}
	if _, err := m.AddEdge(b, c, "E", nil); err != nil {
		t.Fatal(err)
	}
	if m.View().NumEdges() != 1 {
		t.Errorf("connector edges = %d, want 1", m.View().NumEdges())
	}
}

func TestMaintainedConnectorRejectsDedup(t *testing.T) {
	if _, err := NewMaintainedConnector(KHopConnector{K: 2, DedupPairs: true}, graph.NewGraph(nil)); err == nil {
		t.Error("DedupPairs maintenance should be rejected")
	}
}

// TestMaintainedNoOpMutationKeepsFrozen is the regression test for the
// refreeze bug: a mutation the view filters out (wrong edge type,
// non-endpoint vertex type) used to invalidate the cached Frozen of
// BOTH graphs, forcing two O(V+E) rebuilds for a no-op. With
// delta-overlay storage the base mutation lands in the base snapshot's
// tail and the view's snapshot is untouched — no rebuild on either
// side, and the view snapshot needs no overlay at all.
func TestMaintainedNoOpMutationKeepsFrozen(t *testing.T) {
	def := KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"W", "R"}}
	schema := graph.MustSchema(
		[]string{"Job", "File", "Machine"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "W"},
			{From: "File", To: "Job", Name: "R"},
			{From: "Job", To: "Machine", Name: "RUNS_ON"},
		},
	)
	base := graph.NewGraph(schema)
	m, err := NewMaintainedConnector(def, base)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.AddVertex("Job", nil)
	if _, err := m.AddVertex("File", nil); err != nil {
		t.Fatal(err)
	}
	bf := base.Freeze()
	vf := m.View().Freeze()
	builds := graph.CSRBuilds()

	// Non-endpoint vertex type: mirrored nowhere.
	mach, err := m.AddVertex("Machine", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Filtered edge type: can never contribute a contracted path.
	if _, err := m.AddEdge(j, mach, "RUNS_ON", nil); err != nil {
		t.Fatal(err)
	}
	if base.CachedFrozen() != bf {
		t.Fatal("no-op mutation dropped the base snapshot")
	}
	if m.View().CachedFrozen() != vf {
		t.Fatal("no-op mutation dropped the view snapshot")
	}
	if _, te := vf.TailSize(); te != 0 || vf.NumEdges() != 0 {
		t.Fatal("no-op mutation reached the view")
	}
	if got := graph.CSRBuilds(); got != builds {
		t.Fatalf("no-op mutation rebuilt a CSR (%d builds)", got-builds)
	}
	// The base snapshot sees the mutation through its tail.
	if bf.NumEdges() != 1 || bf.NumVertices() != 3 {
		t.Fatalf("base snapshot stale: |V|=%d |E|=%d", bf.NumVertices(), bf.NumEdges())
	}
}

package views

import (
	"fmt"
	"math/rand"
	"testing"

	"kaskade/internal/graph"
)

// TestMaintainedCollectionMatchesRematerialization drives random
// mutations through a k=1..3 collection and checks each member view,
// at every step, against a from-scratch materialization — the chained
// maintenance must be invisible next to independent maintenance. The
// half-typed chains copy every vertex, so they must mirror every
// vertex too.
func TestMaintainedCollectionMatchesRematerialization(t *testing.T) {
	for _, def := range []KHopConnector{
		{K: 3},
		{SrcType: "Job", K: 3},
		{DstType: "Job", K: 3},
	} {
		t.Run(def.Name(), func(t *testing.T) {
			base := graph.NewGraph(nil)
			c, err := NewMaintainedCollection(def, base)
			if err != nil {
				t.Fatal(err)
			}
			var ids []graph.VertexID
			for i := 0; i < 8; i++ {
				id, err := c.AddVertex([]string{"Job", "V"}[i%2], nil)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			rng := rand.New(rand.NewSource(13))
			for step := 0; step < 40; step++ {
				a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if a == b {
					continue
				}
				if _, err := c.AddEdge(a, b, "E", graph.Properties{"ts": int64(step)}); err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= 3; k++ {
					dk := def
					dk.K = k
					fresh, err := dk.Materialize(c.Base())
					if err != nil {
						t.Fatal(err)
					}
					sameFingerprint(t, viewFingerprint(c.View(k)), viewFingerprint(fresh),
						fmt.Sprintf("k=%d after step %d", k, step))
				}
			}
			for k := 1; k <= 3; k++ {
				if c.View(k).NumEdges() == 0 {
					t.Fatalf("k=%d view empty; test exercised nothing", k)
				}
			}
			if _, err := NewMaintainedCollection(def, c.Base()); err != nil {
				t.Fatalf("collection over the populated base: %v", err)
			}
		})
	}
}

// TestMaintainedCollectionTypedEndpoints runs the chain with endpoint
// types and an edge filter over a bipartite lineage shape.
func TestMaintainedCollectionTypedEndpoints(t *testing.T) {
	schema := graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "W"},
			{From: "File", To: "Job", Name: "R"},
		},
	)
	def := KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"W", "R"}}
	base := graph.NewGraph(schema)
	c, err := NewMaintainedCollection(def, base)
	if err != nil {
		t.Fatal(err)
	}
	var jobs, files []graph.VertexID
	for i := 0; i < 6; i++ {
		j, err := c.AddVertex("Job", nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		f, err := c.AddVertex("File", nil)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 30; step++ {
		var err error
		if rng.Intn(2) == 0 {
			_, err = c.AddEdge(jobs[rng.Intn(len(jobs))], files[rng.Intn(len(files))], "W",
				graph.Properties{"ts": int64(step)})
		} else {
			_, err = c.AddEdge(files[rng.Intn(len(files))], jobs[rng.Intn(len(jobs))], "R",
				graph.Properties{"ts": int64(step)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 2; k++ {
		dk := def
		dk.K = k
		fresh, err := dk.Materialize(c.Base())
		if err != nil {
			t.Fatal(err)
		}
		sameFingerprint(t, viewFingerprint(c.View(k)), viewFingerprint(fresh),
			fmt.Sprintf("typed k=%d final", k))
	}
}

func TestMaintainedCollectionRejectsDedup(t *testing.T) {
	if _, err := NewMaintainedCollection(KHopConnector{K: 2, DedupPairs: true}, graph.NewGraph(nil)); err == nil {
		t.Error("DedupPairs collection should be rejected")
	}
	if _, err := NewMaintainedCollection(KHopConnector{K: 0}, graph.NewGraph(nil)); err == nil {
		t.Error("K=0 collection should be rejected")
	}
}

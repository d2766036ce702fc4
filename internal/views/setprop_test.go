package views

import (
	"testing"

	"kaskade/internal/algo"
	"kaskade/internal/graph"
)

// TestSetVertexPropLeavesViewsAlone pins that a view built from a graph
// shares none of its later annotations: view builders copy vertices
// with the base graph's maps, and SetVertexProp gives the written
// vertex a fresh map instead of writing the shared one. Each graph then
// reads the same value from its map and from its column.
func TestSetVertexPropLeavesViewsAlone(t *testing.T) {
	s := graph.MustSchema([]string{"Job", "File"}, []graph.EdgeType{{From: "Job", To: "File", Name: "WRITES_TO"}})
	if err := s.DeclareProperty("Job", "name", graph.PropString); err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph(s)
	j := g.MustAddVertex("Job", graph.Properties{"name": "a"})
	f := g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "WRITES_TO", nil)
	view, err := VertexInclusionSummarizer{Types: []string{"Job"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexProp(j, "name", "b"); err != nil {
		t.Fatal(err)
	}
	reads := func(gr *graph.Graph, v graph.VertexID, want string) {
		t.Helper()
		col, _ := gr.DeclaredVertexProp(v, "name")
		if m := gr.Vertex(v).Prop("name"); m != want || col != want {
			t.Errorf("map reads %v, column reads %v, want %q both ways", m, col, want)
		}
	}
	reads(view, 0, "a")
	reads(g, j, "b")

	// Label propagation annotates the view's vertices, not the base's.
	algo.LabelPropagation(view, 2, "community")
	if got := view.Vertex(0).Prop("community"); got == nil {
		t.Error("label propagation left no label on the view")
	}
	if got := g.Vertex(j).Prop("community"); got != nil {
		t.Errorf("label propagation on the view wrote %v into the base", got)
	}
	reads(view, 0, "a")
}

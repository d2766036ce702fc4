package views

import (
	"testing"

	"kaskade/internal/graph"
)

// assertNoEdgeMaps fails when any edge of g keeps a property map.
func assertNoEdgeMaps(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	if g.NumEdges() == 0 {
		t.Errorf("%s: no edges — vacuous check", name)
	}
	maps := 0
	g.EachEdge(func(e graph.Edge) {
		if e.Props != nil {
			maps++
		}
	})
	if maps > 0 {
		t.Errorf("%s: %d of %d edges keep a property map", name, maps, g.NumEdges())
	}
}

// TestEdgeColumnsLeaveProvViewsMapless pins that prov's declared edge
// properties live only in columns: the raw graph, its type-filter
// summaries, its aggregator summaries (the vertex aggregators'
// schemaless graphs included), the schema-typed connectors over them
// and the maintained connectors (after mutations) hold no edge map, and
// their ts/hops read back through the columns.
func TestEdgeColumnsLeaveProvViewsMapless(t *testing.T) {
	raw := refProv11(t)
	assertNoEdgeMaps(t, "prov", raw)
	for _, v := range []View{
		VertexInclusionSummarizer{Types: []string{"Job", "File"}},
		VertexRemovalSummarizer{Types: []string{"Task"}},
		EdgeInclusionSummarizer{Types: []string{"WRITES_TO", "IS_READ_BY"}},
		EdgeRemovalSummarizer{Types: []string{"SPAWNS"}},
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SameVertexTypeConnector{VType: "Job", MaxLen: 4},
		VertexAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName", Aggs: map[string]AggFunc{"CPU": AggSum}},
		SubgraphAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName"},
	} {
		vg, err := Materialize(v, raw, 2)
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		assertNoEdgeMaps(t, v.Name(), vg)
	}

	summary, err := VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	def := KHopConnector{SrcType: "Job", DstType: "Job", K: 2}
	m, err := NewMaintainedConnector(def, summary)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMaintainedCollection(KHopConnector{SrcType: "Job", DstType: "Job", K: 3}, refProv11(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []interface {
		AddVertex(string, graph.Properties) (graph.VertexID, error)
		AddEdge(graph.VertexID, graph.VertexID, string, graph.Properties) (graph.EdgeID, error)
		Base() *graph.Graph
	}{m, c} {
		jobs := mut.Base().VerticesOfType("Job")
		for i := 0; i < 6; i++ {
			f, err := mut.AddVertex("File", graph.Properties{"name": "new", "size": int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			ts := graph.Properties{"ts": int64(1_000_000 + i)}
			if _, err := mut.AddEdge(jobs[i], f, "WRITES_TO", ts); err != nil {
				t.Fatal(err)
			}
			if _, err := mut.AddEdge(f, jobs[len(jobs)-1-i], "IS_READ_BY", ts); err != nil {
				t.Fatal(err)
			}
		}
		assertNoEdgeMaps(t, "maintained base", mut.Base())
	}
	view := m.View()
	assertNoEdgeMaps(t, "maintained view", view)
	last := graph.EdgeID(view.NumEdges() - 1)
	if ts, hops := view.EdgeProp(last, "ts"), view.EdgeProp(last, "hops"); ts != int64(1_000_005) || hops != int64(2) {
		t.Errorf("last maintained edge: ts=%v hops=%v, want 1000005 and 2", ts, hops)
	}
	// Job-to-Job paths alternate through Files: only even k contract.
	assertNoEdgeMaps(t, "maintained collection view", c.View(2))
}

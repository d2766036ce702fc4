package views

import (
	"fmt"
	"reflect"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/exec"
	"kaskade/internal/graph"
)

// fig3 builds the input graph of the paper's Fig. 3(a): j1 writes f1,f2;
// f1 read by j2; f2 read by j3; j2 writes f3; j3 writes f4.
func fig3(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	))
	j1 := g.MustAddVertex("Job", graph.Properties{"name": "j1"})
	j2 := g.MustAddVertex("Job", graph.Properties{"name": "j2"})
	j3 := g.MustAddVertex("Job", graph.Properties{"name": "j3"})
	f1 := g.MustAddVertex("File", graph.Properties{"name": "f1"})
	f2 := g.MustAddVertex("File", graph.Properties{"name": "f2"})
	f3 := g.MustAddVertex("File", graph.Properties{"name": "f3"})
	f4 := g.MustAddVertex("File", graph.Properties{"name": "f4"})
	g.MustAddEdge(j1, f1, "WRITES_TO", graph.Properties{"ts": int64(1)})
	g.MustAddEdge(j1, f2, "WRITES_TO", graph.Properties{"ts": int64(2)})
	g.MustAddEdge(f1, j2, "IS_READ_BY", graph.Properties{"ts": int64(3)})
	g.MustAddEdge(f2, j3, "IS_READ_BY", graph.Properties{"ts": int64(4)})
	g.MustAddEdge(j2, f3, "WRITES_TO", graph.Properties{"ts": int64(5)})
	g.MustAddEdge(j3, f4, "WRITES_TO", graph.Properties{"ts": int64(6)})
	return g
}

func names(g *graph.Graph, ids []graph.VertexID) map[string]graph.VertexID {
	out := make(map[string]graph.VertexID)
	for _, id := range ids {
		out[g.Vertex(id).Prop("name").(string)] = id
	}
	return out
}

func TestJobToJobConnectorMatchesFig3c(t *testing.T) {
	g := fig3(t)
	v, err := KHopConnector{SrcType: "Job", DstType: "Job", K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3(c) left: jobs only, edges j1->j2 and j1->j3.
	if v.CountVerticesOfType("Job") != 3 || v.CountVerticesOfType("File") != 0 {
		t.Errorf("connector vertices: %d jobs, %d files", v.CountVerticesOfType("Job"), v.CountVerticesOfType("File"))
	}
	if v.NumEdges() != 2 {
		t.Fatalf("connector edges = %d, want 2", v.NumEdges())
	}
	byName := names(v, v.VerticesOfType("Job"))
	pairs := map[[2]graph.VertexID]int64{}
	v.EachEdge(func(e graph.Edge) {
		pairs[[2]graph.VertexID{e.From, e.To}] = v.EdgeProp(e.ID, "ts").(int64)
	})
	if ts := pairs[[2]graph.VertexID{byName["j1"], byName["j2"]}]; ts != 3 {
		t.Errorf("j1->j2 contracted ts = %d, want max(1,3)=3", ts)
	}
	if ts := pairs[[2]graph.VertexID{byName["j1"], byName["j3"]}]; ts != 4 {
		t.Errorf("j1->j3 contracted ts = %d, want max(2,4)=4", ts)
	}
}

func TestFileToFileConnectorMatchesFig3d(t *testing.T) {
	g := fig3(t)
	v, err := KHopConnector{SrcType: "File", DstType: "File", K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3(d): f1->f3 and f2->f4.
	if v.NumEdges() != 2 {
		t.Fatalf("file connector edges = %d, want 2", v.NumEdges())
	}
	byName := names(v, v.VerticesOfType("File"))
	found := map[[2]graph.VertexID]bool{}
	v.EachEdge(func(e graph.Edge) { found[[2]graph.VertexID{e.From, e.To}] = true })
	if !found[[2]graph.VertexID{byName["f1"], byName["f3"]}] || !found[[2]graph.VertexID{byName["f2"], byName["f4"]}] {
		t.Errorf("file pairs = %v", found)
	}
}

func TestConnectorParallelEdgesCountPaths(t *testing.T) {
	// Two distinct 2-hop paths between the same pair must yield two
	// parallel connector edges (§V-A path-count semantics)...
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", graph.Properties{"name": "a"})
	m1 := g.MustAddVertex("V", graph.Properties{"name": "m1"})
	m2 := g.MustAddVertex("V", graph.Properties{"name": "m2"})
	b := g.MustAddVertex("V", graph.Properties{"name": "b"})
	g.MustAddEdge(a, m1, "E", nil)
	g.MustAddEdge(a, m2, "E", nil)
	g.MustAddEdge(m1, b, "E", nil)
	g.MustAddEdge(m2, b, "E", nil)

	v, err := KHopConnector{K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 2 {
		t.Errorf("parallel path edges = %d, want 2", v.NumEdges())
	}
	// ...unless DedupPairs collapses them.
	vd, err := KHopConnector{K: 2, DedupPairs: true}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if vd.NumEdges() != 1 {
		t.Errorf("deduped edges = %d, want 1", vd.NumEdges())
	}
}

func TestConnectorEdgeTypeRestriction(t *testing.T) {
	g := fig3(t)
	// Restricting to WRITES_TO only: no job-file-job paths exist.
	v, err := KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 0 {
		t.Errorf("restricted connector has %d edges, want 0", v.NumEdges())
	}
}

func TestConnectorValidation(t *testing.T) {
	g := fig3(t)
	if _, err := (KHopConnector{SrcType: "Job", DstType: "Job", K: 0}).Materialize(g); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := (KHopConnector{SrcType: "Nope", DstType: "Job", K: 2}).Materialize(g); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestSameVertexTypeConnector(t *testing.T) {
	g := fig3(t)
	v, err := SameVertexTypeConnector{VType: "Job", MaxLen: 4}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Paths stop at the first Job: j1->j2 (via f1), j1->j3 (via f2),
	// same as the 2-hop connector on this graph.
	if v.NumEdges() != 2 {
		t.Errorf("same-vertex-type edges = %d, want 2", v.NumEdges())
	}
	v.EachEdge(func(e graph.Edge) {
		if hops := v.EdgeProp(e.ID, "hops"); hops != int64(2) {
			t.Errorf("hops = %v, want 2", hops)
		}
	})
}

func TestSameEdgeTypeConnector(t *testing.T) {
	// Chain of TRANSFERS_TO task edges: t1->t2->t3.
	g := graph.NewGraph(nil)
	t1 := g.MustAddVertex("Task", nil)
	t2 := g.MustAddVertex("Task", nil)
	t3 := g.MustAddVertex("Task", nil)
	g.MustAddEdge(t1, t2, "TRANSFERS_TO", nil)
	g.MustAddEdge(t2, t3, "TRANSFERS_TO", nil)
	g.MustAddEdge(t1, t3, "OTHER", nil)

	v, err := SameEdgeTypeConnector{EType: "TRANSFERS_TO", MaxLen: 5}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Contracted paths: t1->t2, t2->t3, t1->t3 (2 hops). OTHER ignored.
	if v.NumEdges() != 3 {
		t.Errorf("same-edge-type edges = %d, want 3", v.NumEdges())
	}
}

func TestSourceToSinkConnector(t *testing.T) {
	// a -> b -> c, d isolated: source a, sink c (and d is both but has
	// no outgoing edges, so no paths start there).
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	c := g.MustAddVertex("V", nil)
	g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	g.MustAddEdge(b, c, "E", nil)

	v, err := SourceToSinkConnector{MaxLen: 5}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 1 {
		t.Fatalf("source-sink edges = %d, want 1 (a->c)", v.NumEdges())
	}
	var got graph.Edge
	v.EachEdge(func(e graph.Edge) { got = e })
	if hops := v.EdgeProp(got.ID, "hops"); hops != int64(2) {
		t.Errorf("hops = %v", hops)
	}
}

func TestVertexInclusionSummarizerOnProv(t *testing.T) {
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob = 100, 200, 10
	g, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 300 {
		t.Errorf("summarized |V| = %d, want 300", v.NumVertices())
	}
	// Dramatic reduction: raw includes tasks etc.
	if v.NumEdges() >= g.NumEdges()/2 {
		t.Errorf("summarizer kept %d of %d edges; expected large reduction", v.NumEdges(), g.NumEdges())
	}
	// Only lineage edges survive.
	v.EachEdge(func(e graph.Edge) {
		if e.Type != "WRITES_TO" && e.Type != "IS_READ_BY" {
			t.Fatalf("unexpected edge type %s", e.Type)
		}
	})
	// Properties preserved for downstream queries.
	if v.Vertex(v.VerticesOfType("Job")[0]).Prop("CPU") == nil {
		t.Error("summarizer lost vertex properties")
	}
}

func TestVertexRemovalSummarizer(t *testing.T) {
	g := fig3(t)
	v, err := VertexRemovalSummarizer{Types: []string{"File"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 3 || v.NumEdges() != 0 {
		t.Errorf("removal result: |V|=%d |E|=%d, want 3/0", v.NumVertices(), v.NumEdges())
	}
}

func TestEdgeSummarizers(t *testing.T) {
	g := fig3(t)
	keep, err := EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if keep.NumEdges() != 4 || keep.NumVertices() != 7 {
		t.Errorf("inclusion: |E|=%d |V|=%d, want 4/7", keep.NumEdges(), keep.NumVertices())
	}
	drop, err := EdgeRemovalSummarizer{Types: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if drop.NumEdges() != 2 {
		t.Errorf("removal: |E|=%d, want 2", drop.NumEdges())
	}
}

// two62 is 2^62: the int64 sum of two overflows, their AVG does not.
const two62 = int64(1) << 62

// TestVertexAggregatorSummarizer pins each supervertex's properties, in
// first-seen group order, and checks them against the rows of the
// view's defining aggregate run by the executor.
func TestVertexAggregatorSummarizer(t *testing.T) {
	type vertexCase struct {
		name  string
		s     VertexAggregatorSummarizer
		build func(g *graph.Graph)
		want  []graph.Properties // supervertices in first-seen order
		wantE int
	}
	byG := func(aggs map[string]AggFunc) VertexAggregatorSummarizer {
		return VertexAggregatorSummarizer{VType: "V", GroupBy: "g", Aggs: aggs}
	}
	for _, tc := range []vertexCase{
		{
			name: "pipelines, edges re-pointed",
			s:    VertexAggregatorSummarizer{VType: "Job", GroupBy: "pipeline", Aggs: map[string]AggFunc{"CPU": AggSum}},
			build: func(g *graph.Graph) {
				j1 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p1", "CPU": int64(10)})
				j2 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p1", "CPU": int64(30)})
				j3 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p2", "CPU": int64(5)})
				f := g.MustAddVertex("File", nil)
				g.MustAddEdge(j1, f, "W", nil)
				g.MustAddEdge(j2, f, "W", nil)
				g.MustAddEdge(j3, f, "W", nil)
			},
			want: []graph.Properties{
				{"pipeline": "p1", "members": int64(2), "CPU": int64(40)},
				{"pipeline": "p2", "members": int64(1), "CPU": int64(5)},
			},
			wantE: 3, // the p1 supervertex keeps two parallel edges to f
		},
		{
			name: "int64 1 and string 1 are two groups",
			s:    byG(map[string]AggFunc{"x": AggSum}),
			build: func(g *graph.Graph) {
				g.MustAddVertex("V", graph.Properties{"g": "1", "x": int64(20)})
				g.MustAddVertex("V", graph.Properties{"g": int64(1), "x": int64(10)})
			},
			want: []graph.Properties{
				{"g": "1", "members": int64(1), "x": int64(20)},
				{"g": int64(1), "members": int64(1), "x": int64(10)},
			},
		},
		{
			name: "a float value is summed",
			s:    byG(map[string]AggFunc{"x": AggSum, "y": AggMax}),
			build: func(g *graph.Graph) {
				g.MustAddVertex("V", graph.Properties{"g": "a", "x": int64(2), "y": int64(1)})
				g.MustAddVertex("V", graph.Properties{"g": "a", "x": 2.5, "y": 2.5})
			},
			want: []graph.Properties{{"g": "a", "members": int64(2), "x": 4.5, "y": 2.5}},
		},
		{
			name: "empty MIN and AVG are absent",
			s:    byG(map[string]AggFunc{"x": AggMin, "y": AggAvg}),
			build: func(g *graph.Graph) {
				g.MustAddVertex("V", graph.Properties{"g": "a"})
			},
			want: []graph.Properties{{"g": "a", "members": int64(1)}},
		},
		{
			name: "AVG of two 2^62 does not wrap",
			s:    byG(map[string]AggFunc{"x": AggAvg}),
			build: func(g *graph.Graph) {
				g.MustAddVertex("V", graph.Properties{"g": "a", "x": two62})
				g.MustAddVertex("V", graph.Properties{"g": "a", "x": two62})
			},
			want: []graph.Properties{{"g": "a", "members": int64(2), "x": float64(two62)}},
		},
		{
			name: "no group value forms the null group",
			s:    byG(map[string]AggFunc{"x": AggCount}),
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", graph.Properties{"x": int64(1)})
				b := g.MustAddVertex("V", nil)
				g.MustAddVertex("V", graph.Properties{"g": "a"})
				g.MustAddEdge(a, b, "E", nil) // contracted
			},
			want: []graph.Properties{
				{"members": int64(2), "x": int64(1)},
				{"g": "a", "members": int64(1), "x": int64(0)},
			},
		},
		{
			name: "a self-loop stays on its supervertex",
			s:    byG(nil),
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", graph.Properties{"g": int64(7)})
				b := g.MustAddVertex("V", graph.Properties{"g": int64(7)})
				g.MustAddEdge(a, a, "E", nil)
				g.MustAddEdge(a, b, "E", nil) // contracted
			},
			want:  []graph.Properties{{"g": int64(7), "members": int64(2)}},
			wantE: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.NewGraph(nil)
			tc.build(g)
			v, err := tc.s.Materialize(g)
			if err != nil {
				t.Fatal(err)
			}
			checkSupervertices(t, g, v, tc.s, tc.want)
			if v.NumEdges() != tc.wantE {
				t.Errorf("|E| = %d, want %d", v.NumEdges(), tc.wantE)
			}
		})
	}
}

// checkSupervertices compares the supervertices of view, in order, with
// want, and each with the row of s's defining aggregate over base whose
// group key it holds: the group value, COUNT as members and every
// aggregate, a null one absent. A subgraph aggregator's supervertices
// check against its vertex aggregate.
func checkSupervertices(t *testing.T, base, view *graph.Graph, s VertexAggregatorSummarizer, want []graph.Properties) {
	t.Helper()
	svs := view.VerticesOfType(s.VType)
	for i, id := range svs {
		if props := view.Vertex(id).Props; i >= len(want) || !reflect.DeepEqual(props, want[i]) {
			t.Errorf("supervertex %d = %v, want %v", i, props, want)
		}
	}
	if len(svs) != len(want) {
		t.Errorf("%d supervertices, want %d", len(svs), len(want))
	}
	groups := make([]viewGroup, len(svs))
	for i, id := range svs {
		sv := view.Vertex(id)
		groups[i] = viewGroup{key: []exec.Value{sv.Prop(s.GroupBy)}, prop: sv.Prop}
	}
	checkGroups(t, base, s.Cypher(), groups, append([]string{s.GroupBy, "members"}, propNames(s.Aggs)...))
}

// viewGroup is a supervertex or superedge: the values of its group key
// and its property reader.
type viewGroup struct {
	key  []exec.Value
	prop func(string) any
}

// checkGroups runs src over base and matches each group the view built
// to the result row with the same exec.GroupKey over the row's first
// len(key) values. The row's last len(cols) values must be the group's
// properties cols, a null value an absent property, and every row must
// be matched once.
func checkGroups(t *testing.T, base *graph.Graph, src string, groups []viewGroup, cols []string) {
	t.Helper()
	res, err := exec.Run(base, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(groups) {
		t.Errorf("%s: %d groups, view has %d", src, len(res.Rows), len(groups))
	}
	rows := make(map[string]exec.Row, len(res.Rows))
	for _, row := range res.Rows {
		if len(groups) == 0 {
			break
		}
		key, err := exec.GroupKey(row[:len(groups[0].key)]...)
		if err != nil {
			t.Fatal(err)
		}
		rows[key] = row
	}
	for _, grp := range groups {
		key, err := exec.GroupKey(grp.key...)
		if err != nil {
			t.Fatal(err)
		}
		row, ok := rows[key]
		if !ok {
			t.Errorf("%s: no row for group %v", src, grp.key)
			continue
		}
		delete(rows, key)
		for i, col := range cols {
			if got, want := grp.prop(col), row[len(row)-len(cols)+i]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: group %v %s = %v, want %v", src, grp.key, col, got, want)
			}
		}
	}
}

// superedge is an expected superedge: endpoints by base vertex ID.
type superedge struct {
	from, to graph.VertexID
	typ      string
	props    graph.Properties
}

// TestEdgeAggregatorSummarizer pins each superedge, in view order, and
// checks it against the rows of the view's defining aggregate (grouped
// by TYPE(e) too when the view aggregates every type) over the base
// graph.
func TestEdgeAggregatorSummarizer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     EdgeAggregatorSummarizer
		build func(g *graph.Graph, a, b graph.VertexID)
		want  []superedge // the superedges, in view edge order
		wantE int
	}{
		{
			name: "parallel E edges merge, others pass through",
			s:    EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggSum}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(1)})
				g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(2)})
				g.MustAddEdge(b, a, "E", graph.Properties{"w": int64(5)})
				g.MustAddEdge(a, b, "X", nil)
			},
			want: []superedge{
				{0, 1, "E", graph.Properties{"members": int64(2), "w": int64(3)}},
				{1, 0, "E", graph.Properties{"members": int64(1), "w": int64(5)}},
			},
			wantE: 3,
		},
		{
			name: "a float value is summed",
			s:    EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggSum}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(1)})
				g.MustAddEdge(a, b, "E", graph.Properties{"w": 2.5})
			},
			want:  []superedge{{0, 1, "E", graph.Properties{"members": int64(2), "w": 3.5}}},
			wantE: 1,
		},
		{
			name: "no value, empty MIN and AVG are absent",
			s:    EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggMin, "x": AggAvg, "y": AggSum}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, b, "E", nil)
			},
			want:  []superedge{{0, 1, "E", graph.Properties{"members": int64(1)}}},
			wantE: 1,
		},
		{
			name: "AVG of two 2^62 does not wrap",
			s:    EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggAvg}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, b, "E", graph.Properties{"w": two62})
				g.MustAddEdge(a, b, "E", graph.Properties{"w": two62})
			},
			want:  []superedge{{0, 1, "E", graph.Properties{"members": int64(2), "w": float64(two62)}}},
			wantE: 1,
		},
		{
			name: "self-loops merge",
			s:    EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggMax}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, a, "E", graph.Properties{"w": int64(1)})
				g.MustAddEdge(a, a, "E", graph.Properties{"w": 2.5})
			},
			want:  []superedge{{0, 0, "E", graph.Properties{"members": int64(2), "w": 2.5}}},
			wantE: 1,
		},
		{
			name: "parallel edges of two types stay apart under any type",
			s:    EdgeAggregatorSummarizer{Aggs: map[string]AggFunc{"w": AggMax}},
			build: func(g *graph.Graph, a, b graph.VertexID) {
				g.MustAddEdge(a, b, "X", graph.Properties{"w": int64(2)})
				g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(1)})
				g.MustAddEdge(b, a, "E", nil)
				g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(3)})
			},
			want: []superedge{
				{0, 1, "E", graph.Properties{"members": int64(2), "w": int64(3)}},
				{1, 0, "E", graph.Properties{"members": int64(1)}},
				{0, 1, "X", graph.Properties{"members": int64(1), "w": int64(2)}},
			},
			wantE: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.NewGraph(nil)
			a, b := g.MustAddVertex("V", nil), g.MustAddVertex("V", nil)
			tc.build(g, a, b)
			v, err := tc.s.Materialize(g)
			if err != nil {
				t.Fatal(err)
			}
			if v.NumEdges() != tc.wantE {
				t.Errorf("|E| = %d, want %d", v.NumEdges(), tc.wantE)
			}
			var got []superedge
			var groups []viewGroup
			v.EachEdge(func(e graph.Edge) {
				if tc.s.EType == "" || e.Type == tc.s.EType {
					got = append(got, superedge{e.From, e.To, e.Type, v.EdgeProps(e.ID)})
					// The view keeps every vertex at its base ID.
					id := e.ID
					prop := func(k string) any { return v.EdgeProp(id, k) }
					groups = append(groups, viewGroup{key: []exec.Value{int64(e.From), int64(e.To), e.Type}, prop: prop})
				}
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("superedges = %v, want %v", got, tc.want)
			}
			src := fmt.Sprintf("MATCH (x)-[e%s]->(y) RETURN ID(x), ID(y), TYPE(e), COUNT(e)%s", colonType(tc.s.EType), aggTail("e", tc.s.Aggs))
			checkGroups(t, g, src, groups, append([]string{"members"}, propNames(tc.s.Aggs)...))
		})
	}
}

// TestSubgraphAggregatorSummarizer pins each supervertex, internal edge
// count included, and checks the rest against the vertex aggregate over
// the base graph.
func TestSubgraphAggregatorSummarizer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		aggs  map[string]AggFunc
		build func(g *graph.Graph)
		want  []graph.Properties // supervertices in first-seen order
		wantE int
	}{
		{
			name: "one internal edge, one cross-group edge",
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", graph.Properties{"c": "x"})
				b := g.MustAddVertex("V", graph.Properties{"c": "x"})
				c := g.MustAddVertex("V", graph.Properties{"c": "y"})
				g.MustAddEdge(a, b, "E", nil)
				g.MustAddEdge(b, c, "E", nil)
			},
			want: []graph.Properties{
				{"c": "x", "members": int64(2), "internalEdges": int64(1)},
				{"c": "y", "members": int64(1)},
			},
			wantE: 1,
		},
		{
			name: "int64 1, string 1 and float 1.0 are three groups",
			aggs: map[string]AggFunc{"p": AggAvg},
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", graph.Properties{"c": int64(1), "p": two62})
				b := g.MustAddVertex("V", graph.Properties{"c": int64(1), "p": two62})
				c := g.MustAddVertex("V", graph.Properties{"c": "1"})
				d := g.MustAddVertex("V", graph.Properties{"c": "1"})
				e := g.MustAddVertex("V", graph.Properties{"c": 1.0, "p": 2.5})
				g.MustAddEdge(a, b, "E", nil)
				g.MustAddEdge(c, d, "E", nil)
				g.MustAddEdge(d, c, "E", nil)
				g.MustAddEdge(b, e, "E", nil) // equal values, two groups
			},
			want: []graph.Properties{
				{"c": int64(1), "members": int64(2), "p": float64(two62), "internalEdges": int64(1)},
				{"c": "1", "members": int64(2), "internalEdges": int64(2)},
				{"c": 1.0, "members": int64(1), "p": 2.5},
			},
			wantE: 1,
		},
		{
			name: "a self-loop is not internal mass",
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", graph.Properties{"c": int64(3)})
				b := g.MustAddVertex("V", graph.Properties{"c": int64(3)})
				g.MustAddEdge(a, a, "E", nil)
				g.MustAddEdge(a, b, "E", nil)
			},
			want:  []graph.Properties{{"c": int64(3), "members": int64(2), "internalEdges": int64(1)}},
			wantE: 1,
		},
		{
			name: "no group value forms the null group",
			aggs: map[string]AggFunc{"p": AggMin},
			build: func(g *graph.Graph) {
				a := g.MustAddVertex("V", nil)
				b := g.MustAddVertex("V", nil)
				g.MustAddEdge(a, b, "E", nil)
			},
			want: []graph.Properties{{"members": int64(2), "internalEdges": int64(1)}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.NewGraph(nil)
			tc.build(g)
			s := SubgraphAggregatorSummarizer{VType: "V", GroupBy: "c", Aggs: tc.aggs}
			v, err := s.Materialize(g)
			if err != nil {
				t.Fatal(err)
			}
			checkSupervertices(t, g, v, VertexAggregatorSummarizer{VType: "V", GroupBy: "c", Aggs: tc.aggs}, tc.want)
			if v.NumEdges() != tc.wantE {
				t.Errorf("|E| = %d, want %d", v.NumEdges(), tc.wantE)
			}
		})
	}
}

func TestSummarizerValidation(t *testing.T) {
	g := fig3(t)
	if _, err := (VertexInclusionSummarizer{}).Materialize(g); err == nil {
		t.Error("empty inclusion accepted")
	}
	if _, err := (VertexInclusionSummarizer{Types: []string{"Nope"}}).Materialize(g); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := (VertexAggregatorSummarizer{}).Materialize(g); err == nil {
		t.Error("empty aggregator accepted")
	}
	median := VertexAggregatorSummarizer{VType: "Job", GroupBy: "name", Aggs: map[string]AggFunc{"CPU": "median"}}
	if _, err := Materialize(median, g, 1); err == nil {
		t.Error("unknown agg function accepted")
	}
}

func TestViewMetadata(t *testing.T) {
	vs := []View{
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SameVertexTypeConnector{VType: "Author", MaxLen: 4},
		SameEdgeTypeConnector{EType: "T", MaxLen: 3},
		SourceToSinkConnector{MaxLen: 8},
		VertexInclusionSummarizer{Types: []string{"Job", "File"}},
		VertexRemovalSummarizer{Types: []string{"Task"}},
		EdgeInclusionSummarizer{Types: []string{"W"}},
		EdgeRemovalSummarizer{Types: []string{"W"}},
		VertexAggregatorSummarizer{VType: "Job", GroupBy: "p"},
		EdgeAggregatorSummarizer{EType: "E"},
		SubgraphAggregatorSummarizer{VType: "V", GroupBy: "c"},
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if v.Name() == "" || v.Describe() == "" || v.Cypher() == "" {
			t.Errorf("%T: empty metadata", v)
		}
		if seen[v.Name()] {
			t.Errorf("duplicate view name %s", v.Name())
		}
		seen[v.Name()] = true
		switch v.Kind() {
		case KindConnector, KindSummarizer:
		default:
			t.Errorf("%T: bad kind %s", v, v.Kind())
		}
	}
	// Connector edge-count estimability is exposed for the cost model.
	var ev EstimatableView = KHopConnector{K: 3}
	if ev.PathLength() != 3 {
		t.Error("PathLength")
	}
}

// Invariant: the number of connector edges equals the number of k-length
// edge-unique paths as counted by direct DFS, on random small graphs.
func TestConnectorEdgeCountEqualsPathCount(t *testing.T) {
	soc, err := datagen.SocialNetwork(datagen.SocialConfig{Users: 60, Edges: 200, Exponent: 2.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		v, err := KHopConnector{K: k}.Materialize(soc)
		if err != nil {
			t.Fatal(err)
		}
		want := countPathsDFS(soc, k)
		if v.NumEdges() != want {
			t.Errorf("k=%d: connector edges=%d, DFS path count=%d", k, v.NumEdges(), want)
		}
	}
}

func countPathsDFS(g *graph.Graph, k int) int {
	count := 0
	used := make(map[graph.EdgeID]bool)
	out, _ := naiveRows(g)
	var dfs func(at graph.VertexID, hops int)
	dfs = func(at graph.VertexID, hops int) {
		if hops == k {
			count++
			return
		}
		for _, eid := range out[at] {
			if used[eid] {
				continue
			}
			used[eid] = true
			dfs(g.Edge(eid).To, hops+1)
			used[eid] = false
		}
	}
	for i := 0; i < g.NumVertices(); i++ {
		dfs(graph.VertexID(i), 0)
	}
	return count
}

package views

import (
	"bytes"
	"slices"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// refConnector is a deliberately naive reading of one Table I connector
// over adjacency rows built from the edge list (naiveRows), with no
// pruning: the vertices paths start from, the longest path considered,
// and whether a path (its vertices and edges) is one of the class's
// contracted paths.
type refConnector struct {
	start  func(s graph.VertexID) bool
	maxLen int
	accept func(vs []graph.VertexID, es []graph.EdgeID) bool
	keep   []string // vertex types copied into the view, in copy order (nil = all)
	schema *graph.Schema
	name   string
	dedup  bool
}

// naiveRows lists every vertex's out- and in-edges in edge ID order,
// built by one pass over the edges, independent of the frozen CSR.
func naiveRows(g *graph.Graph) (out, in [][]graph.EdgeID) {
	out = make([][]graph.EdgeID, g.NumVertices())
	in = make([][]graph.EdgeID, g.NumVertices())
	g.EachEdge(func(e graph.Edge) {
		out[e.From] = append(out[e.From], e.ID)
		in[e.To] = append(in[e.To], e.ID)
	})
	return out, in
}

func refOf(t *testing.T, g *graph.Graph, v View) refConnector {
	t.Helper()
	typ := func(id graph.VertexID) string { return g.Vertex(id).Type }
	edgesOf := func(es []graph.EdgeID, types []string) bool {
		for _, e := range es {
			if !slices.Contains(types, g.Edge(e).Type) {
				return false
			}
		}
		return true
	}
	every := func(graph.VertexID) bool { return true }
	r := refConnector{name: v.Name()}
	switch v := v.(type) {
	case KHopConnector:
		// Exactly K hops from a SrcType vertex to a DstType vertex,
		// every hop of an allowed type.
		r.start = func(s graph.VertexID) bool { return v.SrcType == "" || typ(s) == v.SrcType }
		r.maxLen, r.dedup = v.K, v.DedupPairs
		r.accept = func(vs []graph.VertexID, es []graph.EdgeID) bool {
			return len(es) == v.K && (v.DstType == "" || typ(vs[len(vs)-1]) == v.DstType) &&
				(len(v.EdgeTypes) == 0 || edgesOf(es, v.EdgeTypes))
		}
		if v.SrcType != "" && v.DstType != "" {
			r.keep = []string{v.SrcType, v.DstType}
		}
		r.schema = mustConnectorSchema(t, g, v.SrcType, v.DstType, v.Name())
	case SameVertexTypeConnector:
		// Both endpoints VType, no intermediate vertex VType.
		r.start = func(s graph.VertexID) bool { return typ(s) == v.VType }
		r.maxLen, r.dedup = v.MaxLen, v.DedupPairs
		r.accept = func(vs []graph.VertexID, _ []graph.EdgeID) bool {
			for _, mid := range vs[1 : len(vs)-1] {
				if typ(mid) == v.VType {
					return false
				}
			}
			return typ(vs[len(vs)-1]) == v.VType
		}
		r.keep = []string{v.VType}
		r.schema = mustConnectorSchema(t, g, v.VType, v.VType, v.Name())
	case SameEdgeTypeConnector:
		// Every hop an EType edge.
		r.start, r.maxLen, r.dedup = every, v.MaxLen, v.DedupPairs
		r.accept = func(_ []graph.VertexID, es []graph.EdgeID) bool { return edgesOf(es, []string{v.EType}) }
	case SourceToSinkConnector:
		// From an in-degree-0 vertex to an out-degree-0 vertex.
		out, in := naiveRows(g)
		r.start = func(s graph.VertexID) bool { return len(in[s]) == 0 }
		r.maxLen, r.dedup = v.MaxLen, v.DedupPairs
		r.accept = func(vs []graph.VertexID, _ []graph.EdgeID) bool { return len(out[vs[len(vs)-1]]) == 0 }
	default:
		t.Fatalf("%T is not a connector", v)
	}
	return r
}

// mustConnectorSchema derives the view schema; the schema is not what
// the reference checks, so it reuses the production derivation.
func mustConnectorSchema(t *testing.T, g *graph.Graph, src, dst, name string) *graph.Schema {
	t.Helper()
	s, err := connectorSchema(g, src, dst, name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refPaths lists every edge-unique path of 1..maxLen hops from each
// start vertex, sources in ID order and paths in preorder, and visits
// the accepted ones.
func refPaths(g *graph.Graph, r refConnector, visit func(vs []graph.VertexID, es []graph.EdgeID)) {
	out, _ := naiveRows(g)
	var walk func(vs []graph.VertexID, es []graph.EdgeID)
	walk = func(vs []graph.VertexID, es []graph.EdgeID) {
		if len(es) > 0 && r.accept(vs, es) {
			visit(vs, es)
		}
		if len(es) == r.maxLen {
			return
		}
		for _, eid := range out[vs[len(vs)-1]] {
			if !slices.Contains(es, eid) {
				walk(append(vs, g.Edge(eid).To), append(es, eid))
			}
		}
	}
	for s := 0; s < g.NumVertices(); s++ {
		if id := graph.VertexID(s); r.start(id) {
			walk([]graph.VertexID{id}, nil)
		}
	}
}

// refMaterialize builds v's view graph from the reference: the kept
// vertices type by type in ID order, then one edge per accepted path
// (first per endpoint pair under DedupPairs) with ts = max hop ts
// (0 when absent) and hops = path length.
func refMaterialize(t *testing.T, g *graph.Graph, v View) *graph.Graph {
	t.Helper()
	r := refOf(t, g, v)
	out := graph.NewGraph(r.schema)
	remap := make(map[graph.VertexID]graph.VertexID)
	copyVertex := func(id graph.VertexID) {
		vx := g.Vertex(id)
		nid, err := out.AddVertex(vx.Type, vx.Props)
		if err != nil {
			t.Fatal(err)
		}
		remap[id] = nid
	}
	for i, vt := range r.keep {
		if slices.Contains(r.keep[:i], vt) {
			continue
		}
		for s := 0; s < g.NumVertices(); s++ {
			if g.Vertex(graph.VertexID(s)).Type == vt {
				copyVertex(graph.VertexID(s))
			}
		}
	}
	if r.keep == nil {
		for s := 0; s < g.NumVertices(); s++ {
			copyVertex(graph.VertexID(s))
		}
	}
	seen := make(map[[2]graph.VertexID]bool)
	refPaths(g, r, func(vs []graph.VertexID, es []graph.EdgeID) {
		pair := [2]graph.VertexID{remap[vs[0]], remap[vs[len(vs)-1]]}
		if r.dedup && seen[pair] {
			return
		}
		seen[pair] = true
		var ts int64
		for _, e := range es {
			if x, ok := g.EdgeProp(e, "ts").(int64); ok && x > ts {
				ts = x
			}
		}
		if _, err := out.AddEdge(pair[0], pair[1], r.name, graph.Properties{"ts": ts, "hops": int64(len(es))}); err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// Graphs shared by the reference checks below.
func refProv11(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 80, Files: 200, TasksPerJob: 2, Machines: 8, Users: 4,
		MaxReads: 12, Pipelines: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func refProv17(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 70, Files: 180, TasksPerJob: 2, Machines: 8, Users: 4,
		MaxReads: 10, Pipelines: 5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func refDBLP(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.DBLP(datagen.DBLPConfig{
		Authors: 60, Papers: 140, Venues: 6, MaxPerAuthor: 20, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func refSoc(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		Users: 120, Edges: 700, Exponent: 2.3, MaxDegree: 30, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type connectorCase struct {
	name string
	g    *graph.Graph
	def  View
}

// assertMatchesReference pins each case's view graph — vertices, edges,
// insertion order, properties, schema — to the naive reference, both
// from the class's own Materialize and from views.Materialize at every
// worker count of the per-source fan-out. For k-hop connectors,
// CountKHopPaths must count the reference's k-hop paths.
func assertMatchesReference(t *testing.T, cases []connectorCase) {
	t.Helper()
	for _, tc := range cases {
		ref := refMaterialize(t, tc.g, tc.def)
		if ref.NumEdges() == 0 {
			t.Errorf("%s: the reference contracts no path — vacuous case", tc.name)
		}
		want := graphBytes(t, ref)
		seq, err := tc.def.Materialize(tc.g)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", tc.name, err)
		}
		if got := graphBytes(t, seq); !bytes.Equal(got, want) {
			t.Errorf("%s: Materialize differs from the reference (%d vs %d edges)", tc.name, seq.NumEdges(), ref.NumEdges())
		}
		for _, workers := range []int{1, 2, 4, -1} {
			vg, err := Materialize(tc.def, tc.g, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := graphBytes(t, vg); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: view graph differs from the reference (%d vs %d edges)",
					tc.name, workers, vg.NumEdges(), ref.NumEdges())
			}
		}
		if k, ok := tc.def.(KHopConnector); ok {
			// CountKHopPaths walks every edge type.
			var paths int64
			plain := KHopConnector{SrcType: k.SrcType, DstType: k.DstType, K: k.K}
			refPaths(tc.g, refOf(t, tc.g, plain), func([]graph.VertexID, []graph.EdgeID) { paths++ })
			if got := CountKHopPaths(tc.g, k.SrcType, k.DstType, k.K); got != paths {
				t.Errorf("%s: CountKHopPaths = %d, reference %d", tc.name, got, paths)
			}
		}
	}
}

// TestKHopMaterializeParallelMatchesSequential: the per-source fan-out
// of k-hop connectors, typed and untyped, with and without pair dedup
// and an edge-type filter, serializes to the reference's bytes — and so
// to the sequential build's — at every worker count.
func TestKHopMaterializeParallelMatchesSequential(t *testing.T) {
	prov, soc := refProv11(t), refSoc(t)
	assertMatchesReference(t, []connectorCase{
		{"prov-job-job", prov, KHopConnector{SrcType: "Job", DstType: "Job", K: 2}},
		{"prov-dedup", prov, KHopConnector{SrcType: "Job", DstType: "Job", K: 2, DedupPairs: true}},
		{"prov-edge-filtered", prov, KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"WRITES_TO", "IS_READ_BY"}}},
		{"soc-any-any", soc, KHopConnector{K: 2}},
		{"soc-3hop-dedup", soc, KHopConnector{K: 3, DedupPairs: true}},
	})
}

// TestConnectorClassesMaterializeParallelMatchSequential extends the
// same byte-identity to the other Table I classes: same-vertex-type,
// same-edge-type and source-to-sink, with and without pair dedup.
func TestConnectorClassesMaterializeParallelMatchSequential(t *testing.T) {
	prov, dblp := refProv17(t), refDBLP(t)
	assertMatchesReference(t, []connectorCase{
		{"samevt-author", dblp, SameVertexTypeConnector{VType: "Author", MaxLen: 2}},
		{"samevt-author-dedup", dblp, SameVertexTypeConnector{VType: "Author", MaxLen: 3, DedupPairs: true}},
		{"samevt-job", prov, SameVertexTypeConnector{VType: "Job", MaxLen: 2}},
		{"sameet-writes", prov, SameEdgeTypeConnector{EType: "WRITES_TO", MaxLen: 3}},
		{"sameet-authored-dedup", dblp, SameEdgeTypeConnector{EType: "AUTHORED", MaxLen: 2, DedupPairs: true}},
		{"srcsink", prov, SourceToSinkConnector{MaxLen: 4}},
		{"srcsink-dedup", prov, SourceToSinkConnector{MaxLen: 5, DedupPairs: true}},
	})
}

// TestConnectorsMatchReference covers the shapes the two tests above
// leave out: half-typed and multi-type-filtered k-hop connectors, k-hop
// over dblp, and paths that pass an intermediate VType vertex — plus
// CountKHopPaths on degenerate inputs.
func TestConnectorsMatchReference(t *testing.T) {
	prov11, prov17, dblp, soc := refProv11(t), refProv17(t), refDBLP(t), refSoc(t)
	assertMatchesReference(t, []connectorCase{
		{"prov-multi-type-untyped", prov11, KHopConnector{K: 3, EdgeTypes: []string{"SPAWNS", "TRANSFERS_TO", "RUNS_ON"}}},
		{"prov-single-type", prov11, KHopConnector{SrcType: "Task", DstType: "Task", K: 2, EdgeTypes: []string{"TRANSFERS_TO"}}},
		{"prov-job-file", prov11, KHopConnector{SrcType: "Job", DstType: "File", K: 3}},
		{"prov-src-typed", prov11, KHopConnector{SrcType: "Job", K: 2}},
		{"prov-dst-typed", prov11, KHopConnector{DstType: "Job", K: 2}},
		{"dblp-author-author", dblp, KHopConnector{SrcType: "Author", DstType: "Author", K: 2}},
		// Paths that pass an intermediate VType vertex exist only here.
		{"samevt-author-4", dblp, SameVertexTypeConnector{VType: "Author", MaxLen: 4}},
		{"samevt-user", soc, SameVertexTypeConnector{VType: "User", MaxLen: 3}},
		{"sameet-transfers", prov17, SameEdgeTypeConnector{EType: "TRANSFERS_TO", MaxLen: 3}},
		{"soc-srcsink", soc, SourceToSinkConnector{MaxLen: 3}},
	})
	for _, k := range []int{0, -1} {
		if got := CountKHopPaths(prov11, "Job", "Job", k); got != 0 {
			t.Errorf("CountKHopPaths(k=%d) = %d, want 0", k, got)
		}
	}
	if got := CountKHopPaths(prov11, "Nope", "", 2); got != 0 {
		t.Errorf("CountKHopPaths over an unknown type = %d, want 0", got)
	}
}

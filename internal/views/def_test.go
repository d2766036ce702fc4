package views

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"kaskade/internal/graph"
)

// compileCases pairs every DDL-expressible Table I/II view class (all
// but the same-vertex-type connector) with its canonical defining
// pattern. The same table drives the classification test, the
// canonical round-trip test, and the materialization equivalence suite.
var compileCases = []struct {
	name string
	src  string
	want View
}{
	{"khop", `MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`,
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2}},
	{"khop-any", `MATCH (x)-[p*3..3]->(y) RETURN x, y`,
		KHopConnector{K: 3}},
	{"khop-edge-typed", `MATCH (x:Job)-[p:W*2..2]->(y:Job) RETURN x, y`,
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"W"}}},
	{"same-edge-type", `MATCH (x)-[p:T*1..5]->(y) RETURN x, y`,
		SameEdgeTypeConnector{EType: "T", MaxLen: 5}},
	{"source-to-sink", `MATCH (x)-[p*1..6]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		SourceToSinkConnector{MaxLen: 6}},
	{"vertex-inclusion", `MATCH (v) WHERE LABEL(v) = 'File' OR LABEL(v) = 'Job' RETURN v`,
		VertexInclusionSummarizer{Types: []string{"File", "Job"}}},
	{"vertex-removal", `MATCH (v) WHERE NOT (LABEL(v) = 'Task') RETURN v`,
		VertexRemovalSummarizer{Types: []string{"Task"}}},
	{"edge-inclusion", `MATCH (x)-[e]->(y) WHERE TYPE(e) = 'R' OR TYPE(e) = 'W' RETURN x, e, y`,
		EdgeInclusionSummarizer{Types: []string{"R", "W"}}},
	{"edge-removal", `MATCH (x)-[e]->(y) WHERE NOT (TYPE(e) = 'W') RETURN x, e, y`,
		EdgeRemovalSummarizer{Types: []string{"W"}}},
	{"vertex-aggregator", `MATCH (v:Job) RETURN v.pipeline, COUNT(v), MAX(v.ts), SUM(v.cpu)`,
		VertexAggregatorSummarizer{VType: "Job", GroupBy: "pipeline", Aggs: map[string]AggFunc{"cpu": AggSum, "ts": AggMax}}},
	{"edge-aggregator", `MATCH (x)-[e:W]->(y) RETURN x, y, COUNT(e), SUM(e.ts)`,
		EdgeAggregatorSummarizer{EType: "W", Aggs: map[string]AggFunc{"ts": AggSum}}},
	{"edge-aggregator-any", `MATCH (x)-[e]->(y) RETURN x, y, COUNT(e)`,
		EdgeAggregatorSummarizer{}},
	{"subgraph-aggregator", `MATCH (v:Job)-[e]->(w:Job) WHERE v.pipeline = w.pipeline RETURN v.pipeline, COUNT(v)`,
		SubgraphAggregatorSummarizer{VType: "Job", GroupBy: "pipeline"}},
}

func TestCompilePatternClasses(t *testing.T) {
	for _, tc := range compileCases {
		v, err := Compile(tc.src)
		if err != nil {
			t.Errorf("%s: Compile(%q): %v", tc.name, tc.src, err)
			continue
		}
		if !reflect.DeepEqual(v, tc.want) {
			t.Errorf("%s: Compile(%q) = %#v, want %#v", tc.name, tc.src, v, tc.want)
		}
	}
}

// TestCanonicalPatternRoundTrip pins the inverse pair: rendering a
// view's canonical pattern and compiling it yields the view back, for
// every class.
func TestCanonicalPatternRoundTrip(t *testing.T) {
	for _, tc := range compileCases {
		pat, err := CanonicalPattern(tc.want)
		if err != nil {
			t.Errorf("%s: CanonicalPattern: %v", tc.name, err)
			continue
		}
		back, err := Compile(pat)
		if err != nil {
			t.Errorf("%s: canonical pattern %q does not compile: %v", tc.name, pat, err)
			continue
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("%s: round trip %q = %#v, want %#v", tc.name, pat, back, tc.want)
		}
		// Cypher() is the canonical pattern for DDL-expressible views.
		if got := tc.want.Cypher(); got != pat {
			t.Errorf("%s: Cypher() = %q, canonical = %q", tc.name, got, pat)
		}
	}
}

func TestCanonicalPatternEscapeHatches(t *testing.T) {
	// Options outside the DDL surface refuse a canonical pattern
	// instead of rendering something that compiles to a different view.
	for _, v := range []View{
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2, DedupPairs: true},
		KHopConnector{K: 2, EdgeTypes: []string{"A", "B"}},
		SameEdgeTypeConnector{EType: "E", MaxLen: 3, DedupPairs: true},
		SourceToSinkConnector{MaxLen: 3, DedupPairs: true},
		// *1..1 compiles to the 1-hop connector, another view.
		SameEdgeTypeConnector{EType: "E", MaxLen: 1},
		// The class stops at an intermediate V; its pattern would not.
		SameVertexTypeConnector{VType: "V", MaxLen: 3},
		SameVertexTypeConnector{VType: "V", MaxLen: 3, DedupPairs: true},
	} {
		if pat, err := CanonicalPattern(v); err == nil {
			t.Errorf("%s: CanonicalPattern = %q, want error", v.Name(), pat)
		}
		// Cypher still renders display text.
		if v.Cypher() == "" {
			t.Errorf("%s: Cypher fallback is empty", v.Name())
		}
	}
	// Define carries the DDL only where derivable.
	if d := Define(KHopConnector{K: 2, DedupPairs: true}); d.DDL != "" {
		t.Errorf("Define(DedupPairs).DDL = %q, want empty", d.DDL)
	}
	d := Define(KHopConnector{SrcType: "Job", DstType: "Job", K: 2})
	if d.Name != "CONN_2HOP_Job_Job" || !strings.HasPrefix(d.DDL, "CREATE MATERIALIZED VIEW CONN_2HOP_Job_Job AS MATCH") {
		t.Errorf("Define = %+v", d)
	}
}

func TestCompilePatternErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the error
	}{
		{`SELECT a FROM (MATCH (a) RETURN a)`, "bare MATCH pattern"},
		{`MATCH (a)-[p*]->(b) RETURN a, b`, "bounded hop range"},
		{`MATCH (a)-[p*2..4]->(b) RETURN a, b`, "outside the Table I/II view inventory"},
		{`MATCH (a:X)-[p*1..4]->(b:Y) RETURN a, b`, "outside the Table I/II view inventory"},
		{`MATCH (a:X)-[p*1..4]->(b:X) RETURN a, b`, "first intermediate X vertex; build SameVertexTypeConnector through the struct API"},
		{`MATCH (a)<-[p*2..2]-(b) RETURN a, b`, "reversed"},
		{`MATCH (a)-[p*2..2]->(b) RETURN a`, "RETURN exactly a, b"},
		{`MATCH (a)-[p*2..2]->(b) RETURN b, a`, "RETURN exactly a, b"},
		{`MATCH (a)-[p*2..2]->(b)-[q*2..2]->(c) RETURN a, c`, "3-node path"},
		{`MATCH (a)-[p*2..2]->(b) (c)-[q*2..2]->(d) RETURN a, b`, "2-pattern MATCH"},
		{`MATCH (a)-[p*1..4]->(b) WHERE INDEGREE(a) = 0 RETURN a, b`, "INDEGREE"},
		{`MATCH (a)-[p*1..4]->(b) WHERE INDEGREE(a) = 1 AND OUTDEGREE(b) = 0 RETURN a, b`, "INDEGREE"},
		{`MATCH (v) WHERE v.kind = 'x' RETURN v`, "LABEL(v)"},
		{`MATCH (v) WHERE LABEL(v) = 'A' AND LABEL(v) = 'B' RETURN v`, "operator AND"},
		{`MATCH (v) WHERE LABEL(v) = 7 RETURN v`, "string literal"},
		{`MATCH (v) RETURN v`, "untyped vertex pattern"},
		{`MATCH (v:Job) RETURN v.g`, "COUNT"},
		{`MATCH (v:Job) RETURN v.g, COUNT(*)`, "COUNT(v)"},
		{`MATCH (v:Job) RETURN v.g, COUNT(v), FOO(v.x)`, "unknown aggregation function"},
		{`MATCH (v:Job) RETURN v.g, COUNT(v), SUM(w.x)`, "properties of v"},
		{`MATCH (v:Job) RETURN v.g, COUNT(v), SUM(v.x), MAX(v.x)`, "aggregated twice"},
		{`MATCH (x)-[]->(y) RETURN x, y`, "anonymous edge"},
		{`MATCH (x)-[e]->(y) RETURN x, y`, "without a filter or aggregation"},
		{`MATCH (x:A)-[e]->(y:B) WHERE x.g = y.g RETURN x.g, COUNT(x)`, "not one vertex type"},
		{`MATCH (x:A)-[e]->(y:A) WHERE x.g = y.h RETURN x.g, COUNT(x)`, "typed pattern with an edge WHERE filter"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("Compile(%q): want error, got nil", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) error %q does not mention %q", tc.src, err, tc.want)
		}
	}
}

// defTestGraph builds a small heterogeneous graph with enough type and
// property variety to exercise every view class.
func defTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(nil)
	type vspec struct {
		typ   string
		props graph.Properties
	}
	var ids []graph.VertexID
	for i, vs := range []vspec{
		{"Job", graph.Properties{"pipeline": "p1", "cpu": int64(10), "ts": int64(3)}},
		{"Job", graph.Properties{"pipeline": "p1", "cpu": int64(20), "ts": int64(9)}},
		{"Job", graph.Properties{"pipeline": "p2", "cpu": int64(5), "ts": int64(1)}},
		{"File", graph.Properties{"sz": int64(1)}},
		{"File", graph.Properties{"sz": int64(2)}},
		{"Task", graph.Properties{}},
		{"Author", graph.Properties{}},
		{"Author", graph.Properties{}},
	} {
		id, err := g.AddVertex(vs.typ, vs.props)
		if err != nil {
			t.Fatalf("vertex %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	type espec struct {
		from, to int
		typ      string
		ts       int64
	}
	for i, es := range []espec{
		{0, 3, "W", 1}, {3, 1, "R", 2}, {1, 4, "W", 3}, {4, 2, "R", 4},
		{0, 4, "W", 5}, {2, 5, "T", 6}, {5, 0, "T", 7},
		{6, 3, "T", 8}, {3, 7, "T", 9}, {0, 1, "W", 10}, {0, 1, "W", 11},
		{7, 6, "R", 12},
	} {
		if _, err := g.AddEdge(ids[es.from], ids[es.to], es.typ, graph.Properties{"ts": es.ts}); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	return g
}

// graphBytes serializes a graph for byte-identity comparison.
func graphBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := graph.Save(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDDLMaterializationEquivalence is the round-trip equivalence
// suite: for every view class, the DDL-compiled view must materialize a
// view graph byte-identical to the struct-built equivalent, sequential
// and parallel.
func TestDDLMaterializationEquivalence(t *testing.T) {
	g := defTestGraph(t)
	for _, tc := range compileCases {
		compiled, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantG, err := tc.want.Materialize(g)
		if err != nil {
			t.Fatalf("%s: struct materialize: %v", tc.name, err)
		}
		want := graphBytes(t, wantG)
		for _, workers := range []int{1, 4} {
			gotG, err := Materialize(compiled, g, workers)
			if err != nil {
				t.Fatalf("%s w=%d: ddl materialize: %v", tc.name, workers, err)
			}
			if got := graphBytes(t, gotG); !bytes.Equal(got, want) {
				t.Errorf("%s w=%d: DDL-built view graph differs from struct-built", tc.name, workers)
			}
		}
	}
}

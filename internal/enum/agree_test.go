package enum

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/rewrite"
	"kaskade/internal/views"
)

// adhocShapes are the four ad hoc query shapes of the repository
// benchmark's planning workload: selective scans, a grouped count and a
// one-hop join.
var adhocShapes = []string{
	`MATCH (j:Job) WHERE j.CPU > 999 RETURN j.name AS name, j.CPU AS cpu`,
	`MATCH (f:File) WHERE f.size < 1000 RETURN f.name AS name, f.size AS size`,
	`MATCH (j:Job) WHERE j.pipelineName = "pipeline0" AND j.CPU > 0 RETURN COUNT(*) AS n`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = "job100" RETURN f.name AS name`,
}

// workloadShapes are pattern-query forms of the Table IV workload, Q1-Q8,
// over a dataset whose per-source queries anchor at type {T}: a 2-hop
// connection (Q1's contraction), ancestors and descendants (Q2, Q3),
// path lengths (Q4), edge and vertex counts (Q5, Q6) and community
// membership and size (Q7, Q8).
var workloadShapes = []string{
	`MATCH (a:{T})-[r*2..2]->(b:{T}) RETURN a, b`,
	`MATCH (a:{T})<-[r*1..4]-(b:{T}) RETURN a, b`,
	`MATCH (a:{T})-[r*1..4]->(b:{T}) RETURN a, b`,
	`MATCH (a:{T})-[r*1..4]->(b:{T}) RETURN a, COUNT(b) AS n`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (v) RETURN COUNT(*) AS n`,
	`MATCH (v:{T}) RETURN v.community AS c, COUNT(v) AS n`,
	`MATCH (v:{T})-[e]->(w:{T}) WHERE v.community = w.community RETURN v.community AS c, COUNT(w) AS n`,
}

type corpusCase struct {
	name   string
	schema *graph.Schema
	maxK   int
	query  gql.Query
}

// quotedSchema's type names carry a quote and a backslash.
func quotedSchema() *graph.Schema {
	return graph.MustSchema(
		[]string{"Job", "O'Brien", `Back\slash`},
		[]graph.EdgeType{
			{From: "Job", To: "O'Brien", Name: "OWNS"},
			{From: `Back\slash`, To: "Job", Name: "RUNS"},
		},
	)
}

// ownsQuery is a Job-OWNS->O'Brien join. The query language has no
// quoted labels, so the quoted type is set by editing the parsed pattern.
func ownsQuery() gql.Query {
	q := gql.MustParse(`MATCH (j:Job)-[:OWNS]->(o:Owner) RETURN j, o`)
	q.(*gql.MatchQuery).Patterns[0].Nodes[1].Type = "O'Brien"
	return q
}

// oracleCorpus is the enum tests' queries, the ad hoc planning shapes,
// the Q1-Q8 shapes over the four datasets' schemas, the service mix's
// unprojected 2-hop count (on soc, where its Job type does not exist, it
// matches nothing), a read path variable, a chain with a step no schema
// walk agrees with, and the quoted-name schema.
func oracleCorpus() []corpusCase {
	lineage, prov, soc := lineageSchema(), datagen.ProvSchema(), datagen.SocialSchema()
	jobs := gql.MustParse(`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN COUNT(*) AS n`)
	cases := []corpusCase{
		{"blast/lineage", lineage, 10, gql.MustParse(blastRadius)},
		{"blast/prov", prov, 10, gql.MustParse(blastRadius)},
		{"blast/prov/k8", prov, 8, gql.MustParse(blastRadius)},
		{"chain/lineage/k6", lineage, 6, gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(b:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`)},
		{"jobs/prov", prov, 0, jobs},
		{"jobs/soc", soc, 0, jobs},
		{"path/prov", prov, 0, gql.MustParse(`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN LENGTH(p) AS l, COUNT(*) AS n`)},
		{"nothing/lineage", lineage, 3, gql.MustParse(
			`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(g:Job)-[:OWNS]->(b:Job) RETURN a, b`)},
		{"quoted/job", quotedSchema(), 0, gql.MustParse(`MATCH (j:Job) RETURN j`)},
		{"quoted/owns", quotedSchema(), 0, ownsQuery()},
	}
	for i, text := range adhocShapes {
		cases = append(cases, corpusCase{fmt.Sprintf("adhoc/%d", i), prov, 0, gql.MustParse(text)})
	}
	for _, ds := range []struct {
		name   string
		schema *graph.Schema
		source string
	}{
		{"prov", prov, "Job"},
		{"dblp", datagen.DBLPSchema(), "Author"},
		{"roadnet", datagen.RoadNetSchema(), "Intersection"},
		{"soc", soc, "User"},
	} {
		if ds.name == "prov" {
			cases = append(cases, corpusCase{"Q1/prov", ds.schema, 0, gql.MustParse(blastRadius)})
		}
		for i, shape := range workloadShapes {
			cases = append(cases, corpusCase{
				fmt.Sprintf("Q%d/%s", i+1, ds.name), ds.schema, 0, gql.MustParse(strings.ReplaceAll(shape, "{T}", ds.source)),
			})
		}
	}
	return cases
}

// typeSets returns every subset of names, the empty one included, each
// in names' order.
func typeSets(names []string) [][]string {
	var out [][]string
	for mask := 0; mask < 1<<len(names); mask++ {
		var set []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				set = append(set, n)
			}
		}
		out = append(out, set)
	}
	return out
}

// viewSpace is the bounded view space the oracle sends through
// rewrite.Apply: a typed k-hop connector for every vertex-type pair at
// k = 2..maxK, vertex inclusion and removal over every vertex type set,
// and edge inclusion over every edge type set. The empty sets, which
// enumeration never proposes, tell a pattern that binds no type of a
// class from one that binds the only type of a one-type schema.
func viewSpace(schema *graph.Schema, maxK int) []views.View {
	var out []views.View
	vertexTypes := schema.VertexTypes()
	for _, src := range vertexTypes {
		for _, dst := range vertexTypes {
			for k := 2; k <= maxK; k++ {
				out = append(out, views.KHopConnector{SrcType: src, DstType: dst, K: k})
			}
		}
	}
	for _, set := range typeSets(vertexTypes) {
		out = append(out, views.VertexInclusionSummarizer{Types: set}, views.VertexRemovalSummarizer{Types: set})
	}
	var edgeTypes []string
	for _, e := range schema.EdgeTypes() {
		if !slices.Contains(edgeTypes, e.Name) {
			edgeTypes = append(edgeTypes, e.Name)
		}
	}
	for _, set := range typeSets(edgeTypes) {
		out = append(out, views.EdgeInclusionSummarizer{Types: set})
	}
	return out
}

// bindsNothing reports whether some step of q's pattern — one edge
// pattern, or a lone vertex — binds nothing on the schema: Apply refuses
// that step alone even the filter that drops nothing.
func bindsNothing(q gql.Query, schema *graph.Schema) bool {
	var dropNone views.VertexRemovalSummarizer
	for _, p := range gql.InnermostMatch(q).Patterns {
		var parts []gql.PathPattern
		if len(p.Edges) == 0 {
			parts = append(parts, p)
		}
		for i, e := range p.Edges {
			parts = append(parts, gql.PathPattern{Nodes: p.Nodes[i : i+2], Edges: []gql.EdgePattern{e}})
		}
		for _, part := range parts {
			if _, err := rewrite.Apply(&gql.MatchQuery{Patterns: []gql.PathPattern{part}}, dropNone, schema); err != nil {
				return true
			}
		}
	}
	return false
}

// types returns a type filter's type set.
func types(v views.View) []string {
	switch v := v.(type) {
	case views.VertexInclusionSummarizer:
		return v.Types
	case views.VertexRemovalSummarizer:
		return v.Types
	case views.EdgeInclusionSummarizer:
		return v.Types
	}
	return nil
}

func subset(a, b []string) bool {
	for _, t := range a {
		if !slices.Contains(b, t) {
			return false
		}
	}
	return true
}

// TestEnumerateAgreesWithApply: enumeration is the inverse of
// rewrite.Apply over the bounded view space. Every candidate is one
// Apply accepts. For a pattern that binds something, every accepted
// connector is enumerated, and so is the smallest accepted filter of
// each class: its keep set is the intersection of the accepted keep
// sets (a subset of each), its drop set the union of the accepted drop
// sets (a superset of each). A pattern with a step that binds nothing
// gets no candidate, and Apply accepts no view for it.
func TestEnumerateAgreesWithApply(t *testing.T) {
	proposedKinds := map[string]bool{}
	empty := 0
	for _, c := range oracleCorpus() {
		e := &Enumerator{Schema: c.schema, MaxK: c.maxK}
		res, err := e.Enumerate(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		proposed := map[string]views.View{} // the filter candidates, by class
		names := map[string]bool{}
		for _, cand := range res.Candidates {
			proposed[fmt.Sprintf("%T", cand.View)] = cand.View
			proposedKinds[fmt.Sprintf("%T", cand.View)] = true
			names[cand.View.Name()] = true
			if _, err := rewrite.Apply(c.query, cand.View, c.schema); err != nil {
				t.Errorf("%s: candidate %s is refused: %v", c.name, cand.View.Name(), err)
			}
		}
		maxK := c.maxK
		if maxK == 0 {
			maxK = DefaultMaxK
		}
		if bindsNothing(c.query, c.schema) {
			empty++
			if len(res.Candidates) > 0 {
				t.Errorf("%s: the pattern binds nothing, yet %d candidates", c.name, len(res.Candidates))
			}
			for _, v := range viewSpace(c.schema, maxK) {
				if _, err := rewrite.Apply(c.query, v, c.schema); err == nil {
					t.Errorf("%s: the pattern binds nothing, yet Apply accepts %s", c.name, v.Name())
				}
			}
			continue
		}
		accepted := map[string][][]string{} // type sets of accepted filters, by class
		for _, v := range viewSpace(c.schema, maxK) {
			if _, err := rewrite.Apply(c.query, v, c.schema); err != nil {
				continue
			}
			if _, ok := v.(views.KHopConnector); ok && !names[v.Name()] {
				t.Errorf("%s: accepted connector %s is not enumerated", c.name, v.Name())
			}
			kind := fmt.Sprintf("%T", v)
			accepted[kind] = append(accepted[kind], types(v))
		}
		// The smallest accepted filter of a class keeps the types every
		// accepted one keeps, or drops the types any accepted one drops;
		// an empty smallest set is not enumerated.
		for _, kind := range []string{"views.VertexInclusionSummarizer", "views.VertexRemovalSummarizer", "views.EdgeInclusionSummarizer"} {
			var want []string
			for i, set := range accepted[kind] {
				switch {
				case kind == "views.VertexRemovalSummarizer":
					for _, ty := range set {
						if !slices.Contains(want, ty) {
							want = append(want, ty)
						}
					}
				case i == 0:
					want = slices.Clone(set)
				default:
					want = slices.DeleteFunc(want, func(ty string) bool { return !slices.Contains(set, ty) })
				}
			}
			var got []string
			if p, ok := proposed[kind]; ok {
				got = types(p)
			}
			if len(got) != len(want) || !subset(got, want) {
				t.Errorf("%s: enumerated %s types %q, want the smallest accepted filter's %q", c.name, kind, got, want)
			}
		}
	}
	if len(proposedKinds) != 4 || empty == 0 {
		t.Errorf("the corpus enumerates %d view classes, want 4, and %d patterns that bind nothing", len(proposedKinds), empty)
	}
}

// TestEnumerateWarmAllocations guards the enumeration path: the one-hop
// ad hoc join allocates only for its own typing and the rule checks of
// its three candidates, about 110 objects.
func TestEnumerateWarmAllocations(t *testing.T) {
	e := &Enumerator{Schema: datagen.ProvSchema()}
	q := gql.MustParse(adhocShapes[3])
	if _, err := e.Enumerate(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Enumerate(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("warm Enumerate allocates %.0f objects/op, want <= 150", allocs)
	}
}

// TestQuotedSchemaNames enumerates over a schema whose type names carry a
// quote and a backslash: the summarizers must name those types exactly.
func TestQuotedSchemaNames(t *testing.T) {
	e := &Enumerator{Schema: quotedSchema()}
	summarizers := func(q gql.Query) map[string][]string {
		t.Helper()
		res, err := e.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for _, c := range res.Candidates {
			switch v := c.View.(type) {
			case views.VertexRemovalSummarizer:
				out["remove"] = v.Types
			case views.VertexInclusionSummarizer:
				out["keep"] = v.Types
			}
		}
		return out
	}
	if got, want := summarizers(gql.MustParse(`MATCH (j:Job) RETURN j`))["remove"], []string{`Back\slash`, "O'Brien"}; !reflect.DeepEqual(got, want) {
		t.Errorf("removable types = %q, want %q", got, want)
	}
	if got, want := summarizers(ownsQuery())["keep"], []string{"Job", "O'Brien"}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept types = %q, want %q", got, want)
	}
}

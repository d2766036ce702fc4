package enum

import (
	"reflect"
	"slices"
	"testing"

	"kaskade/internal/constraints"
	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

func lineageSchema() *graph.Schema {
	return graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	)
}

const blastRadius = `
SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 AS A, q_j2 AS B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`

// TestBlastRadiusEnumeration reproduces §IV-B's worked example against
// the rewrite rule: for the Listing 1 query over the 2-type lineage
// schema with k ≤ 10, the only k-hop connector enumerated is the
// job-to-job one with K = 2. Every even length from 2 to 10 is a
// job-to-job walk, and only 2 divides them all; the K ∈ {4, 6, 8, 10}
// instantiations the schema also admits answer the query for no length
// below K, so the rule refuses them.
func TestBlastRadiusEnumeration(t *testing.T) {
	e := &Enumerator{Schema: lineageSchema(), MaxK: 10}
	res, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	var conns []views.KHopConnector
	for _, c := range res.Candidates {
		if kc, ok := c.View.(views.KHopConnector); ok {
			conns = append(conns, kc)
		}
	}
	want := []views.KHopConnector{{SrcType: "Job", DstType: "Job", K: 2}}
	if !reflect.DeepEqual(conns, want) {
		t.Errorf("connectors = %+v, want %+v", conns, want)
	}
}

func TestEnumerationIncludesSummarizers(t *testing.T) {
	// Over the full prov schema, the blast-radius query only touches
	// Job and File, so the enumerator should propose keeping those and
	// removing Task/Machine/User.
	e := &Enumerator{Schema: datagen.ProvSchema(), MaxK: 10}
	res, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	var keep *views.VertexInclusionSummarizer
	var remove *views.VertexRemovalSummarizer
	var keepEdges *views.EdgeInclusionSummarizer
	for _, c := range res.Candidates {
		switch v := c.View.(type) {
		case views.VertexInclusionSummarizer:
			keep = &v
		case views.VertexRemovalSummarizer:
			remove = &v
		case views.EdgeInclusionSummarizer:
			keepEdges = &v
		}
	}
	if keep == nil || len(keep.Types) != 2 {
		t.Fatalf("vertex-inclusion candidate = %v", keep)
	}
	if keep.Types[0] != "File" || keep.Types[1] != "Job" {
		t.Errorf("kept types = %v", keep.Types)
	}
	if remove == nil || len(remove.Types) != 3 {
		t.Fatalf("vertex-removal candidate = %v", remove)
	}
	if keepEdges == nil || len(keepEdges.Types) != 2 {
		t.Fatalf("edge-inclusion candidate = %v", keepEdges)
	}
}

// TestHomogeneousEnumeration: on the one-type soc schema every length
// is a User-to-User walk. Ancestors up to 4 hops (Q2) match lengths no
// connector with K > 1 covers, so none is enumerated; exactly 4 hops is
// answered by K = 2 and K = 4, not by K = 3.
func TestHomogeneousEnumeration(t *testing.T) {
	e := &Enumerator{Schema: datagen.SocialSchema(), MaxK: 10}
	for _, tc := range []struct {
		query string
		want  []int
	}{
		{`MATCH (a:User)-[r*1..4]->(b:User) RETURN a, b`, nil},
		{`MATCH (a:User)-[r*4..4]->(b:User) RETURN a, b`, []int{2, 4}},
	} {
		res, err := e.Enumerate(gql.MustParse(tc.query))
		if err != nil {
			t.Fatal(err)
		}
		var gotK []int
		for _, c := range res.Candidates {
			if kc, ok := c.View.(views.KHopConnector); ok {
				gotK = append(gotK, kc.K)
			}
		}
		if !slices.Equal(gotK, tc.want) {
			t.Errorf("%s: connector K = %v, want %v", tc.query, gotK, tc.want)
		}
	}
}

// TestEnumerateCyclicPatterns: a pattern that closes a cycle is not one
// simple chain, so no connector is enumerated for it, and enumeration
// ends.
func TestEnumerateCyclicPatterns(t *testing.T) {
	e := &Enumerator{Schema: lineageSchema(), MaxK: 10}
	for _, src := range []string{
		`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(x) RETURN x`,
		`MATCH (x:Job)-[r*1..4]->(x) RETURN x`,
		`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job)-[:WRITES_TO]->(g:File)-[:IS_READ_BY]->(x) RETURN x, y`,
	} {
		res, err := e.Enumerate(gql.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, c := range res.Candidates {
			if kc, ok := c.View.(views.KHopConnector); ok {
				t.Errorf("%s: unexpected connector %+v", src, kc)
			}
		}
	}
}

// TestConstraintInjectionPrunes backs the §IV-A2 claim: typed by the
// query, enumeration proposes far fewer views than the schema walks an
// unconstrained enumeration searches over a cyclic schema (which grow
// like M^k).
func TestConstraintInjectionPrunes(t *testing.T) {
	schema := datagen.ProvSchema() // has a Task->Task self-loop: cyclic
	e := &Enumerator{Schema: schema, MaxK: 8}
	res, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	unconstrained := constraints.SchemaWalks(schema.EdgeTypes(), 8)
	if len(res.Candidates)*4 >= unconstrained {
		t.Errorf("enumeration (%d candidates) should be far below unconstrained (%d schema walks)",
			len(res.Candidates), unconstrained)
	}
}

func TestProceduralMatchesDeclarative(t *testing.T) {
	// Alg. 1 and the walk count agree on the k-hop schema paths of the
	// lineage schema.
	schema := lineageSchema()
	paths, _ := constraints.KHopSchemaPathsProcedural(schema.EdgeTypes(), 2)
	// Job->File->Job and File->Job->File.
	if len(paths) != 2 {
		t.Fatalf("procedural 2-hop paths = %d, want 2", len(paths))
	}
	if walks := constraints.SchemaWalks(schema.EdgeTypes(), 2); walks != 2 {
		t.Errorf("2-hop schema walks = %d, want 2", walks)
	}
}

func TestEnumerateErrors(t *testing.T) {
	e := &Enumerator{Schema: nil}
	if _, err := e.Enumerate(gql.MustParse(`MATCH (a:Job) RETURN a`)); err == nil {
		t.Error("nil schema should error (enumeration types the query against it)")
	}
}

func TestEnumerationDeterminism(t *testing.T) {
	e := &Enumerator{Schema: lineageSchema(), MaxK: 10}
	r1, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Candidates) != len(r2.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(r1.Candidates), len(r2.Candidates))
	}
	for i := range r1.Candidates {
		if r1.Candidates[i].View.Name() != r2.Candidates[i].View.Name() {
			t.Errorf("candidate %d differs: %s vs %s", i,
				r1.Candidates[i].View.Name(), r2.Candidates[i].View.Name())
		}
	}
}

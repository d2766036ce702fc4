package enum

import (
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

// TestBlastRadiusEnumeration reproduces §IV-B's worked example: for the
// Listing 1 query over the 2-type lineage schema with k ≤ 10, the
// kHopConnector template instantiates exactly for (q_j1, q_j2, Job, Job)
// with K ∈ {2, 4, 6, 8, 10} (only even K is schema-feasible).
func TestBlastRadiusEnumeration(t *testing.T) {
	e := &Enumerator{Schema: lineageSchema(), MaxK: 10}
	res, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	gotK := map[int]bool{}
	for _, c := range res.Candidates {
		if c.Template != "kHopConnector" {
			continue
		}
		kc := c.View.(views.KHopConnector)
		if kc.SrcType != "Job" || kc.DstType != "Job" {
			// q_f1/q_f2 are not projected out of the MATCH clause, so
			// only job-to-job connectors are valid instantiations.
			t.Errorf("unexpected connector %s", kc.Name())
			continue
		}
		if len(kc.EdgeTypes) > 0 || kc.DedupPairs {
			t.Errorf("job connector %s carries options the template never sets: %+v", kc.Name(), kc)
		}
		gotK[kc.K] = true
	}
	for _, k := range []int{2, 4, 6, 8, 10} {
		if !gotK[k] {
			t.Errorf("missing job-to-job K=%d instantiation", k)
		}
	}
	for k := range gotK {
		if k%2 != 0 {
			t.Errorf("odd K=%d enumerated; schema only allows even job-job paths", k)
		}
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

func TestHomogeneousEnumeration(t *testing.T) {
	// Q2-style: ancestors up to 4 hops on the social graph.
	e := &Enumerator{Schema: datagen.SocialSchema(), MaxK: 10}
	res, err := e.Enumerate(gql.MustParse(`MATCH (a:User)-[r*1..4]->(b:User) RETURN a, b`))
	if err != nil {
		t.Fatal(err)
	}
	gotK := map[int]bool{}
	for _, c := range res.Candidates {
		if c.Template == "kHopConnector" {
			gotK[c.View.(views.KHopConnector).K] = true
		}
	}
	// All of K=2..4 are schema-feasible on a homogeneous schema (K=1 is
	// the base edge, excluded).
	for _, k := range []int{2, 3, 4} {
		if !gotK[k] {
			t.Errorf("missing K=%d on homogeneous schema", k)
		}
	}
	if gotK[5] {
		t.Error("K=5 enumerated beyond the query's 4-hop bound")
	}
}

// TestEnumerateCyclicPatterns: a pattern that closes a cycle has
// finitely many query paths, so enumeration ends (it used to exhaust the
// inference step budget). The k-hop template still proposes only
// Job-to-Job connectors of the pattern's path lengths: 2 between two
// vertices, 4 around the longer cycle.
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
			if kc, ok := c.View.(views.KHopConnector); ok && kc.Name() != "CONN_2HOP_Job_Job" && kc.Name() != "CONN_4HOP_Job_Job" {
				t.Errorf("%s: unexpected connector %+v", src, kc)
			}
		}
	}
}

// TestConstraintInjectionPrunes backs the §IV-A2 claim: with the query
// constraints injected, the enumerator considers far fewer candidate
// instantiations than unconstrained schema-path enumeration over a
// cyclic schema (which grows like M^k).
func TestConstraintInjectionPrunes(t *testing.T) {
	schema := datagen.ProvSchema() // has a Task->Task self-loop: cyclic
	e := &Enumerator{Schema: schema, MaxK: 8}
	res, err := e.Enumerate(gql.MustParse(blastRadius))
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, _, err := UnconstrainedSchemaPaths(schema, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions*4 >= unconstrained {
		t.Errorf("constrained enumeration (%d instantiations) should be far below unconstrained (%d schema walks)",
			res.Solutions, unconstrained)
	}
}

func TestProceduralMatchesDeclarative(t *testing.T) {
	// Alg. 1 and the Prolog rule agree on the set of k-hop schema paths
	// for the lineage schema.
	schema := lineageSchema()
	paths, _ := constraints.KHopSchemaPathsProcedural(schema.EdgeTypes(), 2)
	// Job->File->Job and File->Job->File.
	if len(paths) != 2 {
		t.Fatalf("procedural 2-hop paths = %d, want 2", len(paths))
	}
	sols, _, err := UnconstrainedSchemaPaths(schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sols != 2 {
		t.Errorf("declarative 2-hop solutions = %d, want 2", sols)
	}
}

func TestEnumerateErrors(t *testing.T) {
	e := &Enumerator{Schema: nil}
	if _, err := e.Enumerate(gql.MustParse(`MATCH (a:Job) RETURN a`)); err == nil {
		t.Error("nil schema should error (constraint mining needs a schema)")
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

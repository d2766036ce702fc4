package rewrite

import (
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
	"kaskade/internal/views"
)

func TestExactAcceptsBipartiteK2(t *testing.T) {
	q := gql.MustParse(blastRadius)
	rw, err := Apply(q, jobConnectorCandidate(2), lineageSchema())
	if err != nil {
		t.Fatalf("k=2 should be exact on the bipartite schema: %v", err)
	}
	if rw == nil {
		t.Fatal("nil rewrite")
	}
}

func TestExactRejectsNonDividingK(t *testing.T) {
	q := gql.MustParse(blastRadius)
	// k=4 misses the 2, 6, and 10-hop job-job pairs.
	for _, k := range []int{4, 6, 8, 10} {
		if _, err := Apply(q, jobConnectorCandidate(k), lineageSchema()); err == nil {
			t.Errorf("k=%d accepted; feasible lengths {2,4,..,10} are not all multiples", k)
		}
	}
}

func TestExactRejectsHomogeneousK2(t *testing.T) {
	// On a homogeneous schema, odd path lengths are feasible, so k=2 is
	// approximate and must be rejected.
	q := gql.MustParse(`MATCH (a:User)-[r*1..4]->(b:User) RETURN a, b`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "User", DstType: "User", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	if _, err := Apply(q, cand, datagen.SocialSchema()); err == nil {
		t.Error("homogeneous k=2 rewrite accepted as exact")
	}
	// Without a schema the check is skipped (caller opts into
	// approximation).
	if _, err := Apply(q, cand, nil); err != nil {
		t.Errorf("nil-schema rewrite rejected: %v", err)
	}
}

func TestExactEvenOnlyQueryOnHomogeneous(t *testing.T) {
	// A query that only spans even hop counts is exactly rewritable
	// even on a homogeneous schema... but feasibleLengths includes the
	// odd lengths within [2,4], so it is still rejected — the guard is
	// conservative by design.
	q := gql.MustParse(`MATCH (a:User)-[r*2..4]->(b:User) RETURN a, b`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "User", DstType: "User", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	if _, err := Apply(q, cand, datagen.SocialSchema()); err == nil {
		t.Error("span containing odd feasible lengths accepted")
	}
}

func TestExactWrongViewKind(t *testing.T) {
	q := gql.MustParse(blastRadius)
	bad := enum.Candidate{View: views.VertexInclusionSummarizer{Types: []string{"Job"}}}
	if _, err := Apply(q, bad, lineageSchema()); err == nil {
		t.Error("summarizer dropping File accepted for a File query")
	}
}

// TestExactRefusesWhatTheViewGraphLacks: with a schema, a contraction
// must consume the whole pattern (the view graph holds only connector
// edges) over a connector that contracts every edge type. Without one,
// the rewrite stays syntactic (TestRewriteKeepsUnrelatedPatterns).
func TestExactRefusesWhatTheViewGraphLacks(t *testing.T) {
	chain := `MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job)`
	cand := jobConnectorCandidate(2)
	cand.SrcVar, cand.DstVar = "a", "b"
	for _, src := range []string{
		chain + `-[:WRITES_TO]->(g:File) RETURN a, b, g`,
		chain + `, (x:Job)-[:WRITES_TO]->(y:File) RETURN a, b, x, y`,
		chain + `, (x:Job) RETURN a, b, x`,
	} {
		if _, err := Apply(gql.MustParse(src), cand, lineageSchema()); err == nil {
			t.Errorf("%s: accepted, but the connector graph cannot evaluate the rest of the pattern", src)
		}
	}
	q := gql.MustParse(chain + ` RETURN a, b`)
	if _, err := Apply(q, cand, lineageSchema()); err != nil {
		t.Errorf("whole-pattern contraction rejected: %v", err)
	}
	typed := cand
	typed.View = views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"WRITES_TO"}}
	if _, err := Apply(q, typed, lineageSchema()); err == nil {
		t.Error("edge-type-restricted connector accepted")
	}
}

func TestFeasibleLengths(t *testing.T) {
	s := lineageSchema()
	got := feasibleLengths(s, "Job", "Job", 1, 6)
	want := []int{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("feasibleLengths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feasibleLengths = %v, want %v", got, want)
		}
	}
	// Job -> File: odd lengths only.
	got = feasibleLengths(s, "Job", "File", 1, 5)
	want = []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Job->File = %v, want %v", got, want)
		}
	}
	// Untyped endpoints: every length.
	got = feasibleLengths(s, "", "File", 2, 4)
	if len(got) != 3 {
		t.Errorf("untyped = %v", got)
	}
	// Unreachable type pair: none.
	s2 := datagen.ProvSchema()
	if got := feasibleLengths(s2, "Machine", "Job", 1, 8); len(got) != 0 {
		t.Errorf("Machine->Job = %v, want none (machines have no out-edges)", got)
	}
}

func TestRewriteBareVarLengthNoFixedEdges(t *testing.T) {
	// Segment is a single var-length edge with no fixed edges around it
	// (the Q2/Q3 shape); bounds divide directly.
	q := gql.MustParse(`MATCH (a:Job)-[r*2..10]->(b:Job) RETURN a, b`)
	cand := jobConnectorCandidate(2)
	cand.SrcVar, cand.DstVar = "a", "b"
	rw, err := Apply(q, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := gql.InnermostMatch(rw).Patterns[0].Edges[0]
	if e.MinHops != 1 || e.MaxHops != 5 {
		t.Errorf("bounds = %d..%d, want 1..5", e.MinHops, e.MaxHops)
	}
}

func TestRewriteUnboundedUpperCapped(t *testing.T) {
	// -[*2..]-> has no upper bound; the rewriter caps at the mined
	// default (10) before dividing.
	q := gql.MustParse(`MATCH (a:Job)-[r*2..]->(b:Job) RETURN a, b`)
	cand := jobConnectorCandidate(2)
	cand.SrcVar, cand.DstVar = "a", "b"
	rw, err := Apply(q, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := gql.InnermostMatch(rw).Patterns[0].Edges[0]
	if e.MaxHops != 5 {
		t.Errorf("capped upper = %d, want 5", e.MaxHops)
	}
}

func TestRewriteKeepsUnrelatedPatterns(t *testing.T) {
	// A second, disjoint pattern must survive the rewrite untouched.
	q := gql.MustParse(`
		MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job),
		      (x:Job)-[:WRITES_TO]->(y:File)
		RETURN a, b, x, y`)
	cand := jobConnectorCandidate(2)
	cand.SrcVar, cand.DstVar = "a", "b"
	rw, err := Apply(q, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := gql.InnermostMatch(rw)
	if len(m.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2 (survivor + connector)", len(m.Patterns))
	}
	// The survivor still mentions WRITES_TO.
	found := false
	for _, p := range m.Patterns {
		for _, e := range p.Edges {
			if e.Type == "WRITES_TO" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("unrelated pattern lost: %s", rw)
	}
}

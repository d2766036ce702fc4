package rewrite

import (
	"fmt"
	"slices"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

func TestExactAcceptsBipartiteK2(t *testing.T) {
	q := gql.MustParse(blastRadius)
	rw, err := Apply(q, jobConnector(2), lineageSchema())
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
		if _, err := Apply(q, jobConnector(k), lineageSchema()); err == nil {
			t.Errorf("k=%d accepted; feasible lengths {2,4,..,10} are not all multiples", k)
		}
	}
}

func TestExactRejectsHomogeneousK2(t *testing.T) {
	// On a homogeneous schema, odd path lengths are feasible, so k=2 is
	// approximate and must be rejected.
	q := gql.MustParse(`MATCH (a:User)-[r*1..4]->(b:User) RETURN a, b`)
	v := views.KHopConnector{SrcType: "User", DstType: "User", K: 2}
	if _, err := Apply(q, v, datagen.SocialSchema()); err == nil {
		t.Error("homogeneous k=2 rewrite accepted as exact")
	}
}

func TestExactEvenOnlyQueryOnHomogeneous(t *testing.T) {
	// *2..4 also matches 3-hop walks, which no whole number of 2-hop
	// connector edges covers, so the rewrite is refused.
	q := gql.MustParse(`MATCH (a:User)-[r*2..4]->(b:User) RETURN a, b`)
	v := views.KHopConnector{SrcType: "User", DstType: "User", K: 2}
	if _, err := Apply(q, v, datagen.SocialSchema()); err == nil {
		t.Error("span containing odd feasible lengths accepted")
	}
}

func TestExactWrongViewKind(t *testing.T) {
	q := gql.MustParse(blastRadius)
	bad := views.VertexInclusionSummarizer{Types: []string{"Job"}}
	if _, err := Apply(q, bad, lineageSchema()); err == nil {
		t.Error("summarizer dropping File accepted for a File query")
	}
}

// TestExactRefusesWhatTheViewGraphLacks: a contraction must consume the
// whole pattern (the view graph holds only connector edges), and the
// connector must contract every walk the chain matches.
func TestExactRefusesWhatTheViewGraphLacks(t *testing.T) {
	chain := `MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job)`
	for _, src := range []string{
		chain + `-[:WRITES_TO]->(g:File) RETURN a, b, g`,
		chain + `, (x:Job)-[:WRITES_TO]->(y:File) RETURN a, b, x, y`,
		chain + `, (x:Job) RETURN a, b, x`,
	} {
		if _, err := Apply(gql.MustParse(src), jobConnector(2), lineageSchema()); err == nil {
			t.Errorf("%s: accepted, but the connector graph cannot evaluate the rest of the pattern", src)
		}
	}
	q := gql.MustParse(chain + ` RETURN a, b`)
	if _, err := Apply(q, jobConnector(2), lineageSchema()); err != nil {
		t.Errorf("whole-pattern contraction rejected: %v", err)
	}
	typed := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"WRITES_TO"}}
	if _, err := Apply(q, typed, lineageSchema()); err == nil {
		t.Error("edge-type-restricted connector accepted")
	}
}

// feasible lists the lengths in [lo, hi] at which some schema walk runs
// from src to dst ("" for any type): those whose typing is not empty.
func feasible(s *graph.Schema, src, dst string, lo, hi int) []int {
	var out []int
	for l := lo; l <= hi; l++ {
		c := chain{labels: []label{typed(src), typed(dst)}, steps: []gql.EdgePattern{{MinHops: l, MaxHops: l}}}
		if slices.Contains(live(s, c.layout(l)).at[0], true) {
			out = append(out, l)
		}
	}
	return out
}

// TestFeasibleLengths pins the schema typing on the walk lengths it
// admits between two endpoint types, and on the types it keeps live.
func TestFeasibleLengths(t *testing.T) {
	s := lineageSchema()
	for _, tc := range []struct {
		src, dst string
		lo, hi   int
		want     []int
	}{
		{"Job", "Job", 1, 6, []int{2, 4, 6}},
		{"Job", "File", 1, 5, []int{1, 3, 5}},
		{"", "File", 2, 4, []int{2, 3, 4}}, // an untyped end: every length
	} {
		if got := feasible(s, tc.src, tc.dst, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("%s->%s in %d..%d = %v, want %v", tc.src, tc.dst, tc.lo, tc.hi, got, tc.want)
		}
	}
	// Unreachable type pair: none.
	prov := datagen.ProvSchema()
	if got := feasible(prov, "Machine", "Job", 1, 8); len(got) != 0 {
		t.Errorf("Machine->Job = %v, want none (machines have no out-edges)", got)
	}
	// Live types lie on a walk to the last position: a Job also spawns
	// Tasks, but no Task reaches a Job, so a 2-hop Job->Job walk keeps
	// only File in the middle and only WRITES_TO and IS_READ_BY.
	c := chain{labels: []label{{"Job"}, {"Job"}}, steps: []gql.EdgePattern{{MinHops: 2, MaxHops: 2}}}
	ty := live(prov, c.layout(2))
	var middle []string
	for i, ok := range ty.at[1] {
		if ok {
			middle = append(middle, prov.VertexTypes()[i])
		}
	}
	var edges []string
	for _, hop := range ty.hops {
		for i, ok := range hop {
			if ok {
				edges = append(edges, prov.EdgeTypes()[i].Name)
			}
		}
	}
	if !slices.Equal(middle, []string{"File"}) || !slices.Equal(edges, []string{"WRITES_TO", "IS_READ_BY"}) {
		t.Errorf("Job->Job in 2 hops: middle %v, edges %v; want [File], [WRITES_TO IS_READ_BY]", middle, edges)
	}
}

func TestRewriteBareVarLengthNoFixedEdges(t *testing.T) {
	// The chain is a single var-length edge with no fixed edges around it
	// (the Q2/Q3 shape); bounds divide directly.
	q := gql.MustParse(`MATCH (a:Job)-[r*2..10]->(b:Job) RETURN a, b`)
	rw, err := Apply(q, jobConnector(2), lineageSchema())
	if err != nil {
		t.Fatal(err)
	}
	e := gql.InnermostMatch(rw).Patterns[0].Edges[0]
	if e.MinHops != 1 || e.MaxHops != 5 {
		t.Errorf("bounds = %d..%d, want 1..5", e.MinHops, e.MaxHops)
	}
}

// TestRewriteRefusesUnboundedStep: a step with no upper bound matches
// walks of any length, and the executor walks it to the end of the
// graph. The k-hop rule used to cap *2.. at 10 hops and rewrite it to
// *1..5 connector hops.
func TestRewriteRefusesUnboundedStep(t *testing.T) {
	q := gql.MustParse(`MATCH (a:Job)-[r*2..]->(b:Job) RETURN a, b`)
	if rw, err := Apply(q, jobConnector(2), lineageSchema()); err == nil {
		t.Errorf("unbounded step rewritten to %s", rw)
	}
}

// TestFilterRefusesUnboundedStep: on a chain schema T0→…→T12, a filter
// keeping T0…T10 holds every type the first 10 hops reach, but an
// unbounded step from T0 also reaches T11 and T12. The type-filter rule
// used to cap the step at 10 hops and accept the filter.
func TestFilterRefusesUnboundedStep(t *testing.T) {
	types := make([]string, 13)
	var edges []graph.EdgeType
	for i := range types {
		types[i] = fmt.Sprintf("T%d", i)
		if i > 0 {
			edges = append(edges, graph.EdgeType{From: types[i-1], To: types[i], Name: fmt.Sprintf("E%d", i)})
		}
	}
	schema := graph.MustSchema(types, edges)
	keep := views.VertexInclusionSummarizer{Types: types[:11]}
	if _, err := Apply(gql.MustParse(`MATCH (a:T0)-[r*1..]->(b) RETURN a, b`), keep, schema); err == nil {
		t.Error("filter dropping T11 and T12 accepted for an unbounded step from T0")
	}
	if _, err := Apply(gql.MustParse(`MATCH (a:T0)-[r*1..10]->(b) RETURN a, b`), keep, schema); err != nil {
		t.Errorf("filter refused for the 10-hop bounded step: %v", err)
	}
}

package rewrite

import (
	"errors"
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/enum"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

const blastRadius = `
SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 AS A, q_j2 AS B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`

func lineageSchema() *graph.Schema {
	return graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	)
}

func jobConnectorCandidate(k int) enum.Candidate {
	return enum.Candidate{
		View:     views.KHopConnector{SrcType: "Job", DstType: "Job", K: k},
		Template: "kHopConnector",
		SrcVar:   "q_j1",
		DstVar:   "q_j2",
		K:        k,
	}
}

// TestListing4Shape checks the Listing 1 -> Listing 4 transformation: the
// three-pattern chain collapses into a single job-to-job connector
// traversal with recomputed bounds (2..10 base hops -> 1..5 connector
// hops for k=2).
func TestListing4Shape(t *testing.T) {
	q := gql.MustParse(blastRadius)
	rw, err := Apply(q, jobConnectorCandidate(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := gql.InnermostMatch(rw)
	if len(m.Patterns) != 1 {
		t.Fatalf("rewritten MATCH has %d patterns, want 1: %s", len(m.Patterns), rw)
	}
	p := m.Patterns[0]
	if p.Nodes[0].Var != "q_j1" || p.Nodes[1].Var != "q_j2" {
		t.Errorf("endpoints = %s, %s", p.Nodes[0].Var, p.Nodes[1].Var)
	}
	e := p.Edges[0]
	if e.Type != "CONN_2HOP_Job_Job" {
		t.Errorf("edge type = %s", e.Type)
	}
	if !e.VarLength || e.MinHops != 1 || e.MaxHops != 5 {
		t.Errorf("bounds = %d..%d (varlen=%v), want 1..5", e.MinHops, e.MaxHops, e.VarLength)
	}
	// The SELECT wrappers survive untouched.
	if !strings.Contains(rw.String(), "GROUP BY A.pipelineName") {
		t.Errorf("outer SELECT lost: %s", rw)
	}
	// The original query is unchanged.
	if strings.Contains(q.String(), "CONN_") {
		t.Error("rewrite mutated the original query")
	}
}

// TestRewriteEquivalence is the correctness core: the blast-radius query
// over the raw lineage graph and its rewriting over the materialized
// 2-hop connector produce identical results, on a randomized provenance
// graph.
func TestRewriteEquivalence(t *testing.T) {
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines, cfg.Users = 120, 250, 1, 5, 5
	cfg.MaxReads = 8
	raw, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Filter to the lineage core first (as the paper's runtime
	// experiments do), then materialize the connector over it.
	filtered, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}.Materialize(filtered)
	if err != nil {
		t.Fatal(err)
	}

	q := gql.MustParse(blastRadius)
	rw, err := Apply(q, jobConnectorCandidate(2), nil)
	if err != nil {
		t.Fatal(err)
	}

	base, err := (&exec.Executor{G: filtered}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	over, err := (&exec.Executor{G: conn}).Execute(rw)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != len(over.Rows) {
		t.Fatalf("row counts differ: base=%d rewritten=%d", len(base.Rows), len(over.Rows))
	}
	baseMap := resultMap(base)
	overMap := resultMap(over)
	for k, v := range baseMap {
		ov, ok := overMap[k]
		if !ok {
			t.Errorf("pipeline %s missing from rewritten result", k)
			continue
		}
		if diff := v - ov; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("pipeline %s: base=%v rewritten=%v", k, v, ov)
		}
	}
}

func resultMap(r *exec.Result) map[string]float64 {
	out := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		key, _ := row[0].(string)
		switch v := row[1].(type) {
		case float64:
			out[key] = v
		case int64:
			out[key] = float64(v)
		}
	}
	return out
}

// TestEnumeratedCandidateRewrites ties enumeration and rewriting: every
// job-to-job k-hop candidate the enumerator emits for the blast radius
// query must be rewritable.
func TestEnumeratedCandidateRewrites(t *testing.T) {
	e := &enum.Enumerator{Schema: lineageSchema(), MaxK: 10}
	q := gql.MustParse(blastRadius)
	res, err := e.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	rewrites := 0
	for _, c := range res.Candidates {
		if c.Template != "kHopConnector" {
			continue
		}
		rw, err := Apply(q, c, nil)
		if err != nil {
			t.Errorf("candidate %s: %v", c.View.Name(), err)
			continue
		}
		rewrites++
		m := gql.InnermostMatch(rw)
		e := m.Patterns[len(m.Patterns)-1].Edges[0]
		// Bounds arithmetic: [max(1,ceil(2/k)), floor(10/k)].
		k := c.K
		wantLo, wantHi := (2+k-1)/k, 10/k
		if wantLo < 1 {
			wantLo = 1
		}
		if e.MinHops != wantLo || maxHops(e) != wantHi {
			t.Errorf("K=%d: bounds %d..%d, want %d..%d", k, e.MinHops, maxHops(e), wantLo, wantHi)
		}
	}
	if rewrites != 5 {
		t.Errorf("rewrote %d candidates, want 5 (K=2,4,6,8,10)", rewrites)
	}
}

func maxHops(e gql.EdgePattern) int {
	if !e.VarLength {
		return e.MinHops
	}
	return e.MaxHops
}

func TestRewritePreservesEdgeVarForPathFunctions(t *testing.T) {
	q := gql.MustParse(`MATCH (a:User)-[r*2..4]->(b:User) RETURN b, PATH_MAX(r, 'ts') AS m`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "User", DstType: "User", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	rw, err := Apply(q, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := gql.InnermostMatch(rw)
	if m.Patterns[0].Edges[0].Var != "r" {
		t.Errorf("edge var = %q, want r preserved", m.Patterns[0].Edges[0].Var)
	}
	if m.Patterns[0].Edges[0].MinHops != 1 || m.Patterns[0].Edges[0].MaxHops != 2 {
		t.Errorf("bounds = %d..%d, want 1..2", m.Patterns[0].Edges[0].MinHops, m.Patterns[0].Edges[0].MaxHops)
	}
}

func TestRewriteRejectsEscapingIntermediates(t *testing.T) {
	// q_f1 is projected, so the segment through it cannot be contracted.
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b, f`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	if _, err := Apply(q, cand, nil); err == nil {
		t.Error("projected intermediate accepted")
	}
	// Same for WHERE references.
	q = gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) WHERE f.size > 10 RETURN a, b`)
	if _, err := Apply(q, cand, nil); err == nil {
		t.Error("WHERE-referenced intermediate accepted")
	}
}

func TestRewriteInfeasibleBounds(t *testing.T) {
	// A 3-hop segment cannot be expressed over a 2-hop connector when
	// the range contains no multiple of 2... here 3..3.
	q := gql.MustParse(`MATCH (a:User)-[r*3..3]->(b:User) RETURN a, b`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "User", DstType: "User", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	if _, err := Apply(q, cand, nil); err == nil {
		t.Error("3..3 over k=2 accepted")
	}
}

func TestRewriteUnsupportedShapes(t *testing.T) {
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	// Branching at a.
	q := gql.MustParse(`MATCH (a:Job)-[:W]->(x:File), (a:Job)-[:W]->(y:File)-[:R]->(b:Job) RETURN a, b`)
	if _, err := Apply(q, cand, nil); err == nil {
		t.Error("branching pattern accepted")
	}
	// No path between anchors.
	q = gql.MustParse(`MATCH (a:Job)-[:W]->(x:File) (b:Job)-[:W]->(y:File) RETURN a, b`)
	if _, err := Apply(q, cand, nil); err == nil {
		t.Error("disconnected anchors accepted")
	}
	// Equal anchors: no path between two vertices to contract.
	q = gql.MustParse(`MATCH (a:Job)-[:W]->(x:File)-[:R]->(a:Job) RETURN a`)
	loop := enum.Candidate{View: cand.View, SrcVar: "a", DstVar: "a", K: 2}
	if _, err := Apply(q, loop, nil); err == nil || !strings.Contains(err.Error(), "both anchors are a") {
		t.Errorf("equal anchors: err = %v", err)
	}
}

func TestApplyTypeFilter(t *testing.T) {
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f`)
	for _, tc := range []struct {
		view views.View
		ok   bool
	}{
		{views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}, true},
		{views.VertexInclusionSummarizer{Types: []string{"Job"}}, false}, // drops File
		{views.VertexRemovalSummarizer{Types: []string{"Task"}}, true},
		{views.VertexRemovalSummarizer{Types: []string{"File"}}, false},
		{views.EdgeRemovalSummarizer{Types: []string{"WRITES_TO"}}, false},
		{views.EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}}, true},
	} {
		rw, err := Apply(q, enum.Candidate{View: tc.view}, nil)
		if tc.ok && (err != nil || rw != q) {
			t.Errorf("%s: rw, err = %v, %v; want q unchanged", tc.view.Name(), rw, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted a query using a type it drops", tc.view.Name())
		}
	}
}

// TestApplyNoRule: every class other than the k-hop connector and the
// four type filters has no rule, whatever the query.
func TestApplyNoRule(t *testing.T) {
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`)
	for _, v := range []views.View{
		views.SameVertexTypeConnector{VType: "Job", MaxLen: 4},
		views.SameEdgeTypeConnector{EType: "WRITES_TO", MaxLen: 3},
		views.SourceToSinkConnector{MaxLen: 4},
		views.VertexAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName"},
		views.EdgeAggregatorSummarizer{EType: "WRITES_TO"},
		views.SubgraphAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName"},
	} {
		cand := enum.Candidate{View: v, SrcVar: "a", DstVar: "b"}
		for _, schema := range []*graph.Schema{nil, lineageSchema()} {
			if _, err := Apply(q, cand, schema); !errors.Is(err, ErrNoRule) {
				t.Errorf("%s: err = %v, want ErrNoRule", v.Name(), err)
			}
		}
	}
}

// TestReversedSegmentRewrite: a segment written with reversed arrows
// normalizes and contracts the same way.
func TestReversedSegmentRewrite(t *testing.T) {
	// (f)<-[:WRITES_TO]-(a:Job) is Job->File forward.
	q := gql.MustParse(`MATCH (f:File)<-[:WRITES_TO]-(a:Job) (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`)
	cand := enum.Candidate{
		View:   views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SrcVar: "a", DstVar: "b", K: 2,
	}
	rw, err := Apply(q, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := gql.InnermostMatch(rw)
	if len(m.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(m.Patterns))
	}
	e := m.Patterns[0].Edges[0]
	if e.VarLength || e.MinHops != 1 {
		t.Errorf("edge = %+v, want plain 1-hop connector edge", e)
	}
}

package rewrite

import (
	"errors"
	"strings"
	"testing"

	"kaskade/internal/datagen"
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

func jobConnector(k int) views.KHopConnector {
	return views.KHopConnector{SrcType: "Job", DstType: "Job", K: k}
}

// TestListing4Shape checks the Listing 1 -> Listing 4 transformation: the
// three-pattern chain collapses into a single job-to-job connector
// traversal with recomputed bounds (2..10 base hops -> 1..5 connector
// hops for k=2).
func TestListing4Shape(t *testing.T) {
	q := gql.MustParse(blastRadius)
	rw, err := Apply(q, jobConnector(2), lineageSchema())
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
	rw, err := Apply(q, jobConnector(2), filtered.Schema())
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

// TestEnumeratedCandidateRewrites ties enumeration and rewriting: of the
// job-to-job k-hop connectors the lineage schema admits for the blast
// radius query (K=2,4,6,8,10), Candidates proposes exactly K=2 — every
// even length from 2 to 10 is a job-to-job walk, and only 2 divides them
// all — and it rewrites with bounds [max(1,ceil(2/2)), floor(10/2)].
func TestEnumeratedCandidateRewrites(t *testing.T) {
	q := gql.MustParse(blastRadius)
	var conns []views.View
	vs, _ := Candidates(q, lineageSchema(), 10)
	for _, v := range vs {
		if _, ok := v.(views.KHopConnector); ok {
			conns = append(conns, v)
		}
	}
	if len(conns) != 1 || conns[0].Name() != jobConnector(2).Name() {
		t.Fatalf("connector candidates = %v, want [%s]", conns, jobConnector(2).Name())
	}
	rw, err := Apply(q, conns[0], lineageSchema())
	if err != nil {
		t.Fatal(err)
	}
	m := gql.InnermostMatch(rw)
	e := m.Patterns[len(m.Patterns)-1].Edges[0]
	if e.MinHops != 1 || maxHops(e) != 5 {
		t.Errorf("bounds %d..%d, want 1..5", e.MinHops, maxHops(e))
	}
}

func maxHops(e gql.EdgePattern) int {
	if !e.VarLength {
		return e.MinHops
	}
	return e.MaxHops
}

// TestRewriteContractsOnlyDeadEdgeVars: over the connector a chain's
// edge variable would bind connector edges, not the base path it binds
// raw (LENGTH(r) would read 1 for a 2-hop path), so a chain whose edge
// variable RETURN or WHERE reads is refused. A dead edge variable
// names the connector traversal.
func TestRewriteContractsOnlyDeadEdgeVars(t *testing.T) {
	for _, src := range []string{
		`MATCH (a:Job)-[r*2..4]->(b:Job) RETURN b, PATH_MAX(r, 'ts') AS m`,
		`MATCH (a:Job)-[r*2..4]->(b:Job) RETURN LENGTH(r) AS l, COUNT(*) AS n`,
		`MATCH (a:Job)-[r*2..4]->(b:Job) WHERE LENGTH(r) = 2 RETURN a, b`,
		`MATCH (a:Job)-[w:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, w`,
	} {
		if _, err := Apply(gql.MustParse(src), jobConnector(2), lineageSchema()); err == nil {
			t.Errorf("%s: a read edge variable was contracted", src)
		}
	}
	rw, err := Apply(gql.MustParse(`MATCH (a:Job)-[r*2..4]->(b:Job) RETURN a, b`), jobConnector(2), lineageSchema())
	if err != nil {
		t.Fatal(err)
	}
	e := gql.InnermostMatch(rw).Patterns[0].Edges[0]
	if e.Var != "r" || e.MinHops != 1 || e.MaxHops != 2 {
		t.Errorf("connector step = %s %d..%d, want r 1..2", e.Var, e.MinHops, e.MaxHops)
	}
}

func TestRewriteRejectsEscapingIntermediates(t *testing.T) {
	// q_f1 is projected, so the segment through it cannot be contracted.
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b, f`)
	if _, err := Apply(q, jobConnector(2), lineageSchema()); err == nil {
		t.Error("projected intermediate accepted")
	}
	// Same for WHERE references.
	q = gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) WHERE f.size > 10 RETURN a, b`)
	if _, err := Apply(q, jobConnector(2), lineageSchema()); err == nil {
		t.Error("WHERE-referenced intermediate accepted")
	}
}

func TestRewriteInfeasibleBounds(t *testing.T) {
	// A 3-hop segment cannot be expressed over a 2-hop connector when
	// the range contains no multiple of 2... here 3..3.
	q := gql.MustParse(`MATCH (a:Job)-[r*3..3]->(b:Job) RETURN a, b`)
	if _, err := Apply(q, jobConnector(2), lineageSchema()); err == nil {
		t.Error("3..3 over k=2 accepted")
	}
}

func TestRewriteUnsupportedShapes(t *testing.T) {
	for _, tc := range []struct{ what, src string }{
		{"branching pattern", `MATCH (a:Job)-[:WRITES_TO]->(x:File), (a:Job)-[:WRITES_TO]->(y:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`},
		{"disconnected pattern", `MATCH (a:Job)-[:WRITES_TO]->(x:File) (b:Job)-[:WRITES_TO]->(y:File) RETURN a, b`},
		{"lone vertex", `MATCH (a:Job) RETURN a`},
	} {
		if _, err := Apply(gql.MustParse(tc.src), jobConnector(2), lineageSchema()); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
	}
	// A cycle has no two ends to connect.
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(x:File)-[:IS_READ_BY]->(a:Job) RETURN a`)
	if _, err := Apply(q, jobConnector(2), lineageSchema()); err == nil || !strings.Contains(err.Error(), "not one simple chain") {
		t.Errorf("cycle: err = %v", err)
	}
}

// TestApplyRefusesUnprovable: the rewrites no rule can prove exact.
func TestApplyRefusesUnprovable(t *testing.T) {
	chain := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`)
	jobs := gql.MustParse(`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN COUNT(*) AS n`)
	owns := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(g:Job)-[:OWNS]->(b:Job) RETURN a, b`)
	for _, tc := range []struct {
		what   string
		q      gql.Query
		v      views.View
		schema *graph.Schema
		msg    string
	}{
		// Without a schema no rule is proved, for either class.
		{"nil schema, connector", chain, jobConnector(2), nil, "no schema"},
		{"nil schema, filter", chain, views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}, nil, "no schema"},
		// With two variable-length steps the middle label has no fixed
		// position in the walk.
		{"two variable-length steps",
			gql.MustParse(`MATCH (a:Job)-[*1..3]->(f:File)-[*1..3]->(b:Job) RETURN a, b`),
			jobConnector(2), lineageSchema(), "variable-length steps"},
		// A connector keeping one edge per pair answers per-path queries
		// with too few rows.
		{"DedupPairs", chain, views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2, DedupPairs: true},
			lineageSchema(), "one edge per vertex pair"},
		// A pattern that matches nothing on the schema: its empty typing
		// would equal a connector's, and every filter keeps its no types.
		{"no Job on soc, connector", jobs, jobConnector(2), datagen.SocialSchema(), "matches nothing"},
		{"no Job on soc, filter", jobs, views.VertexInclusionSummarizer{Types: []string{"User"}}, datagen.SocialSchema(), "matches nothing"},
		{"no OWNS on prov, connector", owns, jobConnector(3), datagen.ProvSchema(), "matches nothing"},
		{"no OWNS on prov, filter", owns, views.VertexRemovalSummarizer{}, datagen.ProvSchema(), "matches nothing"},
	} {
		if _, err := Apply(tc.q, tc.v, tc.schema); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.what, err, tc.msg)
		}
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
		rw, err := Apply(q, tc.view, lineageSchema())
		if tc.ok && (err != nil || rw != q) {
			t.Errorf("%s: rw, err = %v, %v; want q unchanged", tc.view.Name(), rw, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted a query using a type it drops", tc.view.Name())
		}
	} // Untyped vertices and edges and the interior of a variable-length
	// step bind every type the schema lets them: on prov a Job writes
	// only Files, but its out-edges also reach Tasks.
	keepJF := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}
	for _, tc := range []struct {
		src  string
		view views.View
		ok   bool
	}{
		{`MATCH (x:Job)-[:WRITES_TO]->(f) RETURN x, f`, keepJF, true},
		{`MATCH (x:Job)-[:WRITES_TO]->(f) RETURN x, f`, views.VertexInclusionSummarizer{Types: []string{"Job"}}, false},
		{`MATCH (x:Job)-[e]->(y) RETURN x, y`, keepJF, false},
		{`MATCH (x:File)-[r*1..3]->(y:File) RETURN x, y`, keepJF, true},
		{`MATCH (x:File)-[r*1..3]->(y:File) RETURN x, y`, views.EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}}, false},
		{`MATCH (v) RETURN v`, keepJF, false},
	} {
		_, err := Apply(gql.MustParse(tc.src), tc.view, datagen.ProvSchema())
		if (err == nil) != tc.ok {
			t.Errorf("%s over %s: err = %v, want ok=%v", tc.src, tc.view.Name(), err, tc.ok)
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
		if _, err := Apply(q, v, lineageSchema()); !errors.Is(err, ErrNoRule) {
			t.Errorf("%s: err = %v, want ErrNoRule", v.Name(), err)
		}
	}
}

// TestReversedSegmentRewrite: a segment written with reversed arrows
// normalizes and contracts the same way.
func TestReversedSegmentRewrite(t *testing.T) {
	// (f)<-[:WRITES_TO]-(a:Job) is Job->File forward.
	q := gql.MustParse(`MATCH (f:File)<-[:WRITES_TO]-(a:Job) (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`)
	rw, err := Apply(q, jobConnector(2), lineageSchema())
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

package core

import (
	"context"
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/rewrite"
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

func testSystem(t testing.TB) *System {
	t.Helper()
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines, cfg.Users = 120, 250, 1, 5, 5
	raw, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	return New(filtered)
}

func TestSystemEndToEnd(t *testing.T) {
	sys := testSystem(t)

	// Before any views, Query == QueryRaw.
	raw, err := sys.QueryRaw(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := sys.QueryWithPlan(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "" {
		t.Errorf("plan used view %q with empty catalog", plan.ViewName)
	}
	if len(res.Rows) != len(raw.Rows) {
		t.Fatalf("rows: %d vs %d", len(res.Rows), len(raw.Rows))
	}

	// Select and adopt views.
	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Chosen) == 0 {
		t.Fatalf("nothing chosen:\n%s", sel.Describe())
	}
	if err := sys.AdoptSelection(sel); err != nil {
		t.Fatal(err)
	}
	if len(sys.Catalog().Views()) == 0 {
		t.Fatal("catalog empty after adoption")
	}

	// Now the query routes through a view and agrees with raw.
	res2, plan2, err := sys.QueryWithPlan(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.ViewName == "" {
		t.Error("query did not use a materialized view")
	}
	if len(res2.Rows) != len(raw.Rows) {
		t.Errorf("view rows %d != raw rows %d", len(res2.Rows), len(raw.Rows))
	}
}

func TestSystemExplain(t *testing.T) {
	sys := testSystem(t)
	out, err := sys.Explain(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "base graph scan") {
		t.Errorf("explain without views: %s", out)
	}
	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AdoptSelection(sel); err != nil {
		t.Fatal(err)
	}
	out, err = sys.Explain(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rewritten over materialized view") {
		t.Errorf("explain with views: %s", out)
	}
	if !strings.Contains(out, "storage: frozen csr") {
		t.Errorf("explain missing frozen storage line: %s", out)
	}
	if !strings.Contains(out, "columns=") {
		t.Errorf("explain storage line missing column stats: %s", out)
	}
	// EXPLAIN ANALYZE reports the worker count it executed with.
	out, err = sys.ExplainAnalyze(context.Background(), `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j AS job, COUNT(f) AS n`, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "execution: workers=2\n") {
		t.Errorf("explain analyze missing execution line: %s", out)
	}
}

func TestSystemEnumerate(t *testing.T) {
	sys := testSystem(t)
	cands, err := sys.EnumerateViews(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	q := gql.MustParse(blastRadius)
	for _, c := range cands {
		if _, err := rewrite.Apply(q, c.View, sys.Graph().Schema()); err != nil {
			t.Errorf("candidate %s is refused: %v", c.View.Name(), err)
		}
	}
	desc := DescribeCandidates(cands)
	if !strings.Contains(desc, "2-hop connector Job->Job") {
		t.Errorf("candidates missing the job connector:\n%s", desc)
	}
}

func TestSystemManualView(t *testing.T) {
	sys := testSystem(t)
	if err := sys.MaterializeView(views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}); err != nil {
		t.Fatal(err)
	}
	if len(sys.Catalog().Views()) != 1 {
		t.Fatalf("views = %v", sys.Catalog().Views())
	}
	// The summarizer applies to the query (it keeps everything the
	// query needs), so the plan may use it; either way results agree.
	res, _, err := sys.QueryWithPlan(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sys.QueryRaw(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(raw.Rows) {
		t.Errorf("rows differ: %d vs %d", len(res.Rows), len(raw.Rows))
	}
}

func TestSystemErrors(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Query("NOT A QUERY"); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := sys.SelectViews([]string{"also not a query"}, 10); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := sys.EnumerateViews("nope("); err == nil {
		t.Error("bad enumerate query accepted")
	}
}

func TestSystemMaxRowsGuard(t *testing.T) {
	sys := testSystem(t)
	sys.MaxRows = 1
	if _, err := sys.QueryRaw(`MATCH (j:Job) RETURN j`); err == nil {
		t.Error("row guard not applied")
	}
}

func TestSystemWithoutSchema(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	sys := New(g)
	// Raw execution works without a schema.
	res, err := sys.QueryRaw(`MATCH (x)-[e]->(y) RETURN COUNT(*) AS n`)
	if err != nil || res.Rows[0][0].(int64) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	// Enumeration requires one (constraint mining needs schema facts).
	if _, err := sys.EnumerateViews(`MATCH (x)-[e]->(y) RETURN x, y`); err == nil {
		t.Error("enumeration without schema should error")
	}
}

func TestViewInventoryComplete(t *testing.T) {
	inv := ViewInventory()
	for _, want := range []string{
		"k-hop connector", "Same-vertex-type connector", "Same-edge-type connector",
		"Source-to-sink connector", "Vertex-removal summarizer", "Edge-removal summarizer",
		"Vertex-inclusion summarizer", "Edge-inclusion summarizer",
		"Vertex-aggregator summarizer", "Edge-aggregator summarizer", "Subgraph-aggregator summarizer",
	} {
		if !strings.Contains(inv, want) {
			t.Errorf("inventory missing %q", want)
		}
	}
}

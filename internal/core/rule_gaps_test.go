package core

import (
	"context"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

// gapProv is the 150-job prov graph the rule-gap statements run on, and
// its Job+File summary.
func gapProv(t *testing.T) (raw, summary *graph.Graph) {
	t.Helper()
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines, cfg.Users = 150, 300, 1, 5, 5
	raw, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	summary, err = views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, summary
}

// deletesLineage is a job-file chain whose schema has two edge types
// from Job to File: job i writes file i, deletes file i+1, and file i is
// read by job i+1.
func deletesLineage(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema([]string{"Job", "File"}, []graph.EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
		{From: "Job", To: "File", Name: "DELETES"},
		{From: "File", To: "Job", Name: "IS_READ_BY"},
	}))
	const n = 6
	jobs, files := make([]graph.VertexID, n), make([]graph.VertexID, n)
	for i := range n {
		var err error
		if jobs[i], err = g.AddVertex("Job", nil); err != nil {
			t.Fatal(err)
		}
		if files[i], err = g.AddVertex("File", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n - 1 {
		for _, e := range []struct {
			from, to graph.VertexID
			name     string
		}{
			{jobs[i], files[i], "WRITES_TO"},
			{jobs[i], files[i+1], "DELETES"},
			{files[i], jobs[i+1], "IS_READ_BY"},
		} {
			if _, err := g.AddEdge(e.from, e.to, e.name, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// jobChain is a lineage chain of links+1 jobs: job i writes file i,
// which job i+1 reads.
func jobChain(t *testing.T, links int) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema([]string{"Job", "File"}, []graph.EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
		{From: "File", To: "Job", Name: "IS_READ_BY"},
	}))
	prev := g.MustAddVertex("Job", nil)
	for range links {
		f, next := g.MustAddVertex("File", nil), g.MustAddVertex("Job", nil)
		g.MustAddEdge(prev, f, "WRITES_TO", nil)
		g.MustAddEdge(f, next, "IS_READ_BY", nil)
		prev = next
	}
	return g
}

// TestViewedMatchesRawOnRuleGaps: with one view in the catalog, each
// statement returns what the base graph returns. Before the rewrite
// rules were proved from the schema typing, every statement here was
// rewritten over its view and answered wrong (rows over the view against
// raw rows on the 150-job graph):
//   - a Job-keeping filter dropped the untyped Files and the Job→Task
//     edges an untyped vertex or edge binds (0 vs 300, 0 vs 518);
//   - a DedupPairs connector collapsed per-path rows (644 vs 926);
//   - an untyped-edge connector also contracted DELETES paths (9 vs 5
//     on deletesLineage);
//   - *0..4 lost its zero-length rows (3,023 vs 3,173);
//   - an unbounded step was capped as a whole at 10 hops, not per step
//     (10,723 vs 10,845);
//   - a query naming the connector's edge type on the base graph, where
//     no such edge exists, ran over the connector (926 vs 0);
//   - an unbounded step was proved up to 10 hops, but the executor
//     walks it to the end of the graph (50 vs 78 on a 12-link jobChain);
//   - a read path variable bound connector edges, not the 2-hop paths
//     raw binds (926 rows of l = 1 vs 926 of l = 2).
func TestViewedMatchesRawOnRuleGaps(t *testing.T) {
	raw, summary := gapProv(t)
	keepJob := `CREATE VIEW kj AS MATCH (v) WHERE LABEL(v) = 'Job' RETURN v`
	chain := `MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) RETURN x, y`
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		ddl   string     // the view's CREATE VIEW, or
		view  views.View // a struct-built view
		query string
	}{
		{"filter drops an untyped vertex", raw, keepJob, nil, `MATCH (x:Job)-[:WRITES_TO]->(f) RETURN x, f`},
		{"filter drops an untyped edge", raw, keepJob, nil, `MATCH (x:Job)-[e]->(y) RETURN x, y`},
		{"DedupPairs connector", summary, "", views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2, DedupPairs: true}, chain},
		{"connector over two Job->File edge types", deletesLineage(t), createJJ, nil, chain},
		{"zero-length rows", summary, createJJ, nil, `MATCH (a:Job)-[r*0..4]->(b:Job) RETURN a, b`},
		{"unbounded step capped per step", summary, createJJ, nil,
			`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[r*0..]->(g:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`},
		{"connector edge type on the base graph", summary, createJJ, nil,
			`MATCH (x:Job)-[r:CONN_2HOP_Job_Job*1..2]->(y:Job) RETURN x, y`},
		{"unbounded step", jobChain(t, 12), createJJ, nil, `MATCH (a:Job)-[r*2..]->(b:Job) RETURN a, b`},
		{"read path variable", summary, createJJ, nil, `MATCH (x:Job)-[p*2..2]->(y:Job) RETURN LENGTH(p) AS l, COUNT(*) AS n`},
	} {
		sys := New(tc.g)
		if tc.view != nil {
			if err := sys.MaterializeView(tc.view); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		} else if _, err := sys.Exec(context.Background(), tc.ddl); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := sys.QueryRaw(tc.query)
		if err != nil {
			t.Fatalf("%s: raw: %v", tc.name, err)
		}
		got, plan, err := sys.QueryWithPlan(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sortedLines(got) != sortedLines(want) {
			t.Errorf("%s: %q over view %q returns %d rows, raw %d", tc.name, tc.query, plan.ViewName, len(got.Rows), len(want.Rows))
		}
	}
}

// TestUnprojectedChainPlansOverConnector: the catalog tries every
// materialized view through rewrite.Apply, so a chain whose ends are not
// projected runs over the connector that answers it. Enumeration used to
// choose which views the catalog tried, and it proposes no connector for
// unprojected ends, so this query planned on the base graph.
func TestUnprojectedChainPlansOverConnector(t *testing.T) {
	_, summary := gapProv(t)
	sys := New(summary)
	if _, err := sys.Exec(context.Background(), createJJ); err != nil {
		t.Fatal(err)
	}
	q := `MATCH (x:Job)-[p*2..2]->(y:Job) RETURN COUNT(*) AS n`
	want, err := sys.QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	got, plan, err := sys.QueryWithPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "CONN_2HOP_Job_Job" {
		t.Errorf("planned over %q, want CONN_2HOP_Job_Job", plan.ViewName)
	}
	if sortedLines(got) != sortedLines(want) {
		t.Errorf("over the view %s, raw %s", sortedLines(got), sortedLines(want))
	}
}

// TestSchemalessGraphPlansOnBase: no rewrite rule can be proved without
// a schema, so a catalog over a schemaless graph plans every query on
// the base graph. Enumeration needs a schema, and every query used to
// fail once a view existed.
func TestSchemalessGraphPlansOnBase(t *testing.T) {
	g := graph.NewGraph(nil)
	var vs [3]graph.VertexID
	for i := range vs {
		var err error
		if vs[i], err = g.AddVertex("V", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 2 {
		if _, err := g.AddEdge(vs[i], vs[i+1], "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	sys := New(g)
	if _, err := sys.Exec(context.Background(), `CREATE VIEW xy AS MATCH (x)-[p*2..2]->(y) RETURN x, y`); err != nil {
		t.Fatal(err)
	}
	q := `MATCH (x)-[p*2..2]->(y) RETURN x, y`
	want, err := sys.QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	got, plan, err := sys.QueryWithPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "" || sortedLines(got) != sortedLines(want) || len(want.Rows) != 1 {
		t.Errorf("view %q: %d rows, raw %d (want 1 on the base graph)", plan.ViewName, len(got.Rows), len(want.Rows))
	}
}

package core

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"kaskade/internal/exec"
	"kaskade/internal/views"
)

// sweepStatements are the lineage statements and ad hoc shapes every
// view class must leave unchanged: blast radius, the Job→File→Job chain,
// Job-to-Job paths of 1..4 and 2..4 hops, one WRITES_TO edge, a
// WRITES_TO path, a GROUP BY over Job, and a chain whose last hop leaves
// any connector graph.
var sweepStatements = []string{
	blastRadius,
	`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) RETURN x, y`,
	`MATCH (x:Job)-[p*1..4]->(y:Job) RETURN x, y`,
	`MATCH (x:Job)-[p*2..4]->(y:Job) RETURN x, y`,
	`MATCH (x:Job)-[:WRITES_TO]->(f:File) RETURN x, f`,
	`MATCH (x:Job)-[p:WRITES_TO*1..3]->(y) RETURN x, y`,
	`SELECT A.pipelineName, COUNT(*) AS n FROM (MATCH (a:Job) RETURN a AS A) GROUP BY A.pipelineName`,
	`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job)-[:WRITES_TO]->(g:File) RETURN x, y, g`,
}

// sortedLines renders a result as its sorted lines: equal for the same
// rows in any order. Vertex references print their graph-local ID; the
// connector views of testSystem copy the Jobs first, in ID order, so a
// Job keeps its base ID.
func sortedLines(r *exec.Result) string {
	lines := strings.Split(r.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// assertViewedMatchesRaw runs every sweep statement through the view
// catalog and without it, and requires the same rows. It returns how
// many statements ran over the view.
func assertViewedMatchesRaw(t *testing.T, sys *System, class string) (rewritten int) {
	t.Helper()
	for _, src := range sweepStatements {
		raw, err := sys.QueryRaw(src)
		if err != nil {
			t.Fatalf("%s: raw %q: %v", class, src, err)
		}
		got, plan, err := sys.QueryWithPlan(src)
		if err != nil {
			t.Fatalf("%s: %q: %v", class, src, err)
		}
		if sortedLines(got) != sortedLines(raw) {
			t.Errorf("%s: %q over view %q returns %d rows, raw %d", class, src, plan.ViewName, len(got.Rows), len(raw.Rows))
		}
		if plan.ViewName != "" {
			rewritten++
		}
	}
	return rewritten
}

// TestDDLViewedMatchesRawForEveryClass: with any one Table I/II view in
// the catalog, every sweep statement returns what the base graph
// returns. A view is used only where a rewrite rule shows it answers the
// query; a source-to-sink view used to answer blast radius with 0 rows
// (raw: 23).
func TestDDLViewedMatchesRawForEveryClass(t *testing.T) {
	for i, create := range []string{
		`CREATE VIEW jj2 AS MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`,
		`CREATE VIEW jw2 AS MATCH (x:Job)-[p:WRITES_TO*2..2]->(y:Job) RETURN x, y`,
		`CREATE VIEW set AS MATCH (x)-[p:WRITES_TO*1..3]->(y) RETURN x, y`,
		`CREATE VIEW ss AS MATCH (x)-[p*1..4]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		`CREATE VIEW keepv AS MATCH (v) WHERE LABEL(v) = 'File' OR LABEL(v) = 'Job' RETURN v`,
		`CREATE VIEW dropv AS MATCH (v) WHERE NOT (LABEL(v) = 'File') RETURN v`,
		`CREATE VIEW keepe AS MATCH (x)-[e]->(y) WHERE TYPE(e) = 'WRITES_TO' RETURN x, e, y`,
		`CREATE VIEW drope AS MATCH (x)-[e]->(y) WHERE NOT (TYPE(e) = 'IS_READ_BY') RETURN x, e, y`,
		`CREATE VIEW aggv AS MATCH (v:Job) RETURN v.pipelineName, COUNT(v), SUM(v.CPU)`,
		`CREATE VIEW agge AS MATCH (x)-[e:WRITES_TO]->(y) RETURN x, y, COUNT(e)`,
		`CREATE VIEW aggsg AS MATCH (v:Job)-[e]->(w:Job) WHERE v.pipelineName = w.pipelineName RETURN v.pipelineName, COUNT(v)`,
	} {
		sys := testSystem(t)
		if _, err := sys.Exec(context.Background(), create); err != nil {
			t.Fatalf("%s: %v", create, err)
		}
		// The k-hop view must carry part of the sweep, or the sweep says
		// nothing about the rewriter.
		if n := assertViewedMatchesRaw(t, sys, create); i == 0 && n == 0 {
			t.Errorf("%s: no statement ran over the view", create)
		}
	}
	// The same-vertex-type connector has no DDL form; enumeration used to
	// propose it at MaxLen 10.
	for _, v := range []views.View{
		views.SameVertexTypeConnector{VType: "Job", MaxLen: 4},
		views.SameVertexTypeConnector{VType: "Job", MaxLen: 10},
	} {
		sys := testSystem(t)
		if err := sys.MaterializeView(v); err != nil {
			t.Fatal(err)
		}
		assertViewedMatchesRaw(t, sys, v.Name())
	}
}

// TestEnumerateCyclicPatternsWithKHopView: a pattern that closes a cycle
// used to send enumeration around the cycle until the inference step
// limit (~50 s, then an error). Each statement must now plan in well
// under a second over a catalog holding a k-hop view, and answer what
// the base graph answers.
func TestEnumerateCyclicPatternsWithKHopView(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Exec(context.Background(), createJJ); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(x) RETURN x`,
		`MATCH (x:Job)-[r*2..4]->(x) RETURN x`,
		`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job)-[:WRITES_TO]->(g:File)-[:IS_READ_BY]->(x) RETURN x, y`,
	} {
		start := time.Now()
		if _, err := sys.Explain(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q: planning took %v, want under 1s", src, d)
		}
		raw, err := sys.QueryRaw(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if sortedLines(got) != sortedLines(raw) {
			t.Errorf("%q: %d rows, raw %d", src, len(got.Rows), len(raw.Rows))
		}
	}
}

// TestDDLConnectorLengthsGetDistinctNames: connectors of one class that
// differ only in MaxLen are different views, so both land under
// distinct structural names instead of the second being refused as
// identical to the first.
func TestDDLConnectorLengthsGetDistinctNames(t *testing.T) {
	sys := testSystem(t)
	for _, create := range []string{
		`CREATE VIEW ss2 AS MATCH (x)-[p*1..2]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		`CREATE VIEW ss4 AS MATCH (x)-[p*1..4]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		`CREATE VIEW set2 AS MATCH (x)-[p:WRITES_TO*1..2]->(y) RETURN x, y`,
		`CREATE VIEW set3 AS MATCH (x)-[p:WRITES_TO*1..3]->(y) RETURN x, y`,
	} {
		if _, err := sys.Exec(context.Background(), create); err != nil {
			t.Errorf("%s: %v", create, err)
		}
	}
	for _, v := range []views.View{
		views.SameVertexTypeConnector{VType: "Job", MaxLen: 2},
		views.SameVertexTypeConnector{VType: "Job", MaxLen: 4},
	} {
		if err := sys.MaterializeView(v); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"CONN_SRCSINK_2", "CONN_SRCSINK_4", "CONN_SAMEET_2_WRITES_TO", "CONN_SAMEET_3_WRITES_TO",
		"CONN_SAMEVT_2_Job", "CONN_SAMEVT_4_Job"}
	if got := sys.Catalog().Views(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("views = %v, want %v", got, want)
	}
}

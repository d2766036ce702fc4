package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
	"kaskade/internal/workload"
)

const createJJ = `CREATE MATERIALIZED VIEW jj AS MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`

func TestExecDDLLifecycle(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()

	// CREATE returns a status row and lands the view.
	res, err := sys.Exec(ctx, createJJ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].(string), "materialized view jj") {
		t.Fatalf("create result = %+v", res)
	}
	if got := sys.Catalog().Views(); len(got) != 1 || got[0] != "CONN_2HOP_Job_Job" {
		t.Fatalf("catalog views = %v", got)
	}

	// Re-CREATE under the same or an equivalent name errors.
	if _, err := sys.Exec(ctx, createJJ); !errors.Is(err, workload.ErrViewExists) {
		t.Errorf("duplicate CREATE error = %v", err)
	}

	// SHOW VIEWS lists it with the canonical DDL and a hits column.
	res, err = sys.Exec(ctx, `SHOW VIEWS;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW VIEWS rows = %+v", res.Rows)
	}
	if name := res.Rows[0][res.Col("name")]; name != "jj" {
		t.Errorf("name = %v", name)
	}
	ddl := res.Rows[0][res.Col("definition")].(string)
	if !strings.HasPrefix(ddl, "CREATE MATERIALIZED VIEW jj AS MATCH") {
		t.Errorf("definition = %q", ddl)
	}
	// The printed definition round-trips: dropping and re-running it
	// recreates the same view.
	if _, err := sys.Exec(ctx, `DROP VIEW jj`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(ctx, ddl); err != nil {
		t.Fatalf("round-tripped DDL %q: %v", ddl, err)
	}

	// Queries flow through Exec too.
	res, err = sys.Exec(ctx, `MATCH (j:Job) RETURN COUNT(*) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) <= 0 {
		t.Fatalf("query through Exec = %+v", res)
	}

	// DROP of an unknown view errors.
	if _, err := sys.Exec(ctx, `DROP VIEW nope`); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("drop unknown = %v", err)
	}
	// Patterns outside the inventory error clearly.
	if _, err := sys.Exec(ctx, `CREATE VIEW bad AS MATCH (a)-[p*2..4]->(b) RETURN a, b`); err == nil ||
		!strings.Contains(err.Error(), "view inventory") {
		t.Errorf("out-of-inventory CREATE = %v", err)
	}
}

func TestQuerySurfaceRejectsDDLTyped(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Query(createJJ); !errors.Is(err, gql.ErrDDL) {
		t.Errorf("Query(DDL) error = %v, want ErrDDL", err)
	}
	if _, err := sys.QueryContext(context.Background(), `DROP VIEW x`); !errors.Is(err, gql.ErrDDL) {
		t.Errorf("QueryContext(DDL) error = %v, want ErrDDL", err)
	}
	if _, err := sys.QueryRows(context.Background(), `SHOW VIEWS`); !errors.Is(err, gql.ErrDDL) {
		t.Errorf("QueryRows(DDL) error = %v, want ErrDDL", err)
	}
	if _, err := sys.Prepare(createJJ); !errors.Is(err, gql.ErrDDL) {
		t.Errorf("Prepare(DDL) error = %v, want ErrDDL", err)
	}
	if _, err := sys.Explain(`SHOW VIEWS`); !errors.Is(err, gql.ErrDDL) {
		t.Errorf("Explain(DDL) error = %v, want ErrDDL", err)
	}
}

// TestPreparedReplansAcrossDDL pins the acceptance criterion: a
// prepared statement transparently re-rewrites across CREATE VIEW and
// DROP VIEW of a named view, and its results never change.
func TestPreparedReplansAcrossDDL(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	p, err := sys.Prepare(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Exec() // caches the base plan
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "" {
		t.Fatalf("empty catalog but plan uses %q", plan.ViewName)
	}

	if _, err := sys.Exec(ctx, createJJ); err != nil {
		t.Fatal(err)
	}
	plan, err = p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "CONN_2HOP_Job_Job" {
		t.Fatalf("prepared plan did not pick up the DDL-created view: %+v", plan)
	}
	got, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultStrings(got), resultStrings(base)) {
		t.Fatal("view-rewritten result differs from base result")
	}

	if _, err := sys.Exec(ctx, `DROP VIEW jj`); err != nil {
		t.Fatal(err)
	}
	plan, err = p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "" {
		t.Fatalf("prepared plan still uses dropped view: %+v", plan)
	}
	got, err = p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultStrings(got), resultStrings(base)) {
		t.Fatal("result changed after DROP VIEW")
	}
}

// resultStrings renders a result for comparison across graphs (vertex
// refs print type:id, stable within one System's base/view pair).
func resultStrings(r interface{ String() string }) string { return r.String() }

// TestDDLEquivalenceAgainstStructAPI pins byte-identity between the two
// surfaces end to end: for every DDL-expressible Table I/II class,
// CREATE VIEW from pattern text must materialize a view graph
// byte-identical to the struct-built equivalent, at workers 1 and 4, and
// the rewritten query results over the DDL-created view must match the
// struct path. The same-vertex-type connector has no DDL form.
func TestDDLEquivalenceAgainstStructAPI(t *testing.T) {
	svt := `CREATE VIEW svt AS MATCH (x:Job)-[p*1..4]->(y:Job) RETURN x, y`
	if _, err := testSystem(t).Exec(context.Background(), svt); err == nil ||
		!strings.Contains(err.Error(), "is not a same-vertex-type connector") {
		t.Errorf("svt: CREATE VIEW err = %v, want the same-vertex-type refusal", err)
	}
	classes := []struct {
		name   string
		create string
		view   views.View
	}{
		{"jj2", `CREATE VIEW jj2 AS MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`,
			views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}},
		{"set", `CREATE VIEW set AS MATCH (x)-[p:WRITES_TO*1..3]->(y) RETURN x, y`,
			views.SameEdgeTypeConnector{EType: "WRITES_TO", MaxLen: 3}},
		{"ss", `CREATE VIEW ss AS MATCH (x)-[p*1..4]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
			views.SourceToSinkConnector{MaxLen: 4}},
		{"keepv", `CREATE VIEW keepv AS MATCH (v) WHERE LABEL(v) = 'File' OR LABEL(v) = 'Job' RETURN v`,
			views.VertexInclusionSummarizer{Types: []string{"File", "Job"}}},
		{"dropv", `CREATE VIEW dropv AS MATCH (v) WHERE NOT (LABEL(v) = 'File') RETURN v`,
			views.VertexRemovalSummarizer{Types: []string{"File"}}},
		{"keepe", `CREATE VIEW keepe AS MATCH (x)-[e]->(y) WHERE TYPE(e) = 'WRITES_TO' RETURN x, e, y`,
			views.EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}}},
		{"drope", `CREATE VIEW drope AS MATCH (x)-[e]->(y) WHERE NOT (TYPE(e) = 'IS_READ_BY') RETURN x, e, y`,
			views.EdgeRemovalSummarizer{Types: []string{"IS_READ_BY"}}},
		{"aggv", `CREATE VIEW aggv AS MATCH (v:Job) RETURN v.pipelineName, COUNT(v), SUM(v.CPU)`,
			views.VertexAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName", Aggs: map[string]views.AggFunc{"CPU": views.AggSum}}},
		{"agge", `CREATE VIEW agge AS MATCH (x)-[e:WRITES_TO]->(y) RETURN x, y, COUNT(e)`,
			views.EdgeAggregatorSummarizer{EType: "WRITES_TO"}},
		{"aggsg", `CREATE VIEW aggsg AS MATCH (v:Job)-[e]->(w:Job) WHERE v.pipelineName = w.pipelineName RETURN v.pipelineName, COUNT(v)`,
			views.SubgraphAggregatorSummarizer{VType: "Job", GroupBy: "pipelineName"}},
	}
	for _, workers := range []int{1, 4} {
		ddlSys, structSys := testSystem(t), testSystem(t)
		ddlSys.Parallelism, structSys.Parallelism = workers, workers
		for _, tc := range classes {
			if _, err := ddlSys.Exec(context.Background(), tc.create); err != nil {
				t.Fatalf("w=%d %s: %v", workers, tc.name, err)
			}
			if err := structSys.MaterializeView(tc.view); err != nil {
				t.Fatalf("w=%d %s: struct: %v", workers, tc.name, err)
			}
			dm, ok := ddlSys.Catalog().Get(tc.view.Name())
			if !ok {
				t.Fatalf("w=%d %s: DDL view not under structural name %q", workers, tc.name, tc.view.Name())
			}
			sm, _ := structSys.Catalog().Get(tc.view.Name())
			var db, sb bytes.Buffer
			if err := graph.Save(&db, dm.Graph); err != nil {
				t.Fatal(err)
			}
			if err := graph.Save(&sb, sm.Graph); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(db.Bytes(), sb.Bytes()) {
				t.Errorf("w=%d %s: DDL view graph differs from struct view graph", workers, tc.name)
			}
		}
		// With the full inventory materialized on both systems, the
		// rewritten workload query agrees byte for byte.
		want, err := structSys.Query(blastRadius)
		if err != nil {
			t.Fatal(err)
		}
		got, gotPlan, err := ddlSys.QueryWithPlan(blastRadius)
		if err != nil {
			t.Fatal(err)
		}
		if gotPlan.ViewName == "" {
			t.Errorf("w=%d: DDL system did not rewrite over a view", workers)
		}
		if got.String() != want.String() {
			t.Errorf("w=%d: rewritten results differ between DDL and struct systems", workers)
		}
	}
}

func TestExplainPrintsDDLAndHits(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Exec(context.Background(), createJJ); err != nil {
		t.Fatal(err)
	}
	// Explain plans without executing, so it must not move the hit
	// counter — only the actual execution below does.
	if out, err := sys.Explain(blastRadius); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(out, "rewrite hits: 0") {
		t.Errorf("explain before any execution should report 0 hits:\n%s", out)
	}
	if _, err := sys.Query(blastRadius); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Explain(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "view: CREATE MATERIALIZED VIEW jj AS MATCH") {
		t.Errorf("explain missing canonical DDL:\n%s", out)
	}
	if !strings.Contains(out, "rewrite hits: 1") {
		t.Errorf("explain missing rewrite hits:\n%s", out)
	}
	// Repeated Explain still observes, never counts.
	if out, _ := sys.Explain(blastRadius); !strings.Contains(out, "rewrite hits: 1") {
		t.Errorf("repeated explain moved the hit counter:\n%s", out)
	}
	// The DDL line round-trips through the parser.
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "view: "); ok {
			if _, err := gql.ParseStatement(rest); err != nil {
				t.Errorf("explain view line does not reparse: %q: %v", rest, err)
			}
		}
	}
}

func TestInventoryAndCandidatesPrintDDL(t *testing.T) {
	// Every inventory example is a CREATE statement the parser and view
	// compiler accept.
	for _, line := range strings.Split(ViewInventory(), "\n") {
		idx := strings.Index(line, "e.g. ")
		if idx < 0 {
			continue
		}
		src := strings.TrimSpace(line[idx+len("e.g. "):])
		st, err := gql.ParseStatement(src)
		if err != nil {
			t.Errorf("inventory example does not parse: %q: %v", src, err)
			continue
		}
		if _, err := views.CompilePattern(st.(*gql.CreateViewStmt).Body); err != nil {
			t.Errorf("inventory example does not compile: %q: %v", src, err)
		}
	}

	sys := testSystem(t)
	cands, err := sys.EnumerateViews(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	desc := DescribeCandidates(cands)
	if !strings.Contains(desc, "ddl: MATCH") {
		t.Errorf("candidate listing has no DDL patterns:\n%s", desc)
	}
	// Each printed pattern compiles.
	for _, line := range strings.Split(desc, "\n") {
		if idx := strings.Index(line, "ddl: "); idx >= 0 {
			if _, err := views.Compile(strings.TrimSpace(line[idx+len("ddl: "):])); err != nil {
				t.Errorf("candidate ddl does not compile: %q: %v", line, err)
			}
		}
	}
}

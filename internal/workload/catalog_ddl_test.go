package workload

import (
	"errors"
	"strings"
	"testing"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/metrics"
	"kaskade/internal/views"
)

// ddlTestCatalog builds a catalog over the filtered lineage graph.
func ddlTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return NewCatalog(filteredProv(t))
}

func khopDef(t *testing.T, name string) views.ViewDef {
	t.Helper()
	v, err := views.Compile(`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`)
	if err != nil {
		t.Fatal(err)
	}
	return views.ViewDef{Name: name, DDL: "CREATE MATERIALIZED VIEW " + name + " AS " + v.Cypher(), View: v}
}

func TestCatalogCreateViewRegistry(t *testing.T) {
	c := ddlTestCatalog(t)
	e0 := c.Epoch()
	if err := c.CreateView(khopDef(t, "jj"), 1); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() == e0 {
		t.Error("CreateView did not bump the epoch")
	}
	// The view lands under its structural name (rewriting matches on
	// it) and is listed under its registry name.
	if _, ok := c.Get("CONN_2HOP_Job_Job"); !ok {
		t.Fatalf("structural name not in catalog: %v", c.Views())
	}
	infos := c.ListViews()
	if len(infos) != 1 || infos[0].Name != "jj" || infos[0].Kind != "connector" {
		t.Fatalf("ListViews = %+v", infos)
	}
	if !strings.HasPrefix(infos[0].DDL, "CREATE MATERIALIZED VIEW jj AS MATCH") {
		t.Errorf("DDL text = %q", infos[0].DDL)
	}
	if infos[0].Edges == 0 || infos[0].Vertices == 0 {
		t.Errorf("empty view graph in listing: %+v", infos[0])
	}

	// Name collisions error with ErrViewExists: same registry name,
	// and an identical definition under a different name.
	if err := c.CreateView(khopDef(t, "jj"), 1); !errors.Is(err, ErrViewExists) {
		t.Errorf("duplicate name error = %v", err)
	}
	if err := c.CreateView(khopDef(t, "jj2"), 1); !errors.Is(err, ErrViewExists) {
		t.Errorf("identical definition error = %v", err)
	}

	// DROP by registry name, then re-CREATE under a new name.
	e1 := c.Epoch()
	if !c.DropView("jj") {
		t.Fatal("DropView(jj) = false")
	}
	if c.Epoch() == e1 {
		t.Error("DropView did not bump the epoch")
	}
	if len(c.ListViews()) != 0 {
		t.Fatalf("ListViews after drop = %+v", c.ListViews())
	}
	if err := c.CreateView(khopDef(t, "jj2"), 1); err != nil {
		t.Fatal(err)
	}
	// DROP also resolves the structural name.
	if !c.DropView("CONN_2HOP_Job_Job") {
		t.Fatal("DropView(structural) = false")
	}
	if c.DropView("jj2") {
		t.Error("registry entry survived a structural drop")
	}
}

func TestCatalogStructViewsInRegistry(t *testing.T) {
	c := ddlTestCatalog(t)
	v := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}
	if err := c.Add(v); err != nil {
		t.Fatal(err)
	}
	infos := c.ListViews()
	if len(infos) != 1 || infos[0].Name != v.Name() {
		t.Fatalf("ListViews = %+v", infos)
	}
	if !strings.Contains(infos[0].DDL, "CREATE MATERIALIZED VIEW "+v.Name()+" AS ") {
		t.Errorf("struct view carries no derived DDL: %q", infos[0].DDL)
	}
	// A struct view with options outside the DDL surface lists with an
	// empty DDL column.
	dedup := views.KHopConnector{SrcType: "Job", DstType: "File", K: 1, DedupPairs: true}
	if err := c.Add(dedup); err != nil {
		t.Fatal(err)
	}
	infos = c.ListViews()
	if len(infos) != 2 || infos[1].DDL != "" {
		t.Fatalf("ListViews = %+v", infos)
	}
	// CREATE VIEW under a name that collides with the struct view's
	// registry entry errors.
	if err := c.CreateView(khopDef(t, v.Name()), 1); !errors.Is(err, ErrViewExists) {
		t.Errorf("collision with struct registry name = %v", err)
	}
}

func TestCatalogRewriteHits(t *testing.T) {
	c := ddlTestCatalog(t)
	if err := c.CreateView(khopDef(t, "jj"), 1); err != nil {
		t.Fatal(err)
	}
	q := gql.MustParse(blastRadius)
	for i := 0; i < 3; i++ {
		plan, err := c.Rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ViewName != "CONN_2HOP_Job_Job" {
			t.Fatalf("rewrite %d did not land on the connector: %+v", i, plan)
		}
	}
	infos := c.ListViews()
	if infos[0].Hits != 3 {
		t.Errorf("hits = %d, want 3", infos[0].Hits)
	}
	// A rewrite that stays on the base graph bumps nothing.
	q2 := gql.MustParse(`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	if _, err := c.Rewrite(q2); err != nil {
		t.Fatal(err)
	}
	if got := c.ListViews()[0].Hits; got != 3 {
		t.Errorf("hits after base-plan rewrite = %d, want 3", got)
	}
}

// TestConcurrentCreateViewDDL races two CREATEs of the same name: the
// materialize-outside-lock path must resolve the collision under the
// lock — exactly one lands, the other errors with ErrViewExists.
func TestConcurrentCreateViewDDL(t *testing.T) {
	c := ddlTestCatalog(t)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- c.CreateView(khopDef(t, "jj"), 1) }()
	}
	var won, lost int
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			won++
		} else if errors.Is(err, ErrViewExists) {
			lost++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if won != 1 || lost != 1 {
		t.Fatalf("won=%d lost=%d, want 1/1", won, lost)
	}
	if got := len(c.ListViews()); got != 1 {
		t.Fatalf("ListViews has %d entries", got)
	}
}

// TestDDLNameShadowingStructural pins the resolution order when a DDL
// view's name collides with another view's structural name: the struct
// view still lands (unregistered), DROP of the shared name evicts the
// exact structural match first, and the alias survives until its own
// view is dropped.
func TestDDLNameShadowingStructural(t *testing.T) {
	c := ddlTestCatalog(t)
	// A DDL view deliberately named like the k-hop connector's
	// structural name.
	alias := views.ViewDef{
		Name: "CONN_2HOP_Job_Job",
		View: views.MustCompile(`MATCH (x)-[p:WRITES_TO*1..3]->(y) RETURN x, y`),
	}
	if err := c.CreateView(alias, 1); err != nil {
		t.Fatal(err)
	}
	// The real k-hop view arrives via the struct path; it lands even
	// though its registry name is shadowed.
	khop := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}
	if err := c.Add(khop); err != nil {
		t.Fatal(err)
	}
	if len(c.ListViews()) != 2 {
		t.Fatalf("ListViews = %+v", c.ListViews())
	}
	// DROP of the shared name evicts the exact structural match (the
	// k-hop view), not the alias's view.
	if !c.DropView("CONN_2HOP_Job_Job") {
		t.Fatal("drop failed")
	}
	if _, ok := c.Get(khop.Name()); ok {
		t.Fatal("structural view survived a drop by its exact name")
	}
	if _, ok := c.Get(alias.View.Name()); !ok {
		t.Fatal("alias's view was evicted instead of the structural match")
	}
	// The alias still resolves its own view.
	if !c.DropView("CONN_2HOP_Job_Job") {
		t.Fatal("alias no longer resolves after the structural drop")
	}
	if len(c.ListViews()) != 0 {
		t.Fatalf("ListViews = %+v", c.ListViews())
	}
}

// TestPlanOnlyReturnsIdenticalPlanWithoutCounting pins the EXPLAIN
// contract: PlanOnly chooses exactly what Rewrite would, but neither the
// per-view hit counters nor the registry's hit/miss counters move.
func TestPlanOnlyReturnsIdenticalPlanWithoutCounting(t *testing.T) {
	c := ddlTestCatalog(t)
	r := metrics.NewRegistry()
	c.SetMetrics(r)
	if err := c.CreateView(khopDef(t, "jj"), 1); err != nil {
		t.Fatal(err)
	}
	q := gql.MustParse(blastRadius)
	for i := 0; i < 3; i++ {
		plan, err := c.PlanOnly(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ViewName != "CONN_2HOP_Job_Job" {
			t.Fatalf("PlanOnly %d did not land on the connector: %+v", i, plan)
		}
	}
	if got := c.ListViews()[0].Hits; got != 0 {
		t.Errorf("PlanOnly bumped per-view hits: %d", got)
	}
	if s := r.Snapshot(); s.RewriteHits != 0 || s.RewriteMisses != 0 {
		t.Errorf("PlanOnly bumped registry counters: hits=%d misses=%d", s.RewriteHits, s.RewriteMisses)
	}

	// Same query through the counting entry point: identical plan, and
	// both counter families move in lockstep.
	planOnly, err := c.PlanOnly(q)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := c.Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	if counted.ViewName != planOnly.ViewName || counted.Cost != planOnly.Cost {
		t.Errorf("Rewrite plan %+v differs from PlanOnly plan %+v", counted, planOnly)
	}
	if got := c.ListViews()[0].Hits; got != 1 {
		t.Errorf("hits after counted rewrite = %d, want 1", got)
	}
	if s := r.Snapshot(); s.RewriteHits != 1 {
		t.Errorf("registry hits = %d, want 1", s.RewriteHits)
	}

	// A base-graph decision is a miss on the counting path and nothing on
	// the plan-only path.
	q2 := gql.MustParse(`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	if _, err := c.PlanOnly(q2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rewrite(q2); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.RewriteMisses != 1 {
		t.Errorf("registry misses = %d, want 1", s.RewriteMisses)
	}
}

// TestEpochBumpsOnCompaction pins the compaction-granularity freshness
// signal: overlay mutations on the base graph leave the epoch alone
// (the snapshot tracks them through its tail, so cached plans stay
// valid), but folding the tail into a fresh CSR bumps it, refreshing
// prepared plans and response caches once per burst instead of per
// edge.
func TestEpochBumpsOnCompaction(t *testing.T) {
	c := ddlTestCatalog(t)
	base := c.Base
	base.Freeze()
	e0 := c.Epoch()
	jobs := base.VerticesOfType("Job")
	files := base.VerticesOfType("File")
	for i := 0; i < 5; i++ {
		base.MustAddEdge(jobs[i], files[i], "WRITES_TO", nil)
	}
	if c.Epoch() != e0 {
		t.Fatal("overlay mutations bumped the epoch")
	}
	if err := base.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("Epoch after compaction = %d, want %d", c.Epoch(), e0+1)
	}
	// Views landing still bump it on top.
	if err := c.CreateView(khopDef(t, "jj"), 1); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+2 {
		t.Fatalf("Epoch after CreateView = %d, want %d", c.Epoch(), e0+2)
	}
}

// TestCatalogDDLViewWithoutRuleIsNotUsed is the catalog-level probe of
// the class sweep in internal/core: a view that no rewrite rule shows
// answers the query is never planned over. A source-to-sink view used
// to answer the Job→File→Job chain with 0 rows and the 1..4-hop Job
// paths with 210 pairs; an edge-typed k-hop view shared the untyped
// one's name and was planned as if it were the untyped one.
func TestCatalogDDLViewWithoutRuleIsNotUsed(t *testing.T) {
	for _, src := range []string{
		`MATCH (x)-[p*1..4]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		`MATCH (x:Job)-[p:WRITES_TO*2..2]->(y:Job) RETURN x, y`,
	} {
		c := ddlTestCatalog(t)
		if err := c.CreateView(views.ViewDef{Name: "v", View: views.MustCompile(src)}, 1); err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{
			`MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) RETURN x, y`,
			`MATCH (x:Job)-[p*1..4]->(y:Job) RETURN x, y`,
		} {
			q := gql.MustParse(text)
			plan, err := c.Rewrite(q)
			if err != nil {
				t.Fatal(err)
			}
			if plan.ViewName != "" {
				t.Errorf("%s: %q planned over %s", src, text, plan.ViewName)
			}
			base, err := (&exec.Executor{G: c.Base}).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&exec.Executor{G: plan.Graph}).Execute(plan.Query)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(base.Rows) {
				t.Errorf("%s: %q: %d rows, base %d", src, text, len(got.Rows), len(base.Rows))
			}
		}
	}
}

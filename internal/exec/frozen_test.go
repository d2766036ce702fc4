package exec

import (
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// TestFrozenErrorsMatchAppend pins error behavior (row limits included)
// on the frozen matcher, sequential and parallel.
func TestFrozenErrorsMatchAppend(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, MaxRows: 2, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d: got %v, want ErrRowLimit", workers, err)
		}
	}
	for _, src := range []string{
		`MATCH (j:Job) RETURN unknown_var`,
		`MATCH (j:Job) WHERE j.CPU RETURN j`,
	} {
		for _, workers := range []int{1, 4} {
			ex := &Executor{G: g, Workers: workers}
			if _, err := ex.Execute(mustParse(t, src)); err == nil {
				t.Errorf("query %q workers=%d: want error", src, workers)
			}
		}
	}
}

// declaredSchema builds the lineage schema with Job.CPU declared as an
// integer property.
func declaredSchema(t *testing.T) *graph.Schema {
	t.Helper()
	s, err := graph.NewSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("Job", "CPU", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeclaredPropertyPartialEquivalence proves SUM over a declared
// (columnar) property byte-identical between sequential and parallel
// execution on real data.
func TestDeclaredPropertyPartialEquivalence(t *testing.T) {
	s := declaredSchema(t)
	g := graph.NewGraph(s)
	for i := 0; i < 40; i++ {
		j := g.MustAddVertex("Job", graph.Properties{"CPU": int64(i * 7 % 13)})
		f := g.MustAddVertex("File", nil)
		g.MustAddEdge(j, f, "WRITES_TO", nil)
		if i > 0 {
			g.MustAddEdge(f, j-2, "IS_READ_BY", nil)
		}
	}
	src := `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(j.CPU) AS total`
	seq := runWorkers(t, g, src, 1)
	for _, workers := range []int{2, 4} {
		assertSameResult(t, src, seq, runWorkers(t, g, src, workers), workers)
	}
}

// TestMisdeclaredPropertyFailsLoudly pins the lying-schema behavior: a
// property declared PropInt after its type's vertices were stored with
// float64 values must fail loudly, not silently read as absent. The
// stored vertices have no column value for it, so FreezeChecked refuses
// the late declaration, and a MATCH resolves its snapshot through
// FreezeChecked, so the query returns that error — at any worker count,
// without panicking.
func TestMisdeclaredPropertyFailsLoudly(t *testing.T) {
	s := graph.MustSchema([]string{"Job", "File"}, []graph.EdgeType{{From: "Job", To: "File", Name: "WRITES_TO"}})
	g := graph.NewGraph(s)
	for i := 0; i < 30; i++ {
		j := g.MustAddVertex("Job", graph.Properties{"CPU": float64(i) / 3})
		f := g.MustAddVertex("File", nil)
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	if err := s.DeclareProperty("Job", "CPU", graph.PropInt); err != nil { // lies: the values are float64
		t.Fatal(err)
	}
	const want = "property Job.CPU declared after vertices of Job exist"
	if _, err := g.FreezeChecked(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("FreezeChecked err = %v, want %q", err, want)
	}
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(j.CPU) AS total`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, Workers: workers}
		if _, err := ex.Execute(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

// BenchmarkFrozenPatternMatch prices the matcher on the 2-hop typed
// lineage join (typed adjacency groups, flat endpoint arrays).
func BenchmarkFrozenPatternMatch(b *testing.B) {
	g := benchGraph(b)
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`)
	benchExecute(b, g, q)
}

// BenchmarkFrozenVarLength prices the matcher on variable-length
// traversal (untyped steps over flat CSR rows).
func BenchmarkFrozenVarLength(b *testing.B) {
	g := benchGraph(b)
	q := gql.MustParse(`MATCH (a:Job)-[r*1..3]->(v) RETURN COUNT(r) AS n`)
	benchExecute(b, g, q)
}

// benchExecute times q on one match worker over a pre-frozen g.
func benchExecute(b *testing.B, g *graph.Graph, q gql.Query) {
	ex := &Executor{G: g}
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph is a mid-size filtered-provenance-shaped graph for the
// frozen benchmarks.
func benchGraph(b testing.TB) *graph.Graph {
	b.Helper()
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 400, Files: 900, TasksPerJob: 2, Machines: 15, Users: 5,
		MaxReads: 15, Pipelines: 6, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

package exec

import (
	"strings"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
)

// declaredLineage is the lineage graph (exec_test.go) rebuilt over a
// schema that declares every property, so every vertex property read a
// query makes is column-covered.
func declaredLineage(t testing.TB) *graph.Graph {
	t.Helper()
	s := graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	)
	for _, d := range []struct {
		typ, prop string
		kind      graph.PropKind
	}{
		{"Job", "name", graph.PropString},
		{"Job", "CPU", graph.PropInt},
		{"Job", "pipelineName", graph.PropString},
		{"File", "name", graph.PropString},
	} {
		if err := s.DeclareProperty(d.typ, d.prop, d.kind); err != nil {
			t.Fatal(err)
		}
	}
	g := graph.NewGraph(s)
	ids := make(map[string]graph.VertexID)
	addJ := func(name string, cpu int64) {
		ids[name] = g.MustAddVertex("Job", graph.Properties{"name": name, "CPU": cpu, "pipelineName": "p" + name})
	}
	addF := func(name string) {
		ids[name] = g.MustAddVertex("File", graph.Properties{"name": name})
	}
	addJ("j1", 10)
	addJ("j2", 20)
	addJ("j3", 30)
	addF("f1")
	addF("f2")
	addF("f3")
	addF("f4")
	w := func(j, f string) { g.MustAddEdge(ids[j], ids[f], "WRITES_TO", nil) }
	r := func(f, j string) { g.MustAddEdge(ids[f], ids[j], "IS_READ_BY", nil) }
	w("j1", "f1")
	w("j1", "f2")
	r("f1", "j2")
	r("f2", "j3")
	w("j2", "f3")
	w("j3", "f4")
	return g
}

// undeclaredTwin copies g — same vertices, edges, IDs and properties —
// into a graph with no schema, so no property is declared, no column is
// built and the executor reads every vertex and edge property from its
// record's map (each edge's columns merged into one, by EdgeProps). It
// is the map reference the columnar suites compare against.
func undeclaredTwin(g *graph.Graph) *graph.Graph {
	tw := graph.NewGraph(nil)
	for v := 0; v < g.NumVertices(); v++ {
		x := g.Vertex(graph.VertexID(v))
		tw.MustAddVertex(x.Type, x.Props)
	}
	for e := 0; e < g.NumEdges(); e++ {
		x := g.Edge(graph.EdgeID(e))
		tw.MustAddEdge(x.From, x.To, x.Type, g.EdgeProps(x.ID))
	}
	return tw
}

// rebind returns a copy of res whose VertexRef, EdgeRef and PathRef
// values bound in from point at to instead. The twin keeps g's IDs, so
// a rebound twin result is reflect.DeepEqual to g's when the rows agree
// in every value, its Go type included.
func rebind(res *Result, from, to *graph.Graph) *Result {
	out := &Result{Cols: res.Cols, Rows: make([]Row, len(res.Rows))}
	for i, r := range res.Rows {
		row := make(Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case VertexRef:
				if x.G == from {
					x.G = to
				}
				v = x
			case EdgeRef:
				if x.G == from {
					x.G = to
				}
				v = x
			case PathRef:
				if x.G == from {
					x.G = to
				}
				v = x
			}
			row[j] = v
		}
		out.Rows[i] = row
	}
	return out
}

// assertColumnsMatchMap runs src on g at workers 1 and 4 and requires
// the rows the undeclared twin gives on one worker: rows, order, group
// order, value types and float bits.
func assertColumnsMatchMap(t *testing.T, g, twin *graph.Graph, src string) {
	t.Helper()
	ref := rebind(runWorkers(t, twin, src, 1), twin, g)
	for _, workers := range []int{1, 4} {
		assertSameResult(t, src, ref, runWorkers(t, g, src, workers), workers)
	}
}

// TestColumnsMatchMapOnLineage is the columnar-vs-map equivalence suite
// over every exec_test query shape: with every property declared, the
// columnar reads and the predicate prefilter must produce byte-identical
// results to the property maps of the undeclared twin.
func TestColumnsMatchMapOnLineage(t *testing.T) {
	g := declaredLineage(t)
	twin := undeclaredTwin(g)
	for _, src := range equivalenceQueries {
		assertColumnsMatchMap(t, g, twin, src)
	}
}

// TestColumnsMatchMapOnDatagen runs the same comparison over the
// randomized synthetic datasets (prov declares properties; the others
// exercise the column-less path on both sides).
func TestColumnsMatchMapOnDatagen(t *testing.T) {
	for _, seed := range []int64{5, 19} {
		for name, g := range datagenGraphs(t, seed) {
			twin := undeclaredTwin(g)
			for _, src := range datasetQueries[name] {
				assertColumnsMatchMap(t, g, twin, src)
			}
		}
	}
}

// absentValuesGraph has three declared-CPU Jobs, the middle one lacking
// the property.
func absentValuesGraph(t testing.TB) *graph.Graph {
	t.Helper()
	s := graph.MustSchema([]string{"Job"}, nil)
	if err := s.DeclareProperty("Job", "CPU", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph(s)
	g.MustAddVertex("Job", graph.Properties{"CPU": int64(10)})
	g.MustAddVertex("Job", nil) // no CPU
	g.MustAddVertex("Job", graph.Properties{"CPU": int64(20)})
	return g
}

// absentValueQueries compare against the absent value cleanly ("=" is
// false, "<>" is true); absentValueOrdering errors on it.
var absentValueQueries = []string{
	`MATCH (j:Job) WHERE j.CPU = 10 RETURN ID(j) AS id`,
	`MATCH (j:Job) WHERE j.CPU <> 10 RETURN ID(j) AS id`,
}

const absentValueOrdering = `MATCH (j:Job) WHERE j.CPU >= 10 RETURN ID(j) AS id`

// TestColumnsMatchMapOnAbsentValues pins the prefilter's nil semantics:
// a vertex lacking the declared property compares like a map read —
// "=" is cleanly false, "<>" is cleanly true, and orderings error.
func TestColumnsMatchMapOnAbsentValues(t *testing.T) {
	g := absentValuesGraph(t)
	twin := undeclaredTwin(g)
	for _, src := range absentValueQueries {
		assertColumnsMatchMap(t, g, twin, src)
	}
	// An ordering against the absent value errors identically: the
	// prefilter must keep the candidate so the error still surfaces.
	src := absentValueOrdering
	for _, gr := range []*graph.Graph{g, twin} {
		ex := &Executor{G: gr}
		if _, err := ex.Execute(mustParse(t, src)); err == nil ||
			!strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("declared=%v: err = %v, want incomparable error", gr == g, err)
		}
	}
}

// prefilterEngages are declaredLineage shapes the prefilter accepts:
// first-var property vs literal, leftmost AND conjunct, flipped operand
// order. Each keeps exactly j2 and j3.
var prefilterEngages = []string{
	`MATCH (j:Job) WHERE j.CPU >= 20 RETURN j`,
	`MATCH (j:Job) WHERE 20 <= j.CPU RETURN j`,
	`MATCH (j:Job) WHERE j.CPU >= 20 AND j.name <> 'zzz' RETURN j`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU >= 20 RETURN j, f`,
}

// prefilterStaysOut are shapes where skipping a candidate could change
// results or suppress errors.
var prefilterStaysOut = []struct {
	src, why string
}{
	{`MATCH (j:Job) WHERE j.undeclared = 1 RETURN j`, "no column"},
	{`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE f.name = 'f1' RETURN j`, "property on a later variable"},
	{`MATCH (j) WHERE j.CPU >= 20 RETURN j`, "untyped first node"},
	{`MATCH (j:Job) WHERE j.CPU = 'ten' RETURN j`, "literal kind mismatch"},
	{`MATCH (j:Job) WHERE j.name <> 'x' OR j.CPU = 1 RETURN j`, "top-level OR"},
	{`MATCH (j:Job) WHERE j.CPU + 1 >= 21 RETURN j`, "computed left side"},
}

// TestColumnPrefilterEngagement pins which WHERE shapes the plan-time
// prefilter extraction accepts, and that filtering matches the
// predicate.
func TestColumnPrefilterEngagement(t *testing.T) {
	g := declaredLineage(t)
	f := g.Freeze()
	ex := &Executor{G: g}
	match := func(src string) *gql.MatchQuery {
		t.Helper()
		q, ok := mustParse(t, src).(*gql.MatchQuery)
		if !ok {
			t.Fatalf("%q is not a MATCH query", src)
		}
		return q
	}

	for _, src := range prefilterEngages {
		pf := ex.columnPrefilter(match(src), f)
		if pf == nil {
			t.Errorf("%q: prefilter did not engage", src)
			continue
		}
		got := pf.filter(g.VerticesOfType("Job"), nil)
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Errorf("%q: filtered candidates = %v, want [1 2] (j2, j3)", src, got)
		}
	}

	for _, tc := range prefilterStaysOut {
		if ex.columnPrefilter(match(tc.src), f) != nil {
			t.Errorf("%q: prefilter engaged (%s)", tc.src, tc.why)
		}
	}

	// The map reference has no column to prefilter.
	twin := undeclaredTwin(g)
	if (&Executor{G: twin}).columnPrefilter(match(prefilterEngages[0]), twin.Freeze()) != nil {
		t.Error("undeclared twin prefilters")
	}
}

// TestColumnMetricsCounters pins the columnar-usage counters: a fully
// declared workload reads only columns; its undeclared twin reads only
// the maps.
func TestColumnMetricsCounters(t *testing.T) {
	g := declaredLineage(t)
	twin := undeclaredTwin(g)
	src := `MATCH (j:Job) WHERE j.CPU >= 20 RETURN j.name AS name`
	for _, workers := range []int{1, 4} {
		reg := metrics.NewRegistry()
		ex := &Executor{G: g, Workers: workers, Metrics: reg}
		if _, err := ex.Execute(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
		if reg.ColumnScans.Load() == 0 {
			t.Errorf("workers=%d: ColumnScans = 0, want > 0", workers)
		}
		if n := reg.PropMapFallbacks.Load(); n != 0 {
			t.Errorf("workers=%d: PropMapFallbacks = %d, want 0 (all properties declared)", workers, n)
		}

		reg = metrics.NewRegistry()
		ex = &Executor{G: twin, Workers: workers, Metrics: reg}
		if _, err := ex.Execute(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
		if n := reg.ColumnScans.Load(); n != 0 {
			t.Errorf("workers=%d twin: ColumnScans = %d, want 0", workers, n)
		}
		if reg.PropMapFallbacks.Load() == 0 {
			t.Errorf("workers=%d twin: PropMapFallbacks = 0, want > 0", workers)
		}
	}
}

// TestDeclaredTailTypeReadsColumns pins that a declared property has
// one read path even on vertices of a type that had none at the freeze:
// they land in the delta tail with column slots, so WHERE, RETURN and
// aggregate reads of the property are column reads, never map reads,
// and the rows match the undeclared twin.
func TestDeclaredTailTypeReadsColumns(t *testing.T) {
	g := graph.NewGraph(declaredSchema(t))
	f := g.MustAddVertex("File", nil)
	g.Freeze() // no Job yet
	for i := 0; i < 4; i++ {
		j := g.MustAddVertex("Job", graph.Properties{"CPU": int64(10 * i)})
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	if tv, _ := g.CachedFrozen().TailSize(); tv != 4 {
		t.Fatalf("tail holds %d vertices, want the 4 Jobs", tv)
	}
	twin := undeclaredTwin(g)
	for _, src := range []string{
		`MATCH (j:Job) WHERE j.CPU >= 20 RETURN j.CPU AS cpu`,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(j.CPU) AS total, MAX(j.CPU) AS top`,
	} {
		assertColumnsMatchMap(t, g, twin, src)
		for _, workers := range []int{1, 4} {
			reg := metrics.NewRegistry()
			if _, err := (&Executor{G: g, Workers: workers, Metrics: reg}).Execute(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
			if reg.ColumnScans.Load() == 0 {
				t.Errorf("%q workers=%d: ColumnScans = 0, want > 0", src, workers)
			}
			if n := reg.PropMapFallbacks.Load(); n != 0 {
				t.Errorf("%q workers=%d: PropMapFallbacks = %d, want 0 (Job.CPU is declared)", src, workers, n)
			}
		}
	}
}

// TestColumnScansCountedOnce pins that the prefilter's candidate pass
// is counted once whatever the worker count: three Job candidates
// scanned plus the survivor's WHERE read, including when more workers
// were asked for than the one survivor can use.
func TestColumnScansCountedOnce(t *testing.T) {
	g := declaredLineage(t)
	q := mustParse(t, `MATCH (j:Job) WHERE j.name = 'j1' RETURN j`)
	for _, workers := range []int{1, 4} {
		reg := metrics.NewRegistry()
		ex := &Executor{G: g, Workers: workers, Metrics: reg}
		if _, err := ex.Execute(q); err != nil {
			t.Fatal(err)
		}
		if n := reg.ColumnScans.Load(); n != 4 {
			t.Errorf("workers=%d: ColumnScans = %d, want 4", workers, n)
		}
	}
}

// TestVarLengthMatchAllocations is the allocation-regression guard on
// the warm var-length match path: with the flat binding slots, reused
// aggregation buffers, and uncopied path yields, a COUNT over thousands
// of variable-length matches allocates orders of magnitude fewer
// objects than it yields (the old bindings-map path paid several
// allocations per yield).
func TestVarLengthMatchAllocations(t *testing.T) {
	g := benchGraph(t)
	q := mustParse(t, `MATCH (a:Job)-[r*1..3]->(v) RETURN COUNT(r) AS n`)
	ex := &Executor{G: g}
	res, err := ex.Execute(q) // warm: freeze, columns, plan caches
	if err != nil {
		t.Fatal(err)
	}
	yields := res.Rows[0][0].(int64)
	if yields < 5000 {
		t.Fatalf("bench graph too small for a meaningful guard: %d yields", yields)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.Execute(q); err != nil {
			t.Fatal(err)
		}
	})
	// The floor is the interface boxings a yield can't avoid (binding a
	// VertexRef and a fresh-length PathRef into their slots); the guard
	// catches reintroducing per-yield map writes, environment copies, or
	// path-slice copies, each of which adds whole allocations per yield
	// (the old path paid 6+).
	if perYield := allocs / float64(yields); perYield > 4 {
		t.Errorf("var-length match allocates %.2f objects/yield (%.0f for %d yields), want <= 4", perYield, allocs, yields)
	}
}

// BenchmarkPropertyScan prices the Q1 WHERE-filter shape — scan a
// vertex type, filter on a declared property, project another — on the
// undeclared twin's property maps vs the columnar path with the
// predicate prefilter.
func BenchmarkPropertyScan(b *testing.B) {
	g := benchGraph(b)
	q := gql.MustParse(`MATCH (j:Job) WHERE j.CPU >= 900 RETURN j.name AS name`)
	b.Run("map", func(b *testing.B) {
		ex := &Executor{G: undeclaredTwin(g)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		ex := &Executor{G: g}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

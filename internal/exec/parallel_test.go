package exec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// equivalenceQueries covers every query shape exercised by exec_test.go:
// single edges, type filters, chains, multi-pattern joins, reversed
// edges, variable-length paths (bounded, zero-hop, unbounded), WHERE
// filters, implicit grouping, aggregates over empty matches, nested
// SELECTs, ORDER BY/LIMIT, and path scalar functions.
var equivalenceQueries = []string{
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`,
	`MATCH (f:File)-[:IS_READ_BY]->(j:Job) RETURN f, j`,
	`MATCH (a:Job)-[:IS_READ_BY]->(b:Job) RETURN a, b`,
	`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`,
	`MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`,
	`MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN f, j`,
	`MATCH (a:Job)-[r*1..4]->(v) WHERE a.name = 'j1' RETURN v`,
	`MATCH (a:Job)-[r*0..0]->(b) RETURN a, b`,
	`MATCH (a:Job)-[r*2..2]->(b:Job) RETURN COUNT(r) AS n`,
	`MATCH (j:Job) WHERE j.CPU >= 20 RETURN j.name AS name`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, COUNT(f) AS nfiles`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (j:Job) WHERE j.CPU > 1000 RETURN COUNT(*) AS n`,
	`SELECT name, nfiles FROM (
		MATCH (j:Job)-[:WRITES_TO]->(f:File)
		RETURN j.name AS name, COUNT(f) AS nfiles
	) WHERE nfiles > 1`,
	`SELECT kind, SUM(cpu) AS total FROM (
		MATCH (j:Job) RETURN LABEL(j) AS kind, j.CPU AS cpu
	) GROUP BY kind`,
	`SELECT A.pipelineName, AVG(T_CPU) AS avg_cpu FROM (
		SELECT A, SUM(B.CPU) AS T_CPU FROM (
			MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
			      (q_f1:File)-[r*0..8]->(q_f2:File)
			      (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
			RETURN q_j1 AS A, q_j2 AS B
		) GROUP BY A, B
	) GROUP BY A.pipelineName`,
	`SELECT name, cpu FROM (
		MATCH (j:Job) RETURN j.name AS name, j.CPU AS cpu
	) ORDER BY cpu DESC LIMIT 2`,
}

// runWorkers executes src on g with the given parallelism.
func runWorkers(t testing.TB, g *graph.Graph, src string, workers int) *Result {
	t.Helper()
	res, err := RunParallel(g, src, workers)
	if err != nil {
		t.Fatalf("RunParallel(%q, workers=%d): %v", src, workers, err)
	}
	return res
}

// assertSameResult requires byte-identical results: same columns, same
// rows, same row order, same values (including group order from
// aggregation and float bit patterns, which depend on feed order).
func assertSameResult(t *testing.T, src string, want, got *Result, workers int) {
	t.Helper()
	if !reflect.DeepEqual(want.Cols, got.Cols) {
		t.Fatalf("query %q workers=%d: cols %v != %v", src, workers, got.Cols, want.Cols)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("query %q workers=%d: %d rows != %d rows", src, workers, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
			t.Fatalf("query %q workers=%d: row %d = %v, want %v", src, workers, i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestParallelMatchesSequentialOnLineage(t *testing.T) {
	g, _ := lineage(t)
	for _, src := range equivalenceQueries {
		seq := runWorkers(t, g, src, 1)
		for _, workers := range []int{2, 3, 8, -1} {
			par := runWorkers(t, g, src, workers)
			assertSameResult(t, src, seq, par, workers)
		}
	}
}

// datagenGraphs builds small instances of all four synthetic datasets
// for the given seed.
func datagenGraphs(t testing.TB, seed int64) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	prov, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 60, Files: 150, TasksPerJob: 3, Machines: 10, Users: 5,
		MaxReads: 20, Pipelines: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["prov"] = prov
	dblp, err := datagen.DBLP(datagen.DBLPConfig{
		Authors: 80, Papers: 160, Venues: 8, MaxPerAuthor: 30, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["dblp"] = dblp
	road, err := datagen.RoadNet(datagen.RoadNetConfig{
		Width: 14, Height: 14, DropFraction: 0.1, Seed: seed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["roadnet"] = road
	soc, err := datagen.SocialNetwork(datagen.SocialConfig{
		Users: 150, Edges: 900, Exponent: 2.3, MaxDegree: 40, Seed: seed + 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["soc"] = soc
	return out
}

// datasetQueries are schema-appropriate shapes per dataset, mixing
// typed/untyped first nodes, joins, variable-length paths, and
// aggregation (the shapes whose determinism the parallel merge must
// preserve on skewed, cyclic, and grid-shaped data).
var datasetQueries = map[string][]string{
	"prov": {
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`,
		`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`,
		`MATCH (j:Job)-[r*1..2]->(v) RETURN COUNT(r) AS n`,
		`MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, COUNT(j) AS jobs`,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, COUNT(f) AS n`,
		`MATCH (v) RETURN LABEL(v) AS kind, COUNT(*) AS n`,
	},
	"dblp": {
		`MATCH (a:Author)-[:AUTHORED]->(p:Paper)-[:AUTHORED_BY]->(b:Author) RETURN a, b`,
		`MATCH (p:Paper)-[:PUBLISHED_IN]->(v:Venue) RETURN v, COUNT(p) AS papers`,
		`MATCH (a:Author)-[r*2..2]->(b:Author) RETURN COUNT(r) AS n`,
		`SELECT y, n FROM (
			MATCH (p:Paper) RETURN p.year AS y, COUNT(*) AS n
		) ORDER BY y`,
	},
	"roadnet": {
		`MATCH (a)-[r]->(b) RETURN COUNT(*) AS n`,
		`MATCH (a)-[r*1..2]->(b) RETURN COUNT(r) AS n`,
		`MATCH (a:Intersection)-[:ROAD]->(b:Intersection)-[:ROAD]->(c:Intersection) RETURN COUNT(*) AS n`,
	},
	"soc": {
		`MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a, b`,
		`MATCH (a)-[r*1..2]->(b) RETURN COUNT(r) AS n`,
		`MATCH (a:User)-[:FOLLOWS]->(b:User)-[:FOLLOWS]->(c:User) RETURN COUNT(*) AS paths`,
	},
}

func TestParallelMatchesSequentialOnDatagen(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		graphs := datagenGraphs(t, seed)
		for name, g := range graphs {
			for _, src := range datasetQueries[name] {
				seq := runWorkers(t, g, src, 1)
				for _, workers := range []int{2, 4, -1} {
					par := runWorkers(t, g, src, workers)
					assertSameResult(t, src, seq, par, workers)
				}
			}
		}
	}
}

func TestParallelRowLimitMatchesSequential(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 2, 8} {
		ex := &Executor{G: g, MaxRows: 2, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d: got %v, want ErrRowLimit", workers, err)
		}
	}
	// A limit the match fits under must not trip in any mode.
	for _, workers := range []int{1, 2, 8} {
		ex := &Executor{G: g, MaxRows: 4, Workers: workers}
		res, err := ex.Execute(q)
		if err != nil || len(res.Rows) != 4 {
			t.Errorf("workers=%d: res=%v err=%v, want 4 rows", workers, res, err)
		}
	}
}

// TestParallelRowLimitShadowsLaterEvalError pins the check-then-evaluate
// order: when an evaluation error sits beyond MaxRows, one worker never
// reaches it — it fails with ErrRowLimit first — and the chunked
// schedule must report the same error even though its workers, blind to
// the global row count, already tripped over the bad row.
func TestParallelRowLimitShadowsLaterEvalError(t *testing.T) {
	g := graph.NewGraph(nil)
	for i := 0; i < 5; i++ {
		j := g.MustAddVertex("Job", nil)
		var v any = int64(i)
		if i == 4 {
			v = "boom" // 5th row: f.v + 1 becomes string + int
		}
		f := g.MustAddVertex("File", graph.Properties{"v": v})
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN f.v + 1 AS n`)
	for _, workers := range []int{1, 2, 8, -1} {
		// Limit before the bad row: both paths must say ErrRowLimit.
		ex := &Executor{G: g, MaxRows: 4, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d MaxRows=4: got %v, want ErrRowLimit", workers, err)
		}
		// No limit: both paths must surface the evaluation error.
		ex = &Executor{G: g, Workers: workers}
		if _, err := ex.Execute(q); err == nil || err == ErrRowLimit {
			t.Errorf("workers=%d no limit: got %v, want eval error", workers, err)
		}
	}
}

func TestParallelErrorsMatchSequential(t *testing.T) {
	g, _ := lineage(t)
	// At two workers the 64 vertices split into chunks of two: the chunk
	// of v2 and v3 meets 2.0 against "x" before its partial meets 5.
	mixed := mixedGraph(t, 64)
	for _, tc := range []struct {
		g   *graph.Graph
		src string
	}{
		{g, `MATCH (j:Job) RETURN unknown_var`},
		{g, `MATCH (j:Job) RETURN NOSUCHFUNC(j)`},
		{g, `MATCH (j:Job) WHERE j.CPU RETURN j`},
		{mixed, `MATCH (v:V) RETURN MIN(v.p) AS m`},
	} {
		_, want := RunParallel(tc.g, tc.src, 1)
		if want == nil {
			t.Fatalf("query %q workers=1: want error", tc.src)
		}
		for _, workers := range []int{2, 4, -1} {
			if _, err := RunParallel(tc.g, tc.src, workers); err == nil || err.Error() != want.Error() {
				t.Errorf("query %q workers=%d: error %v, want %q (workers=1)", tc.src, workers, err, want)
			}
		}
	}
}

// inlineGraph has one Only vertex and three Start vertices (declared
// int k = 0, 1, 2), each with an edge into a ring of V vertices dense
// enough that variable-length matches from it explode combinatorially.
func inlineGraph(t testing.TB) *graph.Graph {
	t.Helper()
	s := graph.MustSchema([]string{"Only", "Start", "V"}, []graph.EdgeType{
		{From: "Only", To: "V", Name: "E"},
		{From: "Start", To: "V", Name: "E"},
		{From: "V", To: "V", Name: "E"},
	})
	if err := s.DeclareProperty("Start", "k", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph(s)
	const n = 24
	ring := make([]graph.VertexID, n)
	for i := range ring {
		ring[i] = g.MustAddVertex("V", nil)
	}
	for i := range ring {
		for d := 1; d <= 6; d++ {
			g.MustAddEdge(ring[i], ring[(i+d)%n], "E", nil)
		}
	}
	g.MustAddEdge(g.MustAddVertex("Only", nil), ring[0], "E", nil)
	for k := range 3 {
		g.MustAddEdge(g.MustAddVertex("Start", graph.Properties{"k": int64(k)}), ring[0], "E", nil)
	}
	return g
}

// TestOneWorkerRunsInline pins the one-worker schedule: whether one
// worker was asked for, or more were but only one candidate exists or
// survives the column prefilter, the match runs inline on the consuming
// goroutine — one worker in the profile, no chunks, and no goroutine
// started while a cursor sits mid-stream in an explosive match (a pool
// would still be matching there).
func TestOneWorkerRunsInline(t *testing.T) {
	g := inlineGraph(t)
	for _, tc := range []struct {
		name    string
		workers int
		match   string // %d is the variable-length bound
	}{
		{"workers=0", 0, `MATCH (a:Start)-[r*1..%d]->(b) RETURN a, b`},
		{"workers=1", 1, `MATCH (a:Start)-[r*1..%d]->(b) RETURN a, b`},
		{"one candidate", 8, `MATCH (a:Only)-[r*1..%d]->(b) RETURN a, b`},
		{"one prefiltered candidate", 8, `MATCH (a:Start)-[r*1..%d]->(b) WHERE a.k = 1 RETURN a, b`},
	} {
		prof := &Profile{}
		ex := &Executor{G: g, Workers: tc.workers, Prof: prof}
		if _, err := ex.Execute(mustParse(t, fmt.Sprintf(tc.match, 2))); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prof.Workers != 1 {
			t.Errorf("%s: profile workers = %d, want 1", tc.name, prof.Workers)
		}
		if len(prof.Stages) == 0 || prof.Stages[0].Stage != "match" || prof.Stages[0].Chunks != 0 {
			t.Errorf("%s: stages = %+v, want an unchunked match stage first", tc.name, prof.Stages)
		}

		ex = &Executor{G: g, Workers: tc.workers}
		rows, err := ex.Stream(context.Background(), mustParse(t, fmt.Sprintf(tc.match, 12)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := goroutineStacks()
		if !rows.Next() {
			t.Fatalf("%s: no first row: %v", tc.name, rows.Err())
		}
		during := goroutineStacks()
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: Close = %v", tc.name, err)
		}
		for id, stack := range during {
			_, old := before[id]
			if !old && (strings.Contains(stack, "kaskade/internal/exec.") || strings.Contains(stack, "kaskade/internal/par.")) {
				t.Errorf("%s: executor goroutine started mid-stream:\n%s", tc.name, stack)
			}
		}
	}
}

// goroutineStacks returns every live goroutine's stack by goroutine ID.
// IDs are never reused, so a goroutine started between two calls shows
// as an ID the first lacks, while one of an earlier test that exits in
// between only drops out — which a count of all goroutines would
// mistake for a change.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		if f := strings.Fields(stack); len(f) > 1 {
			out[f[1]] = stack
		}
	}
	return out
}

package exec

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kaskade/internal/graph"
)

// streamWorkers drains src through the Rows cursor with the given
// parallelism, returning the buffered equivalent.
func streamWorkers(t testing.TB, g *graph.Graph, src string, workers int) (*Result, error) {
	t.Helper()
	q := mustParse(t, src)
	ex := &Executor{G: g, Workers: workers}
	rows, err := ex.Stream(context.Background(), q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := &Result{Cols: rows.Columns()}
	for rows.Next() {
		out.Rows = append(out.Rows, rows.Row())
	}
	return out, rows.Err()
}

// TestStreamMatchesBufferedOnLineage is the acceptance equivalence: for
// every exec_test query shape, the Rows cursor yields byte-identical
// rows in identical order to the buffered Result, at workers 1 and 4.
func TestStreamMatchesBufferedOnLineage(t *testing.T) {
	g, _ := lineage(t)
	for _, src := range equivalenceQueries {
		for _, workers := range []int{1, 4} {
			want := runWorkers(t, g, src, workers)
			got, err := streamWorkers(t, g, src, workers)
			if err != nil {
				t.Fatalf("stream(%q, workers=%d): %v", src, workers, err)
			}
			assertSameResult(t, src, want, got, workers)
		}
	}
}

// TestStreamMatchesBufferedOnDatagen repeats the equivalence on the
// randomized synthetic datasets (skewed, cyclic, grid-shaped data).
func TestStreamMatchesBufferedOnDatagen(t *testing.T) {
	graphs := datagenGraphs(t, 3)
	for name, g := range graphs {
		for _, src := range datasetQueries[name] {
			for _, workers := range []int{1, 4} {
				want := runWorkers(t, g, src, workers)
				got, err := streamWorkers(t, g, src, workers)
				if err != nil {
					t.Fatalf("%s stream(%q, workers=%d): %v", name, src, workers, err)
				}
				assertSameResult(t, src, want, got, workers)
			}
		}
	}
}

// TestStreamRowLimit pins that MaxRows surfaces through the cursor as
// ErrRowLimit at the same point it would abort the buffered path.
func TestStreamRowLimit(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, MaxRows: 2, Workers: workers}
		rows, err := ex.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != ErrRowLimit {
			t.Errorf("workers=%d: Close = %v, want ErrRowLimit", workers, err)
		}
		if n > 2 {
			t.Errorf("workers=%d: cursor yielded %d rows past the limit", workers, n)
		}
	}
}

func TestStreamScan(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, COUNT(f) AS n, j.CPU + 0.5 AS load`)
	rows, err := (&Executor{G: g}).Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := map[string]int64{}
	for rows.Next() {
		var name string
		var n int64
		var load float64
		if err := rows.Scan(&name, &n, &load); err != nil {
			t.Fatal(err)
		}
		got[name] = n
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"j1": 2, "j2": 1, "j3": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scanned %v, want %v", got, want)
	}

	// Type mismatches and arity mismatches are errors, not silences.
	rows2, err := (&Executor{G: g}).Stream(context.Background(), mustParse(t, `MATCH (j:Job) RETURN j.name AS name`))
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if err := rows2.Scan(new(string)); err == nil {
		t.Error("Scan before Next succeeded")
	}
	if !rows2.Next() {
		t.Fatal("no rows")
	}
	if err := rows2.Scan(new(int64)); err == nil {
		t.Error("Scan string into *int64 succeeded")
	}
	if err := rows2.Scan(new(string), new(string)); err == nil {
		t.Error("Scan with wrong arity succeeded")
	}
	var v Value
	if err := rows2.Scan(&v); err != nil || v != "j1" {
		t.Errorf("Scan into *Value = (%v, %v), want j1", v, err)
	}
	// *any is a distinct pointer type from *Value and must also work.
	var a any
	if err := rows2.Scan(&a); err != nil || a != "j1" {
		t.Errorf("Scan into *any = (%v, %v), want j1", a, err)
	}
}

// TestExecuteNilContext: a nil context means "never cancelled" in both
// execution modes (the parallel path derives its own context from it).
func TestExecuteNilContext(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, Workers: workers}
		res, err := ex.ExecuteContext(nil, q)
		if err != nil || len(res.Rows) != 4 {
			t.Errorf("workers=%d: res=%v err=%v, want 4 rows", workers, res, err)
		}
	}
}

// TestStreamAllAdapter exercises the iter.Seq2 adapter, including early
// break (which must close the cursor and its worker pool).
func TestStreamAllAdapter(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for row, err := range rows.All() {
			if err != nil {
				t.Fatal(err)
			}
			if len(row) != 2 {
				t.Fatalf("row width %d", len(row))
			}
			n++
			if n == 2 {
				break // adapter must clean up on early exit
			}
		}
		if n != 2 {
			t.Fatalf("workers=%d: saw %d rows, want 2", workers, n)
		}
		if err := rows.Err(); err != nil {
			t.Errorf("workers=%d: Err after break = %v", workers, err)
		}
	}
}

// denseGraph builds a graph whose variable-length matches are
// combinatorially explosive: full enumeration would take far longer
// than any test timeout, so only cancellation can end the queries
// below early. The first two vertices form a cheap detached pair ahead
// of the dense component; since the merge streams each chunk's row
// prefix eagerly, the first match arrives immediately either way (see
// TestStreamFirstRowBeforePartitionCompletes, which drops the cheap
// pair to pin exactly that).
func denseGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(nil)
	v0 := g.MustAddVertex("V", graph.Properties{"i": int64(-1)})
	sink := g.MustAddVertex("V", graph.Properties{"i": int64(-2)})
	g.MustAddEdge(v0, sink, "E", nil)
	const n = 24
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = g.MustAddVertex("V", graph.Properties{"i": int64(i)})
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 6; d++ {
			g.MustAddEdge(ids[i], ids[(i+d)%n], "E", nil)
		}
	}
	return g
}

const pathologicalQuery = `MATCH (a:V)-[r*1..12]->(b:V) RETURN COUNT(r) AS n`

// TestCancelSequentialMatch: a context cancelled mid-match terminates a
// one-worker (inline) pathological query promptly with ctx.Err().
func TestCancelSequentialMatch(t *testing.T) {
	testCancelMidMatch(t, 1)
}

// TestCancelParallelMatch: the same, with the match fanned out over a
// worker pool (pool teardown included).
func TestCancelParallelMatch(t *testing.T) {
	testCancelMidMatch(t, 4)
}

func testCancelMidMatch(t *testing.T, workers int) {
	g := denseGraph(t)
	q := mustParse(t, pathologicalQuery)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ex := &Executor{G: g, Workers: workers}
	start := time.Now()
	_, err := ex.ExecuteContext(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("workers=%d: err = %v, want deadline exceeded", workers, err)
	}
	// "Promptly": the 30ms deadline may overshoot by scheduling noise
	// and tick granularity, but not by orders of magnitude.
	if elapsed > 10*time.Second {
		t.Fatalf("workers=%d: cancellation took %s", workers, elapsed)
	}
}

// TestCancelAfterFirstRow streams one row out of an explosive match,
// cancels, and requires the cursor to finish with ctx.Err().
func TestCancelAfterFirstRow(t *testing.T) {
	g := denseGraph(t)
	q := mustParse(t, `MATCH (a:V)-[r*1..12]->(b:V) RETURN a, b`)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("workers=%d: no first row: %v", workers, rows.Err())
		}
		cancel()
		for rows.Next() {
			// Drain whatever was already buffered in completed
			// partitions; the cursor must still terminate.
		}
		if err := rows.Close(); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: Close = %v, want context.Canceled", workers, err)
		}
	}
}

// TestCloseAbortsMatch: closing the cursor with no context cancellation
// of the caller's own must still abort the explosive match (the cursor
// owns a derived context for exactly this).
func TestCloseAbortsMatch(t *testing.T) {
	g := denseGraph(t)
	q := mustParse(t, `MATCH (a:V)-[r*1..12]->(b:V) RETURN a, b`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("workers=%d: no first row: %v", workers, rows.Err())
		}
		start := time.Now()
		if err := rows.Close(); err != nil {
			t.Errorf("workers=%d: Close = %v", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: Close took %s", workers, elapsed)
		}
	}
}

// TestStreamLeaksNoGoroutines runs cancelled and early-closed streaming
// queries and requires the goroutine count to return to baseline:
// worker pools and the pull coroutine must not outlive their cursor.
func TestStreamLeaksNoGoroutines(t *testing.T) {
	g := denseGraph(t)
	q := mustParse(t, `MATCH (a:V)-[r*1..12]->(b:V) RETURN a, b`)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		workers := 1 + i%4
		ctx, cancel := context.WithCancel(context.Background())
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rows.Next()
		if i%2 == 0 {
			cancel() // cancel-then-close
		}
		rows.Close()
		cancel()
	}
	// Close tears down synchronously, but give the runtime a moment to
	// retire exiting goroutines before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecuteContextPreCancelled: an already-dead context fails fast in
// both modes without touching the graph for long.
func TestExecuteContextPreCancelled(t *testing.T) {
	g := denseGraph(t)
	q := mustParse(t, pathologicalQuery)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, Workers: workers}
		if _, err := ex.ExecuteContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestCancelSelectSubquery: cancellation reaches through a SELECT's
// relational tail into its MATCH subquery.
func TestCancelSelectSubquery(t *testing.T) {
	g := denseGraph(t)
	q := mustParse(t, `SELECT n FROM (`+pathologicalQuery+`) WHERE n > 0`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ex := &Executor{G: g, Workers: 2}
	if _, err := ex.ExecuteContext(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestAssignValueIntRange pins the *int destination semantics: values
// that fit are assigned, and on platforms where int is 32 bits a value
// past 2^31 must error instead of silently truncating.
func TestAssignValueIntRange(t *testing.T) {
	var n int
	if err := assignValue(&n, Value(int64(42))); err != nil || n != 42 {
		t.Fatalf("assignValue(*int, 42) = (%d, %v)", n, err)
	}
	big := int64(1) << 40
	err := assignValue(&n, Value(big))
	if strconv.IntSize == 64 {
		if err != nil || n != int(big) {
			t.Fatalf("64-bit assignValue(*int, 2^40) = (%d, %v)", n, err)
		}
	} else if err == nil {
		t.Fatalf("32-bit assignValue(*int, 2^40) silently truncated to %d", n)
	}
	if err := assignValue(&n, Value(int64(-7))); err != nil || n != -7 {
		t.Fatalf("assignValue(*int, -7) = (%d, %v)", n, err)
	}
}

package exec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

func TestGroupKeyIdentity(t *testing.T) {
	g, _ := lineage(t)
	key := func(vals ...Value) string {
		b, err := appendGroupKey(nil, vals)
		if err != nil {
			t.Fatalf("appendGroupKey(%v): %v", vals, err)
		}
		return string(b)
	}
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0x7ff8000000000001)
	path := func(edges ...graph.EdgeID) PathRef { return PathRef{G: g, Edges: edges} }
	same := []struct {
		name string
		a, b []Value
	}{
		{"-0.0 and 0.0, which = calls equal", []Value{negZero}, []Value{0.0}},
		{"every NaN", []Value{math.NaN()}, []Value{otherNaN}},
		{"-NaN and NaN", []Value{math.Copysign(math.NaN(), -1)}, []Value{math.NaN()}},
		{"a reference is its ID", []Value{VertexRef{G: g, ID: 3}}, []Value{VertexRef{ID: 3}}},
		{"a path is its edges", []Value{path(1, 2)}, []Value{PathRef{Edges: []graph.EdgeID{1, 2}}}},
		{"no keys", nil, []Value{}},
	}
	for _, c := range same {
		if key(c.a...) != key(c.b...) {
			t.Errorf("%s: %v and %v key apart", c.name, c.a, c.b)
		}
	}
	apart := []struct {
		name string
		a, b []Value
	}{
		{"int64(1) and float64(1)", []Value{int64(1)}, []Value{1.0}},
		{"int64(0) and false", []Value{int64(0)}, []Value{false}},
		{"true and false", []Value{true}, []Value{false}},
		{"null and the empty string", []Value{nil}, []Value{""}},
		{"null and zero", []Value{nil}, []Value{int64(0)}},
		{"a vertex and an edge of one ID", []Value{VertexRef{ID: 1}}, []Value{EdgeRef{ID: 1}}},
		{"NaN and +Inf", []Value{math.NaN()}, []Value{math.Inf(1)}},
		{"a ; inside a string", []Value{"a;", "b"}, []Value{"a", ";b"}},
		{"a quote inside a string", []Value{`a"`, "b"}, []Value{"a", `"b`}},
		{"a backslash inside a string", []Value{`a\`, "b"}, []Value{"a", `\b`}},
		{"a string spelling another key", []Value{"s"}, []Value{"", "s"}},
		{"a string spelling a number", []Value{string([]byte{'i', 1, 0, 0, 0, 0, 0, 0, 0})}, []Value{int64(1)}},
		{"paths of different lengths", []Value{path(1, 2), VertexRef{ID: 3}}, []Value{path(1), path(2), VertexRef{ID: 3}}},
		{"a path and its prefix", []Value{path(1, 2)}, []Value{path(1), EdgeRef{ID: 2}}},
		{"the empty path and null", []Value{path()}, []Value{nil}},
		{"the empty path and a shorter tuple", []Value{path(), int64(0)}, []Value{int64(0)}},
	}
	for _, c := range apart {
		if key(c.a...) == key(c.b...) {
			t.Errorf("%s: %v and %v share a key", c.name, c.a, c.b)
		}
	}
	if _, err := appendGroupKey(nil, []Value{int32(1)}); err == nil {
		t.Error("an int32 key encoded; want an error for a kind outside the language")
	}
	// The same identities through GROUP BY: 0.0 and -0.0 share a group,
	// so do the NaNs, and 1 and 1.0 do not.
	kg := keysGraph(t)
	res, err := Run(kg, `SELECT F, COUNT(*) AS n FROM (MATCH (v:V) RETURN v.f AS F) GROUP BY F`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range res.Rows {
		got[renderValue(r[0])] += r[1].(int64)
	}
	if want := map[string]int64{"f:0": 2, "f:nan": 2, "f:3ff8000000000000": 2, "null": 1, "i:1": 1, "f:3ff0000000000000": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

// keysGraph is a cyclic graph whose V vertices hold every kind a group
// key can take: an int x (0 at v3, a divisor's trap), and a float f
// that is 0.0, -0.0, two different NaNs, 1.5 twice, 1.0, the int 1 or
// absent. Its edges carry a float w on one of each vertex's two out-edges.
func keysGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema([]string{"V"}, []graph.EdgeType{{From: "V", To: "V", Name: "E"}}))
	fs := []Value{0.0, math.Copysign(0, -1), math.NaN(), 1.5, nil, math.Float64frombits(0x7ff8000000000001), 1.5, 1.0, int64(1)}
	xs := []int64{1, 2, 3, 0, 4, 5, 6, 7, 8}
	for i, f := range fs {
		p := graph.Properties{"name": fmt.Sprintf("v%d", i), "x": xs[i]}
		if f != nil {
			p["f"] = f
		}
		g.MustAddVertex("V", p)
	}
	n := len(fs)
	for i := range n {
		g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%n), "E", graph.Properties{"w": float64(i) / 4})
		g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+3)%n), "E", nil)
	}
	return g
}

// mixedGraph has n V vertices; only v0, v2 and v3 hold p: 5, "x" and
// 2.0. MIN over p fails at v2 on one worker, while a chunk of v2 and v3
// alone (n = 128 at four workers, n = 64 at two) fails at v3.
func mixedGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema([]string{"V"}, nil))
	held := map[int]Value{0: int64(5), 2: "x", 3: 2.0}
	for i := range n {
		p := graph.Properties{}
		if v, ok := held[i]; ok {
			p["p"] = v
		}
		g.MustAddVertex("V", p)
	}
	return g
}

// renderValue renders a value with its kind and exact bits, so -0.0,
// 0.0 and the NaNs stay apart and an int never passes for a float.
func renderValue(v Value) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case float64:
		if v != v {
			return "f:nan"
		}
		if v == 0 && math.Signbit(v) {
			return "f:-0"
		}
		if v == 0 {
			return "f:0"
		}
		return fmt.Sprintf("f:%x", math.Float64bits(v))
	case int64:
		return fmt.Sprintf("i:%d", v)
	case VertexRef:
		return fmt.Sprintf("v:%d", v.ID)
	case EdgeRef:
		return fmt.Sprintf("e:%d", v.ID)
	case PathRef:
		return fmt.Sprintf("p:%v", v.Edges)
	}
	return fmt.Sprintf("%T:%v", v, v)
}

// renderOutcome renders what an execution returned: columns, every row
// value by kind and bits, in order, and the error text.
func renderOutcome(cols []string, rows []Row, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cols %q\n", cols)
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(renderValue(v))
		}
		b.WriteByte('\n')
	}
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// bufferedSelect is the SELECT tail as it ran before it streamed and
// before it fused into the match: the subquery is drained into a
// buffered result, whose rows are then each copied into a map scope to
// be filtered, grouped (by refGroups, not the executor's aggregator)
// and projected, and finally ordered and limited. It is the oracle for
// evalSelect.
func bufferedSelect(ctx context.Context, ex *Executor, q *gql.SelectQuery) (*Result, error) {
	var sub *Result
	if from, ok := q.From.(*gql.SelectQuery); ok {
		var err error
		if sub, err = bufferedSelect(ctx, ex, from); err != nil {
			return nil, err
		}
	} else {
		subCols, subBody, err := ex.stream(ctx, q.From)
		if err != nil {
			return nil, err
		}
		sub = &Result{Cols: subCols}
		for row, err := range subBody {
			if err != nil {
				return nil, err
			}
			sub.Rows = append(sub.Rows, row)
		}
	}
	out := &Result{Cols: returnCols(q.Items)}
	agg := newRefGroups(q.Items, q.GroupBy)
	sc := make(mapScope, len(sub.Cols))
	for _, row := range sub.Rows {
		for i, c := range sub.Cols {
			sc[c] = row[i]
		}
		if q.Where != nil {
			ok, err := evalBool(q.Where, sc)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if agg != nil {
			if err := agg.add(sc); err != nil {
				return nil, err
			}
			continue
		}
		outRow := make(Row, len(q.Items))
		for i, item := range q.Items {
			v, err := evalExpr(item.Expr, sc)
			if err != nil {
				return nil, err
			}
			outRow[i] = v
		}
		out.Rows = append(out.Rows, outRow)
	}
	if agg != nil {
		var err error
		if out.Rows, err = agg.rows(); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 {
		if err := bufferedOrderRows(out, q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit >= 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	return out, nil
}

// bufferedOrderRows is orderRows over a map scope per row.
func bufferedOrderRows(r *Result, order []gql.OrderItem) error {
	sc := make(mapScope, len(r.Cols))
	keys := make([][]Value, len(r.Rows))
	for ri, row := range r.Rows {
		for i, c := range r.Cols {
			sc[c] = row[i]
		}
		ks := make([]Value, len(order))
		for oi, o := range order {
			v, err := evalExpr(o.Expr, sc)
			if err != nil {
				return err
			}
			ks[oi] = v
		}
		keys[ri] = ks
	}
	idx := make([]int, len(r.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for oi, o := range order {
			c, ok := compareValues(keys[idx[a]][oi], keys[idx[b]][oi])
			if !ok || c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]Row, len(r.Rows))
	for i, j := range idx {
		sorted[i] = r.Rows[j]
	}
	r.Rows = sorted
	return nil
}

// selectTailCases is the oracle corpus: per graph, SELECT statements
// with the row limits to run them under (0: none).
var selectTailCases = []struct {
	graph   string
	src     string
	maxRows []int
}{
	// Listing 1 and the grouped statement of the lineage benchmark.
	{"prov", `SELECT A.pipelineName, AVG(T_CPU) FROM (
		SELECT A, SUM(B.CPU) AS T_CPU FROM (
			MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
			      (q_f1:File)-[r*0..8]->(q_f2:File)
			      (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
			RETURN q_j1 AS A, q_j2 AS B
		) GROUP BY A, B
	) GROUP BY A.pipelineName`, []int{0, 500}},
	{"prov", `SELECT A, COUNT(B) AS n FROM (
		MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a AS A, c AS B
	) GROUP BY A`, []int{0, 40}},
	// A WHERE, and SELECT over SELECT with ORDER BY and LIMIT.
	{"prov", `SELECT A, COUNT(B) AS n, MIN(B.CPU) AS lo FROM (
		MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a AS A, c AS B
	) WHERE B.CPU > 400 AND A.CPU < 800 GROUP BY A`, []int{0}},
	{"prov", `SELECT p, n FROM (
		SELECT A.pipelineName AS p, COUNT(B) AS n FROM (
			MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a AS A, c AS B
		) GROUP BY A.pipelineName
	) WHERE n > 1 ORDER BY n DESC, p LIMIT 3`, []int{0}},
	{"prov", `SELECT a, s FROM (
		MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a.name AS a, f.size AS s
	) WHERE s > 500000 ORDER BY s LIMIT 5`, []int{0, 30}},
	{"prov", `SELECT k, m FROM (
		SELECT LABEL(v) AS k, COUNT(*) AS m FROM (MATCH (v) RETURN v AS v) GROUP BY LABEL(v)
	) ORDER BY m DESC`, []int{0}},
	// Keys on float, null, path and edge values.
	{"keys", `SELECT F, COUNT(*) AS n, SUM(X) AS s FROM (
		MATCH (v:V) RETURN v.f AS F, v.x AS X
	) GROUP BY F`, []int{0}},
	{"keys", `SELECT F, COUNT(*) AS n FROM (
		MATCH (v:V) RETURN (v.x - 4) * 0.0 AS F
	) GROUP BY F`, []int{0}},
	{"keys", `SELECT P, COUNT(B) AS n, MAX(B.f) AS hi FROM (
		MATCH (a:V)-[p*1..3]->(b:V) RETURN p AS P, b AS B
	) GROUP BY P`, []int{0, 25}},
	{"keys", `SELECT E, MIN(B.x) AS lo, AVG(W) AS w FROM (
		MATCH (a:V)-[e:E]->(b:V) RETURN e AS E, b AS B, e.w AS W
	) GROUP BY E`, []int{0}},
	{"keys", `SELECT A, AVG(B.f) AS m, COUNT(*) AS n FROM (
		MATCH (a:V)-[:E]->(b:V) RETURN a AS A, b AS B
	) WHERE B.x > 1 GROUP BY A ORDER BY n DESC, m`, []int{0}},
	{"keys", `SELECT COUNT(*) AS n, SUM(LENGTH(R)) AS hops FROM (
		MATCH (a:V)-[r*1..2]->(b:V) RETURN r AS R
	) WHERE LENGTH(R) = 2`, []int{0}},
	{"keys", `SELECT COUNT(*) AS n FROM (MATCH (a:V) WHERE a.x > 100 RETURN a AS A)`, []int{0}},
	{"keys", `SELECT A, COUNT(*) AS n FROM (MATCH (a:V) WHERE a.x > 100 RETURN a AS A) GROUP BY A`, []int{0}},
	// SELECT errors alone, and under a later MATCH error: a row limit
	// or a RETURN evaluation error must win, in a fused and a streamed
	// tail alike.
	{"keys", `SELECT SUM(N) AS s FROM (MATCH (v:V) RETURN v.name AS N)`, []int{0, 5}},
	{"keys", `SELECT COUNT(*) AS n FROM (MATCH (v:V) RETURN v.name AS N) WHERE N`, []int{0, 5}},
	{"keys", `SELECT SUM(N) AS s FROM (MATCH (v:V) RETURN v.name AS N, 10 / v.x AS D)`, []int{0}},
	{"keys", `SELECT N * 2 AS y FROM (MATCH (v:V) RETURN v.name AS N, 10 / v.x AS D)`, []int{0}},
	{"keys", `SELECT SUM(N) AS s FROM (
		SELECT N, D FROM (MATCH (v:V) RETURN v.name AS N, 10 / v.x AS D)
	)`, []int{0}},
	{"keys", `SELECT SUM(N) AS s FROM (
		SELECT N, COUNT(*) AS c FROM (MATCH (a:V)-[r*1..3]->(b:V) RETURN a.name AS N) GROUP BY N
	)`, []int{0, 100}},
	{"prov", `SELECT SUM(N) AS s FROM (
		MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a.name AS N
	)`, []int{0, 10}},
	// A chunk's own error comes after the earlier error its merge raises.
	{"mixed", `SELECT MIN(P) AS m FROM (MATCH (v:V) RETURN v.p AS P)`, []int{0}},
}

// TestSelectTailMatchesBufferedReference pins evalSelect — a streamed
// tail, or a SELECT aggregation fused into its MATCH — to bufferedSelect:
// the same columns, rows in the same order with the same float bits, and
// the same error, at one worker and four.
func TestSelectTailMatchesBufferedReference(t *testing.T) {
	graphs := map[string]*graph.Graph{"prov": datagenGraphs(t, 3)["prov"], "keys": keysGraph(t), "mixed": mixedGraph(t, 128)}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range selectTailCases {
		q := mustParse(t, c.src).(*gql.SelectQuery)
		for _, workers := range []int{1, 4} {
			for _, maxRows := range c.maxRows {
				ex := &Executor{G: graphs[c.graph], Workers: workers, MaxRows: maxRows}
				ctx := context.Background()
				want, wantErr := bufferedSelect(ctx, ex, q)
				got, gotErr := ex.ExecuteContext(ctx, q)
				var wantRows, gotRows []Row
				if want != nil {
					wantRows = want.Rows
				}
				if got != nil {
					gotRows = got.Rows
				}
				w, g := renderOutcome(returnCols(q.Items), wantRows, wantErr), renderOutcome(returnCols(q.Items), gotRows, gotErr)
				if got != nil {
					g = renderOutcome(got.Cols, gotRows, gotErr)
				}
				if w != g {
					t.Errorf("%s workers=%d maxRows=%d:\ngot:\n%s\nwant:\n%s", c.src, workers, maxRows, g, w)
				}
			}
		}
	}
	// A cancelled context wins over everything, fused or not.
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: graphs["prov"], Workers: workers}
		q := mustParse(t, selectTailCases[0].src).(*gql.SelectQuery)
		_, wantErr := bufferedSelect(cancelled, ex, q)
		_, gotErr := ex.ExecuteContext(cancelled, q)
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Errorf("workers=%d cancelled: got %v, want %v", workers, gotErr, wantErr)
		}
	}
}

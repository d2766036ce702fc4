package gql

import (
	"strings"
	"testing"
)

// blastRadius is the paper's Listing 1, verbatim modulo whitespace.
const blastRadius = `
SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 as A, q_j2 as B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`

func TestParseBlastRadius(t *testing.T) {
	q, err := Parse(blastRadius)
	if err != nil {
		t.Fatalf("Parse(Listing 1): %v", err)
	}
	outer, ok := q.(*SelectQuery)
	if !ok {
		t.Fatalf("top level is %T, want *SelectQuery", q)
	}
	if len(outer.Items) != 2 {
		t.Errorf("outer select has %d items, want 2", len(outer.Items))
	}
	if pa, ok := outer.Items[0].Expr.(*PropAccess); !ok || pa.Base != "A" || pa.Key != "pipelineName" {
		t.Errorf("outer item 0 = %v", outer.Items[0].Expr)
	}
	if fc, ok := outer.Items[1].Expr.(*FuncCall); !ok || fc.Name != "AVG" || !fc.IsAggregate() {
		t.Errorf("outer item 1 = %v", outer.Items[1].Expr)
	}
	inner, ok := outer.From.(*SelectQuery)
	if !ok {
		t.Fatalf("middle level is %T", outer.From)
	}
	if inner.Items[1].Alias != "T_CPU" {
		t.Errorf("middle alias = %q, want T_CPU", inner.Items[1].Alias)
	}
	m := InnermostMatch(q)
	if m == nil {
		t.Fatal("InnermostMatch = nil")
	}
	if len(m.Patterns) != 3 {
		t.Fatalf("MATCH has %d patterns, want 3", len(m.Patterns))
	}
	// Pattern 2 is the variable-length one.
	vp := m.Patterns[1]
	if len(vp.Nodes) != 2 || len(vp.Edges) != 1 {
		t.Fatalf("pattern 1 shape: %d nodes, %d edges", len(vp.Nodes), len(vp.Edges))
	}
	e := vp.Edges[0]
	if !e.VarLength || e.MinHops != 0 || e.MaxHops != 8 || e.Var != "r" {
		t.Errorf("variable-length edge = %+v, want r*0..8", e)
	}
	if vp.Nodes[0].Var != "q_f1" || vp.Nodes[0].Type != "File" {
		t.Errorf("node 0 = %+v", vp.Nodes[0])
	}
	if len(m.Return) != 2 || m.Return[0].Alias != "A" || m.Return[1].Alias != "B" {
		t.Errorf("RETURN items = %+v", m.Return)
	}
}

func TestParseSimpleMatch(t *testing.T) {
	q, err := Parse(`MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a, b`)
	if err != nil {
		t.Fatal(err)
	}
	m := q.(*MatchQuery)
	if len(m.Patterns) != 1 {
		t.Fatalf("%d patterns", len(m.Patterns))
	}
	p := m.Patterns[0]
	if p.Edges[0].Type != "WRITES_TO" || p.Edges[0].VarLength {
		t.Errorf("edge = %+v", p.Edges[0])
	}
	if p.Edges[0].MinHops != 1 || p.Edges[0].MaxHops != 1 {
		t.Errorf("plain edge hops = %d..%d, want 1..1", p.Edges[0].MinHops, p.Edges[0].MaxHops)
	}
}

func TestParseReversedEdge(t *testing.T) {
	q, err := Parse(`MATCH (a:File)<-[:WRITES_TO]-(b:Job) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	m := q.(*MatchQuery)
	if !m.Patterns[0].Edges[0].Reversed {
		t.Error("edge not marked reversed")
	}
}

func TestParseVariableLengthForms(t *testing.T) {
	cases := []struct {
		src      string
		min, max int
	}{
		{`MATCH (a)-[*]->(b) RETURN a`, 1, -1},
		{`MATCH (a)-[*3]->(b) RETURN a`, 3, 3},
		{`MATCH (a)-[*2..]->(b) RETURN a`, 2, -1},
		{`MATCH (a)-[*..5]->(b) RETURN a`, 1, 5},
		{`MATCH (a)-[r:T*0..8]->(b) RETURN a`, 0, 8},
	}
	for _, tc := range cases {
		q, err := Parse(tc.src)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		e := q.(*MatchQuery).Patterns[0].Edges[0]
		if !e.VarLength || e.MinHops != tc.min || e.MaxHops != tc.max {
			t.Errorf("%s: got %d..%d varlen=%v, want %d..%d", tc.src, e.MinHops, e.MaxHops, e.VarLength, tc.min, tc.max)
		}
	}
	if _, err := Parse(`MATCH (a)-[*5..2]->(b) RETURN a`); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestParseAnonymousAndUntyped(t *testing.T) {
	q, err := Parse(`MATCH ()-[r]->() RETURN COUNT(r)`)
	if err != nil {
		t.Fatal(err)
	}
	m := q.(*MatchQuery)
	p := m.Patterns[0]
	if p.Nodes[0].Var != "" || p.Nodes[0].Type != "" {
		t.Errorf("anonymous node = %+v", p.Nodes[0])
	}
	if p.Edges[0].Var != "r" || p.Edges[0].Type != "" {
		t.Errorf("edge = %+v", p.Edges[0])
	}
	if fc, ok := m.Return[0].Expr.(*FuncCall); !ok || fc.Name != "COUNT" {
		t.Errorf("return = %v", m.Return[0].Expr)
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse(`MATCH (n:Job) RETURN COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	fc := q.(*MatchQuery).Return[0].Expr.(*FuncCall)
	if !fc.Star {
		t.Error("COUNT(*) not marked Star")
	}
}

func TestParseWhere(t *testing.T) {
	q, err := Parse(`MATCH (a:Job) WHERE a.cpu > 100 AND NOT a.name = 'x' RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	m := q.(*MatchQuery)
	be, ok := m.Where.(*BinaryExpr)
	if !ok || be.Op != "AND" {
		t.Fatalf("where = %v", m.Where)
	}
	if _, ok := be.Right.(*UnaryExpr); !ok {
		t.Errorf("right of AND = %v, want NOT expr", be.Right)
	}
}

func TestParseOrderLimit(t *testing.T) {
	q, err := Parse(`SELECT a, COUNT(*) AS c FROM (MATCH (a:Job) RETURN a) GROUP BY a ORDER BY c DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.(*SelectQuery)
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Errorf("order by = %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT a FROM x",          // FROM must be a parenthesized subquery
		"MATCH (a:Job RETURN a",    // unclosed node
		"MATCH (a)-[>(b) RETURN a", // broken edge
		"MATCH (a) RETURN",         // missing items
		"SELECT FROM (MATCH (a) RETURN a)",
		"MATCH (a) RETURN a extra_token_without_comma RETURN",
		"MATCH (a)-[:]->(b) RETURN a", // ':' without type
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error, got nil", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		blastRadius,
		`MATCH (a:Job)-[:W]->(b:File) WHERE a.cpu > 10 RETURN a AS x, b`,
		`MATCH (a)-[r*2..4]->(b) RETURN COUNT(r)`,
		`SELECT x, SUM(y) AS s FROM (MATCH (x)-[e]->(y2) RETURN x, y2 AS y) GROUP BY x ORDER BY s DESC LIMIT 5`,
		`MATCH (a:File)<-[:W]-(b:Job) RETURN b`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Errorf("parse: %v", err)
			continue
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse %q: %v", printed, err)
			continue
		}
		if q2.String() != printed {
			t.Errorf("round trip mismatch:\n  first:  %s\n  second: %s", printed, q2.String())
		}
	}
}

// TestEqual checks structural expression equality: the same text parses
// to equal trees, while literals of different types differ even where
// they render alike.
func TestEqual(t *testing.T) {
	item := func(src string) Expr {
		return MustParse(`MATCH (v) RETURN ` + src).(*MatchQuery).Return[0].Expr
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"SUM(v.x * 1) + LENGTH(v.g)", "SUM(v.x * 1) + LENGTH(v.g)", true},
		{"COUNT(*)", "COUNT(*)", true},
		{"-v.x", "-v.x", true},
		{"v.x * 1", "v.x * 1.0", false},
		{"v.x / 2", "v.x / 2.0", false},
		{"'1'", "1", false},
		{"COUNT(*)", "COUNT(v)", false},
		{"v.x", "v.y", false},
		{"v.x + 1", "v.x - 1", false},
		{"NOT v.b", "v.b", false},
	}
	for _, c := range cases {
		if a, b := item(c.a), item(c.b); Equal(a, b) != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, !c.want, c.want)
		}
	}
}

func TestReplaceInnermostMatch(t *testing.T) {
	q := MustParse(blastRadius)
	repl := MustParse(`MATCH (a:Job)-[:CONN]->(b:Job) RETURN a AS A, b AS B`).(*MatchQuery)
	q2 := ReplaceInnermostMatch(q, repl)
	if InnermostMatch(q2) != repl {
		t.Error("innermost match not replaced")
	}
	// Original untouched.
	if strings.Contains(q.String(), "CONN") {
		t.Error("ReplaceInnermostMatch mutated the original")
	}
	// Wrapper structure preserved.
	if _, ok := q2.(*SelectQuery); !ok {
		t.Errorf("wrapper lost: %T", q2)
	}
}

// FuzzParse asserts the parser never panics: any input either parses to
// a query whose String() round-trips through the parser, or returns an
// error. The seed corpus is the query shapes the test suite and the
// Table IV workload exercise.
func FuzzParse(f *testing.F) {
	seeds := []string{
		blastRadius,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`,
		`MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN f, j`,
		`MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b`,
		`MATCH (a:Job)-[r*1..4]->(v) WHERE a.name = 'j1' RETURN v`,
		`MATCH (a)-[r*]->(b) RETURN COUNT(r) AS n`,
		`MATCH (a)-[r*0..0]->(b) RETURN a, b`,
		`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
		`MATCH (j:Job) WHERE j.CPU >= 20 AND NOT j.name = 'x' RETURN j.name AS name`,
		`MATCH (x)-[r*2..2]->(y) RETURN LENGTH(r) AS len, PATH_MAX(r, 'ts') AS maxts, PATH_SUM(r, 'ts') AS sum`,
		`SELECT name, nfiles FROM (
			MATCH (j:Job)-[:WRITES_TO]->(f:File)
			RETURN j.name AS name, COUNT(f) AS nfiles
		) WHERE nfiles > 1`,
		`SELECT kind, SUM(cpu) AS total FROM (
			MATCH (j:Job) RETURN LABEL(j) AS kind, j.CPU AS cpu
		) GROUP BY kind ORDER BY total DESC LIMIT 3`,
		`MATCH (q_j1:Job)-[r:CONN_2HOP_Job_Job*1..5]->(q_j2:Job) RETURN q_j1 AS A, q_j2 AS B`,
		``,
		`MATCH`,
		`SELECT FROM () GROUP BY`,
		"MATCH (a)-[r*1..]->(b) RETURN a -- trailing",
		// View DDL statements (ParseStatement), including near-miss
		// garbage the statement parser must reject without panicking.
		`CREATE MATERIALIZED VIEW jj AS MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`,
		`CREATE VIEW keep AS MATCH (v) WHERE LABEL(v) = 'File' OR LABEL(v) = 'Job' RETURN v`,
		`CREATE VIEW drop_t AS MATCH (v) WHERE NOT (LABEL(v) = 'Task') RETURN v`,
		`CREATE VIEW chain AS MATCH (x)-[e:TRANSFERS_TO*1..4]->(y) RETURN x, y`,
		`CREATE VIEW ss AS MATCH (x)-[p*1..6]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y`,
		`CREATE VIEW agg AS MATCH (v:Job) RETURN v.pipelineName, COUNT(v), SUM(v.CPU)`,
		`DROP VIEW jj;`,
		`SHOW VIEWS`,
		`CREATE VIEW x AS SELECT`,
		`CREATE VIEW AS MATCH (a) RETURN a`,
		`CREATE MATERIALIZED x`,
		`DROP VIEWS`,
		`SHOW VIEW jj`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The statement surface: accepted inputs must print to
		// something ParseStatement accepts.
		if st, err := ParseStatement(src); err == nil {
			printed := st.String()
			if _, err := ParseStatement(printed); err != nil {
				t.Errorf("String() of accepted statement does not reparse: %q -> %q: %v", src, printed, err)
			}
		}
		// The query-only surface (kept panic-free independently; it
		// additionally rejects every DDL statement with ErrDDL).
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		if _, err := Parse(printed); err != nil {
			t.Errorf("String() of accepted query does not reparse: %q -> %q: %v", src, printed, err)
		}
	})
}

package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"kaskade"
	"kaskade/internal/datagen"
	"kaskade/internal/views"
)

func TestSplitStatements(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		stmts []string
		rest  string
	}{
		{"empty", "", nil, ""},
		{"one", "SHOW VIEWS;", []string{"SHOW VIEWS;"}, ""},
		{"unterminated", "SHOW VIEWS", nil, "SHOW VIEWS"},
		{"two on one line", "SHOW VIEWS; DROP VIEW jj;", []string{"SHOW VIEWS;", " DROP VIEW jj;"}, ""},
		{"quoted semicolon", `MATCH (v) WHERE v.name = 'a;b' RETURN v;`,
			[]string{`MATCH (v) WHERE v.name = 'a;b' RETURN v;`}, ""},
		{"escaped quote", `MATCH (v) WHERE v.name = 'a\';b' RETURN v;`,
			[]string{`MATCH (v) WHERE v.name = 'a\';b' RETURN v;`}, ""},
		// A ';' inside a line comment must not terminate the statement —
		// the comment runs to end of line, and the real terminator comes
		// after.
		{"sql comment with semicolon", "SHOW -- not a terminator ;\nVIEWS;",
			[]string{"SHOW -- not a terminator ;\nVIEWS;"}, ""},
		{"c comment with semicolon", "SHOW // not a terminator ;\nVIEWS;",
			[]string{"SHOW // not a terminator ;\nVIEWS;"}, ""},
		{"comment swallows rest of line only", "-- lead comment ; still comment\nSHOW VIEWS;",
			[]string{"-- lead comment ; still comment\nSHOW VIEWS;"}, ""},
		// The bracketless edge --> is an edge, not a comment opener (the
		// gql lexer's rule), so the terminator after it still counts.
		{"arrow edge is not a comment", "MATCH (a)-->(b) RETURN a;",
			[]string{"MATCH (a)-->(b) RETURN a;"}, ""},
		{"arrow then comment", "MATCH (a)-->(b) RETURN a; -- tail ; comment",
			[]string{"MATCH (a)-->(b) RETURN a;"}, " -- tail ; comment"},
		{"trailing comment no newline", "SHOW VIEWS; -- dangling ;",
			[]string{"SHOW VIEWS;"}, " -- dangling ;"},
	}
	for _, tc := range cases {
		stmts, rest := splitStatements(tc.in)
		if !reflect.DeepEqual(stmts, tc.stmts) || rest != tc.rest {
			t.Errorf("%s: splitStatements(%q) = (%q, %q), want (%q, %q)",
				tc.name, tc.in, stmts, rest, tc.stmts, tc.rest)
		}
	}
}

// replSystem builds a small prov-derived system the REPL scripts run
// against.
func replSystem(t *testing.T) *kaskade.System {
	t.Helper()
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines, cfg.Users = 40, 80, 1, 3, 3
	raw, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	return kaskade.New(g)
}

func TestReplScript(t *testing.T) {
	sys := replSystem(t)
	// One script exercising comment-embedded ';', multiple statements on
	// a single line, EXPLAIN [ANALYZE] statements, and an error that the
	// loop must survive.
	script := strings.Join([]string{
		`-- leading comment lines are skipped outright`,
		`CREATE MATERIALIZED VIEW jj AS -- a comment with ; inside`,
		`  MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y;`,
		`SHOW VIEWS; MATCH (a:Job)-->(b:File) RETURN COUNT(a);`,
		`EXPLAIN MATCH (x:Job)-[r*2..2]->(y:Job) RETURN x, y;`,
		`EXPLAIN ANALYZE MATCH (x:Job)-[r*2..2]->(y:Job) RETURN x, y;`,
		`THIS IS NOT GQL;`,
		`DROP VIEW jj;`,
	}, "\n")
	var out strings.Builder
	if err := repl(context.Background(), sys, 0, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"materialized view jj",
		"CREATE MATERIALIZED VIEW jj AS MATCH",
		"COUNT(a)",
		"plan: rewritten over materialized view CONN_2HOP_Job_Job",
		"total", // the ANALYZE profile table
		"error:",
		"dropped view jj",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q:\n%s", want, got)
		}
	}
	// Exactly one statement errored.
	if n := strings.Count(got, "error:"); n != 1 {
		t.Errorf("repl reported %d errors, want 1:\n%s", n, got)
	}
	// Plain EXPLAIN must not move the hit counter; the one ANALYZE
	// execution moves it to exactly 1.
	if s := sys.MetricsSnapshot(); s.RewriteHits != 1 {
		t.Errorf("rewrite hits after script = %d, want 1 (ANALYZE only)", s.RewriteHits)
	}
}

func TestReplStatementSpanningLinesWithComments(t *testing.T) {
	sys := replSystem(t)
	script := "MATCH (a:Job)-->(b:File) -- why not ; here\nRETURN COUNT(a);"
	var out strings.Builder
	if err := repl(context.Background(), sys, 0, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("comment-embedded ';' broke the statement:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "COUNT(a)") {
		t.Fatalf("missing result:\n%s", out.String())
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 4); got != "    " {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 1, 2, 4}, 4)
	if []rune(got)[0] != '▁' || []rune(got)[3] != '█' {
		t.Errorf("sparkline(0..4) = %q, want baseline start and full-block end", got)
	}
	// Longer series keeps only the trailing window.
	if got := sparkline([]float64{9, 9, 9, 0, 0}, 2); got != "▁▁" {
		t.Errorf("windowed sparkline = %q, want \"▁▁\"", got)
	}
	if n := len([]rune(sparkline([]float64{1, 2}, 6))); n != 6 {
		t.Errorf("sparkline not padded to width: %d runes", n)
	}
}

func TestTopCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys := replSystem(t)
	var out strings.Builder
	cfg := topConfig{interval: 50 * time.Millisecond, retention: time.Second, duration: 300 * time.Millisecond, drivers: 2}
	if err := topCmd(context.Background(), sys, 200_000, `MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`, cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"kaskade top", "qps", "latency", "hit ratio", "top queries by cumulative time"} {
		if !strings.Contains(got, want) {
			t.Errorf("top output missing %q:\n%s", want, got)
		}
	}
	if s := sys.MetricsSnapshot(); s.Queries == 0 {
		t.Error("top drivers executed no queries")
	}
}

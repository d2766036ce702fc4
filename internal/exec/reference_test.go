package exec

import (
	"context"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// referenceMatch evaluates a MATCH query by the matcher's own bindNode
// enumeration — startPattern from pattern 0, with no candidate list, no
// column prefilter and no chunks. It shares only the traversal and the
// RETURN evaluation with the executor, so the candidate loop and the
// prefilter are checked against an independent walk rather than against
// each other. Callers pass the undeclared twin (see undeclaredTwin), so
// every property it reads comes from the vertex maps.
func referenceMatch(g *graph.Graph, q *gql.MatchQuery) (*Result, error) {
	f, err := g.FreezeChecked()
	if err != nil {
		return nil, err
	}
	ex := &Executor{G: g}
	m := ex.newMatcher(context.Background(), q, f)
	agg := newAggregator(q.Return, nil)
	out := &Result{Cols: returnCols(q.Return)}
	m.yield = func() error {
		if agg != nil {
			return agg.feed(m)
		}
		row, err := project(q.Return, m)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, row)
		return nil
	}
	if err := m.startPattern(q.Patterns, 0); err != nil {
		return nil, err
	}
	if agg != nil {
		if out.Rows, err = agg.finish(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestMatchMatchesReferenceWalk compares every MATCH shape of the
// equivalence suites, and the declared-graph shapes of the columnar
// suite, against referenceMatch over the undeclared twin at workers 1, 2
// and -1: rows and order byte-identical, or the same error.
func TestMatchMatchesReferenceWalk(t *testing.T) {
	check := func(g *graph.Graph, src string) {
		t.Helper()
		q, ok := mustParse(t, src).(*gql.MatchQuery)
		if !ok {
			return // a SELECT's relational tail is not the matcher's
		}
		twin := undeclaredTwin(g)
		want, wantErr := referenceMatch(twin, q)
		if wantErr == nil {
			want = rebind(want, twin, g)
		}
		for _, workers := range []int{1, 2, -1} {
			got, err := (&Executor{G: g, Workers: workers}).Execute(q)
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("query %q workers=%d: err = %v, want %v", src, workers, err, wantErr)
				}
			case err != nil:
				t.Errorf("query %q workers=%d: %v", src, workers, err)
			default:
				assertSameResult(t, src, want, got, workers)
			}
		}
	}

	lin, _ := lineage(t)
	decl := declaredLineage(t)
	for _, src := range equivalenceQueries {
		check(lin, src)
		check(decl, src)
	}
	for _, seed := range []int64{1, 7} {
		for name, g := range datagenGraphs(t, seed) {
			for _, src := range datasetQueries[name] {
				check(g, src)
			}
		}
	}
	for _, src := range prefilterEngages {
		check(decl, src)
	}
	for _, tc := range prefilterStaysOut {
		check(decl, tc.src)
	}
	absent := absentValuesGraph(t)
	for _, src := range append(absentValueQueries, absentValueOrdering) {
		check(absent, src)
	}
}

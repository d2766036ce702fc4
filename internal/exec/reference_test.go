package exec

import (
	"context"
	"fmt"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// referenceMatch evaluates a MATCH query by the matcher's own bindNode
// enumeration — startPattern from pattern 0, with no candidate list, no
// column prefilter and no chunks — and groups an aggregating RETURN with
// refGroups, not the executor's aggregator. It shares only the traversal
// and the expression evaluator with the executor, so the candidate loop,
// the prefilter and the group output are checked against an independent
// walk rather than against each other. Callers pass the undeclared twin
// (see undeclaredTwin), so every property it reads comes from the vertex
// maps.
func referenceMatch(g *graph.Graph, q *gql.MatchQuery) (*Result, error) {
	f, err := g.FreezeChecked()
	if err != nil {
		return nil, err
	}
	ex := &Executor{G: g}
	m := ex.newMatcher(context.Background(), q, f)
	agg := newRefGroups(q.Return, nil)
	out := &Result{Cols: returnCols(q.Return)}
	sc := make(mapScope, len(m.varNames))
	m.yield = func() error {
		if agg != nil {
			for i, name := range m.varNames {
				sc[name] = m.slots[i]
			}
			return agg.add(sc)
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
		if out.Rows, err = agg.rows(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mapScope is the map environment the reference oracles read.
type mapScope map[string]Value

func (s mapScope) lookup(name string) (Value, bool) {
	v, ok := s[name]
	return v, ok
}

func (s mapScope) prop(base Value, key string) (Value, error) { return readProp(base, key, nil, nil) }

// refGroups is the reference oracles' own grouped aggregation, sharing
// nothing with the executor's aggregator but GroupKey and the
// accumulators: input rows grouped by GroupKey in first-seen order, one
// accumulator per aggregate call, and each item evaluated over its
// group's first row with every aggregate call replaced by a literal of
// its result. That representative-row reading agrees with the executor's
// group rows on every item that reads only grouped variables.
type refGroups struct {
	items []gql.ReturnItem
	keys  []gql.Expr
	aggs  []*gql.FuncCall
	index map[string]int
	first []mapScope // each group's first row
	accs  [][]accumulator
}

// newRefGroups groups items by groupBy, or under implicit grouping by
// the aggregate-free items; nil when nothing aggregates.
func newRefGroups(items []gql.ReturnItem, groupBy []gql.Expr) *refGroups {
	r := &refGroups{items: items, keys: groupBy, index: map[string]int{}}
	for _, item := range items {
		r.aggs = append(r.aggs, aggregateCalls(item.Expr)...)
		if len(groupBy) == 0 && !gql.HasAggregate(item.Expr) {
			r.keys = append(r.keys, item.Expr)
		}
	}
	if len(r.aggs) == 0 && len(groupBy) == 0 {
		return nil
	}
	return r
}

// aggregateCalls lists the aggregate calls of e, outermost only.
func aggregateCalls(e gql.Expr) []*gql.FuncCall {
	var out []*gql.FuncCall
	switch e := e.(type) {
	case *gql.FuncCall:
		if e.IsAggregate() {
			return []*gql.FuncCall{e}
		}
		for _, a := range e.Args {
			out = append(out, aggregateCalls(a)...)
		}
	case *gql.BinaryExpr:
		out = append(aggregateCalls(e.Left), aggregateCalls(e.Right)...)
	case *gql.UnaryExpr:
		out = aggregateCalls(e.Operand)
	}
	return out
}

// add folds the row in sc, which the caller may overwrite afterwards:
// every key, then every aggregate argument, then the accumulators, in
// item order, so the first error is the one the executor raises.
func (r *refGroups) add(sc mapScope) error {
	vals := make([]Value, len(r.keys))
	for i, k := range r.keys {
		v, err := evalExpr(k, sc)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	key, err := GroupKey(vals...)
	if err != nil {
		return err
	}
	args := make([]Value, len(r.aggs))
	for i, a := range r.aggs {
		if a.Star {
			continue
		}
		if len(a.Args) != 1 {
			return fmt.Errorf("exec: %s expects one argument", a.Name)
		}
		v, err := evalExpr(a.Args[0], sc)
		if err != nil {
			return err
		}
		args[i] = exportValue(v)
	}
	gi, ok := r.index[key]
	if !ok {
		first := make(mapScope, len(sc))
		for name, v := range sc {
			first[name] = exportValue(v)
		}
		gi = r.newGroup(first)
		r.index[key] = gi
	}
	for i, a := range r.aggs {
		if err := r.accs[gi][i].add(args[i], a.Star); err != nil {
			return err
		}
	}
	return nil
}

func (r *refGroups) newGroup(first mapScope) int {
	accs := make([]accumulator, len(r.aggs))
	for i, a := range r.aggs {
		accs[i] = newAccumulator(a.Name)
	}
	r.first = append(r.first, first)
	r.accs = append(r.accs, accs)
	return len(r.first) - 1
}

// rows evaluates the groups' output rows; with no keys, empty input
// still makes one group.
func (r *refGroups) rows() ([]Row, error) {
	if len(r.keys) == 0 && len(r.first) == 0 {
		r.newGroup(mapScope{})
	}
	var out []Row
	for gi, sc := range r.first {
		lits := make(map[*gql.FuncCall]gql.Expr, len(r.aggs))
		for i, a := range r.aggs {
			lits[a] = &gql.Lit{Value: r.accs[gi][i].result()}
		}
		row := make(Row, len(r.items))
		for i, item := range r.items {
			v, err := evalExpr(withLits(item.Expr, lits), sc)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// withLits is e with every call in lits replaced by its literal.
func withLits(e gql.Expr, lits map[*gql.FuncCall]gql.Expr) gql.Expr {
	switch e := e.(type) {
	case *gql.FuncCall:
		if lit, ok := lits[e]; ok {
			return lit
		}
		args := make([]gql.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = withLits(a, lits)
		}
		return &gql.FuncCall{Name: e.Name, Args: args, Star: e.Star}
	case *gql.BinaryExpr:
		return &gql.BinaryExpr{Op: e.Op, Left: withLits(e.Left, lits), Right: withLits(e.Right, lits)}
	case *gql.UnaryExpr:
		return &gql.UnaryExpr{Op: e.Op, Operand: withLits(e.Operand, lits)}
	}
	return e
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

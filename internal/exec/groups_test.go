package exec

import (
	"reflect"
	"strings"
	"testing"

	"kaskade/internal/graph"
)

// groupsGraph holds two A vertices, x = 1 and -3, both with g = "p" and
// neither with y; empty holds the type and no vertex.
func groupsGraph(t testing.TB, empty bool) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema([]string{"A"}, nil))
	if !empty {
		g.MustAddVertex("A", graph.Properties{"g": "p", "x": int64(1)})
		g.MustAddVertex("A", graph.Properties{"g": "p", "x": int64(-3)})
	}
	return g
}

// TestGroupOutputs pins group outputs to literal rows: operators and
// scalar functions over aggregate results, a key subexpression inside an
// aggregate item, the refusal of a variable that is neither grouped nor
// aggregated, and empty input. Each case runs at workers 1 and 4 in
// three forms: the MATCH's implicit grouping, a SELECT ... GROUP BY
// fused into a MATCH, and a SELECT streamed over a SELECT. The items
// are written over v; the SELECT forms read the same properties as
// columns g, x and y.
func TestGroupOutputs(t *testing.T) {
	cases := []struct {
		items   string
		groupBy string // the SELECT forms' GROUP BY, if any
		empty   bool   // over the graph with no vertex
		maxRows int    // the executor's row limit (0: none)
		want    []Row
		// refused names the variable the MATCH form and the SELECT
		// forms refuse; empty when the statement answers.
		refused [2]string
	}{
		{items: "v.g, COUNT(*) > 1 AND SUM(v.x) < 0", groupBy: "g", want: []Row{{"p", true}}},
		{items: "v.g, ABS(SUM(v.x))", groupBy: "g", want: []Row{{"p", int64(2)}}},
		{items: "v.g, COALESCE(MAX(v.y), 0)", groupBy: "g", want: []Row{{"p", int64(0)}}},
		{items: "v.g, COUNT(*) = 'two'", groupBy: "g", want: []Row{{"p", false}}},
		{items: "v.g, COUNT(*) <> 'two'", groupBy: "g", want: []Row{{"p", true}}},
		{items: "v.g, SUM(v.x) > 0 OR COUNT(*) = 2", groupBy: "g", want: []Row{{"p", true}}},
		{items: "v.g, COUNT(*) + LENGTH(v.g)", groupBy: "g", want: []Row{{"p", int64(3)}}},
		// Aggregates and keys are matched by tree, not by rendering: 1
		// and 1.0 print alike but are two accumulators, and a key x * 2
		// does not answer an item x * 2.0.
		{items: "v.g, SUM(v.x * 1), SUM(v.x * 1.0)", groupBy: "g", want: []Row{{"p", int64(-2), float64(-2)}}},
		{items: "v.x * 2, v.x * 2.0, COUNT(*)", groupBy: "x * 2",
			want: []Row{{int64(2), float64(2), int64(1)}, {int64(-6), float64(-6), int64(1)}}, refused: [2]string{"", "x"}},
		{items: "v.g, COUNT(*) + v.x", groupBy: "g", refused: [2]string{"v", "x"}},
		{items: "v.g, COUNT(*) + v.x", groupBy: "g", empty: true, refused: [2]string{"v", "x"}},
		// The refusal is made from the statement alone, before the
		// MATCH runs, so it comes before the MATCH's row limit.
		{items: "v.g, COUNT(*) + v.x", groupBy: "g", maxRows: 1, refused: [2]string{"v", "x"}},
		{items: "COUNT(*), SUM(v.x)", empty: true, want: []Row{{int64(0), nil}}},
		{items: "v.g, COUNT(*)", groupBy: "g", empty: true},
	}
	const inner = "MATCH (v:A) RETURN v.g AS g, v.x AS x, v.y AS y"
	for _, c := range cases {
		g := groupsGraph(t, c.empty)
		cols := strings.ReplaceAll(c.items, "v.", "")
		groupBy := ""
		if c.groupBy != "" {
			groupBy = " GROUP BY " + c.groupBy
		}
		forms := []struct{ src, refused string }{
			{"MATCH (v:A) RETURN " + c.items, c.refused[0]},
			{"SELECT " + cols + " FROM (" + inner + ")" + groupBy, c.refused[1]},
			{"SELECT " + cols + " FROM (SELECT g, x, y FROM (" + inner + "))" + groupBy, c.refused[1]},
		}
		for _, form := range forms {
			q := mustParse(t, form.src)
			for _, workers := range []int{1, 4} {
				res, err := (&Executor{G: g, Workers: workers, MaxRows: c.maxRows}).Execute(q)
				if form.refused != "" {
					if err == nil || !strings.Contains(err.Error(), `"`+form.refused+`" is neither grouped`) {
						t.Errorf("%s workers=%d: err = %v, want %q refused", form.src, workers, err, form.refused)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s workers=%d: %v", form.src, workers, err)
					continue
				}
				if !reflect.DeepEqual(res.Rows, c.want) {
					t.Errorf("%s workers=%d: rows\n%s want\n%s", form.src, workers, renderOutcome(nil, res.Rows, nil), renderOutcome(nil, c.want, nil))
				}
			}
		}
	}
}

package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// vertexColumnDomains are the values TestVertexColumnsMatchInputs
// writes, per declared Job property: small domains so the prefiltered
// MATCH can ask for every value, and ints ≥ 256 so reads would have to
// box if they did not share the stored interface.
var vertexColumnDomains = map[string][]any{
	"CPU":  {int64(300), int64(1 << 40), int64(-7)},
	"load": {0.5, 2.25},
	"name": {"a", "b", "c"},
	"done": {true, false},
}

// vertexColumnKeys is vertexColumnDomains' keys in a fixed order.
var vertexColumnKeys = []string{"CPU", "load", "name", "done"}

// TestVertexColumnsMatchInputs is the vertex column storage oracle. A
// seeded schedule interleaves AddVertex (every kind, absent and nil
// values, undeclared keys, a type that declares nothing), Freeze with
// AddVertex after it, SetVertexProp, Compact and a Save→Load round trip.
// After every step each (vertex, declared key) must read back the
// test's own record of its input through the graph read and the map,
// and, once the graph is frozen, through Frozen.Column's typed accessors
// and a prefiltered MATCH (v:Job) WHERE v.p = <lit> RETURN v per value.
func TestVertexColumnsMatchInputs(t *testing.T) {
	covered := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := graph.MustSchema([]string{"Job", "File"}, nil)
			kinds := map[string]graph.PropKind{"CPU": graph.PropInt, "load": graph.PropFloat, "name": graph.PropString, "done": graph.PropBool}
			for _, k := range vertexColumnKeys {
				if err := s.DeclareProperty("Job", k, kinds[k]); err != nil {
					t.Fatal(err)
				}
			}
			g := graph.NewGraph(s)
			var want []map[string]any // vertex -> declared key -> input (Jobs only)
			value := func(key string) any {
				if rng.Intn(4) == 0 {
					return nil
				}
				d := vertexColumnDomains[key]
				return d[rng.Intn(len(d))]
			}
			for step := 0; step < 60; step++ {
				var what string
				switch r := rng.Intn(20); {
				case r < 10:
					what = "AddVertex(Job)"
					props, rec := graph.Properties{}, map[string]any{}
					for _, k := range vertexColumnKeys {
						if rng.Intn(3) == 0 {
							continue // absent key
						}
						v := value(k)
						props[k] = v
						rec[k] = v
					}
					if rng.Intn(2) == 0 {
						props["extra"] = int64(step)
					}
					if len(props) == 0 && rng.Intn(2) == 0 {
						props = nil
					}
					if g.CachedFrozen() != nil {
						covered["tail AddVertex"]++
					}
					g.MustAddVertex("Job", props)
					want = append(want, rec)
				case r < 12:
					what = "AddVertex(File)"
					g.MustAddVertex("File", graph.Properties{"name": "f"})
					want = append(want, nil)
				case r < 14:
					what = "Freeze"
					g.Freeze()
				case r < 17:
					if len(want) == 0 {
						continue
					}
					v := rng.Intn(len(want))
					what = fmt.Sprintf("SetVertexProp(%d)", v)
					if want[v] == nil {
						if err := g.SetVertexProp(graph.VertexID(v), "name", "g"); err != nil {
							t.Fatal(err)
						}
						break
					}
					k := vertexColumnKeys[rng.Intn(len(vertexColumnKeys))]
					x := value(k)
					if err := g.SetVertexProp(graph.VertexID(v), k, x); err != nil {
						t.Fatal(err)
					}
					want[v][k] = x
				case r < 19:
					what = "Compact"
					if f := g.CachedFrozen(); f != nil {
						if tv, _ := f.TailSize(); tv > 0 {
							covered["Compact of a tail"]++
						}
					}
					if err := g.Compact(); err != nil {
						t.Fatal(err)
					}
				default:
					what = "Save→Load"
					var buf bytes.Buffer
					if err := graph.Save(&buf, g); err != nil {
						t.Fatal(err)
					}
					back, err := graph.Load(&buf)
					if err != nil {
						t.Fatal(err)
					}
					g = back
				}
				kind, _, _ := strings.Cut(what, "(")
				covered[kind]++
				checkVertexColumns(t, fmt.Sprintf("step %d %s", step, what), g, want)
			}
		})
	}
	for _, k := range []string{"tail AddVertex", "Compact of a tail", "AddVertex", "Freeze", "SetVertexProp", "Save→Load"} {
		if covered[k] == 0 {
			t.Errorf("the schedule never ran %q", k)
		}
	}
}

// checkVertexColumns compares every (vertex, declared key) of g with
// want through each read path the graph's state offers.
func checkVertexColumns(t *testing.T, stage string, g *graph.Graph, want []map[string]any) {
	t.Helper()
	if g.NumVertices() != len(want) {
		t.Fatalf("%s: |V| = %d, want %d", stage, g.NumVertices(), len(want))
	}
	for v, rec := range want {
		id := graph.VertexID(v)
		for _, k := range vertexColumnKeys {
			got, declared := g.DeclaredVertexProp(id, k)
			if rec == nil {
				if declared {
					t.Fatalf("%s: File v%d reports %s declared", stage, v, k)
				}
				continue
			}
			if !declared || got != rec[k] {
				t.Fatalf("%s: v%d %s = %v (declared %v), want %v", stage, v, k, got, declared, rec[k])
			}
			if m := g.Vertex(id).Prop(k); m != rec[k] {
				t.Fatalf("%s: v%d map %s = %v, want %v", stage, v, k, m, rec[k])
			}
		}
	}
	f := g.CachedFrozen()
	if f == nil {
		return // Column and MATCH would freeze the graph
	}
	jobs := f.VerticesOfType("Job")
	ex := &Executor{G: g}
	for _, k := range vertexColumnKeys {
		col, ok := f.Column("Job", k)
		if !ok {
			if len(jobs) == 0 {
				continue
			}
			t.Fatalf("%s: Column(Job, %s) missing", stage, k)
		}
		for _, v := range jobs {
			var got any
			var present bool
			switch col.Kind() {
			case graph.PropInt:
				got, present = col.Int(v)
			case graph.PropFloat:
				got, present = col.Float(v)
			case graph.PropString:
				got, present = col.Str(v)
			case graph.PropBool:
				got, present = col.Bool(v)
			}
			w := want[v][k]
			if present != (w != nil) || (present && got != w) {
				t.Fatalf("%s: Column(Job, %s) v%d = %v, %v, want %v", stage, k, v, got, present, w)
			}
		}
		for _, lit := range vertexColumnDomains[k] {
			src := fmt.Sprintf("MATCH (v:Job) WHERE v.%s = %s RETURN v", k, gqlLiteral(lit))
			var expect []graph.VertexID
			for _, v := range jobs {
				if want[v][k] == lit {
					expect = append(expect, v)
				}
			}
			q := mustParse(t, src)
			pf := ex.columnPrefilter(q.(*gql.MatchQuery), f)
			if pf == nil {
				t.Fatalf("%s: %q: prefilter did not engage", stage, src)
			}
			if got := pf.filter(jobs, nil); !slices.Equal(got, expect) {
				t.Fatalf("%s: %q: prefilter kept %v, want %v", stage, src, got, expect)
			}
			res, err := ex.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			var rows []graph.VertexID
			for _, r := range res.Rows {
				rows = append(rows, r[0].(VertexRef).ID)
			}
			if !slices.Equal(rows, expect) {
				t.Fatalf("%s: %q = %v, want %v", stage, src, rows, expect)
			}
		}
	}
}

// gqlLiteral renders a property value as a query literal.
func gqlLiteral(v any) string {
	switch x := v.(type) {
	case string:
		return "'" + x + "'"
	case float64:
		return fmt.Sprintf("%g", x)
	}
	return fmt.Sprint(v)
}

package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// edgeList is the storage oracle's truth: the vertex types and edges a
// test added, in order, so list position i is vertex (or edge) ID i.
// The adjacency it checks a snapshot against is built from the list
// alone, with no code under test.
type edgeList struct {
	vtypes []string
	edges  []listedEdge
}

type listedEdge struct {
	from, to VertexID
	etype    string
	props    Properties
}

func (l *edgeList) addVertex(g *Graph, vt string) VertexID {
	l.vtypes = append(l.vtypes, vt)
	return g.MustAddVertex(vt, nil)
}

func (l *edgeList) addEdge(g *Graph, from, to VertexID, et string, props Properties) EdgeID {
	l.edges = append(l.edges, listedEdge{from: from, to: to, etype: et, props: props})
	return g.MustAddEdge(from, to, et, props)
}

// rows returns every vertex's out- and in-edges in list order.
func (l *edgeList) rows() (out, in [][]EdgeID) {
	out = make([][]EdgeID, len(l.vtypes))
	in = make([][]EdgeID, len(l.vtypes))
	for i, e := range l.edges {
		out[e.from] = append(out[e.from], EdgeID(i))
		in[e.to] = append(in[e.to], EdgeID(i))
	}
	return out, in
}

// ofType returns the edges of row with type et, in row order.
func (l *edgeList) ofType(row []EdgeID, et string) []EdgeID {
	var run []EdgeID
	for _, e := range row {
		if l.edges[e].etype == et {
			run = append(run, e)
		}
	}
	return run
}

// types returns the distinct vertex and edge types, sorted.
func (l *edgeList) types() (vtypes, etypes []string) {
	vtypes = slices.Clone(l.vtypes)
	for _, e := range l.edges {
		etypes = append(etypes, e.etype)
	}
	sort.Strings(vtypes)
	sort.Strings(etypes)
	return slices.Compact(vtypes), slices.Compact(etypes)
}

// assertFrozenMatchesList checks every Frozen accessor, and Graph.Edge,
// against the naive adjacency of l. It is the frozen-storage
// correctness oracle: a CSR row, typed group, merged base+tail row or
// edge array read that diverges from the list fails here.
func assertFrozenMatchesList(t *testing.T, f *Frozen, l *edgeList) {
	t.Helper()
	g := f.Graph()
	if f.NumVertices() != len(l.vtypes) || f.NumEdges() != len(l.edges) || g.NumEdges() != len(l.edges) {
		t.Fatalf("sizes: frozen %d/%d, graph |E| %d, list %d/%d",
			f.NumVertices(), f.NumEdges(), g.NumEdges(), len(l.vtypes), len(l.edges))
	}
	vtypes, etypes := l.types()
	if got := f.EdgeTypes(); !slices.Equal(got, etypes) {
		t.Fatalf("EdgeTypes = %v, want %v", got, etypes)
	}
	out, in := l.rows()
	for v := range l.vtypes {
		id := VertexID(v)
		if f.VertexTypeOf(id) != l.vtypes[v] {
			t.Fatalf("v%d: type %q, want %q", v, f.VertexTypeOf(id), l.vtypes[v])
		}
		if got := f.Out(id); !slices.Equal(got, out[v]) {
			t.Fatalf("v%d Out = %v, want %v", v, got, out[v])
		}
		if got := f.In(id); !slices.Equal(got, in[v]) {
			t.Fatalf("v%d In = %v, want %v", v, got, in[v])
		}
		if f.OutDegree(id) != len(out[v]) || f.InDegree(id) != len(in[v]) {
			t.Fatalf("v%d degrees (%d,%d), want (%d,%d)",
				v, f.OutDegree(id), f.InDegree(id), len(out[v]), len(in[v]))
		}
		for _, et := range append(etypes, "NOPE") {
			wantOut, wantIn := l.ofType(out[v], et), l.ofType(in[v], et)
			if got := f.OutOfType(id, et); !slices.Equal(got, wantOut) {
				t.Fatalf("v%d OutOfType(%s) = %v, want %v", v, et, got, wantOut)
			}
			if got := f.InOfType(id, et); !slices.Equal(got, wantIn) {
				t.Fatalf("v%d InOfType(%s) = %v, want %v", v, et, got, wantIn)
			}
			tid, ok := f.EdgeTypeID(et)
			if ok != (et != "NOPE") {
				t.Fatalf("EdgeTypeID(%s) resolved = %v", et, ok)
			}
			if !ok {
				continue
			}
			if got := f.OutTyped(id, tid); !slices.Equal(got, wantOut) {
				t.Fatalf("v%d OutTyped(%s) = %v, want %v", v, et, got, wantOut)
			}
			if got := f.InTyped(id, tid); !slices.Equal(got, wantIn) {
				t.Fatalf("v%d InTyped(%s) = %v, want %v", v, et, got, wantIn)
			}
		}
	}
	for e, want := range l.edges {
		eid := EdgeID(e)
		if f.From(eid) != want.from || f.To(eid) != want.to || f.EdgeTypeOf(eid) != want.etype {
			t.Fatalf("edge %d: (%d,%d,%s), want (%d,%d,%s)",
				e, f.From(eid), f.To(eid), f.EdgeTypeOf(eid), want.from, want.to, want.etype)
		}
		if tid, _ := f.EdgeTypeID(want.etype); f.EdgeTypeIDOf(eid) != tid {
			t.Fatalf("edge %d: interned type %d, want %d", e, f.EdgeTypeIDOf(eid), tid)
		}
		got := g.Edge(eid)
		if got.ID != eid || got.From != want.from || got.To != want.to || got.Type != want.etype {
			t.Fatalf("Edge(%d) = %+v, want %+v", e, got, want)
		}
		if len(got.Props) != len(want.props) || (len(want.props) > 0 && !reflect.DeepEqual(got.Props, want.props)) {
			t.Fatalf("Edge(%d).Props = %v, want %v", e, got.Props, want.props)
		}
	}
	for _, vt := range append(vtypes, "NOPE") {
		var want []VertexID
		for v, typ := range l.vtypes {
			if typ == vt {
				want = append(want, VertexID(v))
			}
		}
		if got := f.VerticesOfType(vt); !slices.Equal(got, want) {
			t.Fatalf("VerticesOfType(%s) = %v, want %v", vt, got, want)
		}
	}
}

// TestFrozenMatchesEdgeList is the seeded storage oracle over a graph's
// whole lifecycle: random bursts of AddVertex/AddEdge before and after
// the freeze, an edge type first seen after it, explicit compactions
// and a Save→Load round trip, with every Frozen accessor and Graph.Edge
// checked against the edge list's naive adjacency after each step.
// Before the freeze the check reads a CSR built on the side, so the
// graph stays unfrozen.
func TestFrozenMatchesEdgeList(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g, l := NewGraph(nil), &edgeList{}
	vtypes := []string{"Job", "File", "Task"}
	etypes := []string{"W", "R"}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			if g.NumVertices() < 2 || rng.Intn(4) == 0 {
				l.addVertex(g, vtypes[rng.Intn(len(vtypes))])
				continue
			}
			var props Properties
			if rng.Intn(5) == 0 {
				props = Properties{"w": int64(rng.Intn(100))}
			}
			from, to := VertexID(rng.Intn(g.NumVertices())), VertexID(rng.Intn(g.NumVertices()))
			l.addEdge(g, from, to, etypes[rng.Intn(len(etypes))], props)
		}
	}
	compact := func() {
		if err := g.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		do   func()
		tail bool // the step leaves edges in the snapshot's tail
	}{
		{"load", func() { burst(300) }, false},
		{"grow unfrozen", func() { burst(50) }, false},
		{"freeze", func() { g.Freeze(); g.SetCompactionThreshold(1 << 30) }, false},
		{"tail", func() { burst(80) }, true},
		{"new edge type", func() { etypes = append(etypes, "X"); burst(40) }, true},
		{"compact", compact, false},
		{"tail after compact", func() { burst(60) }, true},
		{"save-load", func() {
			var buf bytes.Buffer
			if err := Save(&buf, g); err != nil {
				t.Fatal(err)
			}
			lg, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			g = lg
			g.SetCompactionThreshold(1 << 30)
		}, false},
		{"tail after load", func() { etypes = append(etypes, "Y"); burst(60) }, true},
		{"compact again", compact, false},
	}
	for _, st := range steps {
		st.do()
		f := g.CachedFrozen()
		if f == nil {
			f = buildFrozen(g)
		}
		if _, te := f.TailSize(); (te > 0) != st.tail {
			t.Fatalf("%s: tail of %d edges, want a tail: %v", st.name, te, st.tail)
		}
		t.Run(st.name, func(t *testing.T) { assertFrozenMatchesList(t, f, l) })
	}
}

// TestEdgeStoreBytes is the size guard on the edge store: a frozen
// graph's live heap may cost at most 48 B per edge (1,000 vertices,
// 100,000 edges of two types) and 84 B per vertex (100,000 vertices, no
// edges). A record per edge plus per-vertex rows, which the frozen CSR
// then copied, cost about 85 and 121.
func TestEdgeStoreBytes(t *testing.T) {
	etypes := []string{"W", "R"}
	live := func(nv, ne int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g := NewGraph(nil)
		for i := 0; i < nv; i++ {
			g.MustAddVertex("V", nil)
		}
		for i := 0; i < ne; i++ {
			g.MustAddEdge(VertexID(i%nv), VertexID((i*7+1)%nv), etypes[i%2], nil)
		}
		g.Freeze()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(g)
		return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	}
	const n = 100_000
	perEdge := live(1000, n) / n
	perVertex := live(n, 0) / n
	t.Logf("a frozen graph costs %.1f B/edge and %.1f B/vertex of live heap", perEdge, perVertex)
	if perEdge > 48 {
		t.Errorf("a frozen graph costs %.1f B/edge of live heap, want <= 48", perEdge)
	}
	if perVertex > 84 {
		t.Errorf("a frozen graph costs %.1f B/vertex of live heap, want <= 84", perVertex)
	}
}

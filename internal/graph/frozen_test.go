package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// randomFrozenGraph builds a random graph of nv vertices and ne edges
// and returns it with the edge list it was built from.
func randomFrozenGraph(t testing.TB, seed int64, nv, ne int) (*Graph, *edgeList) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, l := NewGraph(nil), &edgeList{}
	vtypes := []string{"Job", "File", "Task", "Machine"}
	etypes := []string{"W", "R", "T"}
	for i := 0; i < nv; i++ {
		l.addVertex(g, vtypes[rng.Intn(len(vtypes))])
	}
	for i := 0; i < ne; i++ {
		l.addEdge(g, VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv)), etypes[rng.Intn(len(etypes))], nil)
	}
	return g, l
}

// TestFrozenPreservesAdjacencyOrder proves the CSR rows identical to
// the naive insertion-order adjacency of the edge list: Out/In list
// each vertex's edges in the order they were added, and
// OutOfType/InOfType are the subsequences a per-edge type filter would
// produce.
func TestFrozenPreservesAdjacencyOrder(t *testing.T) {
	g, l := randomFrozenGraph(t, 1, 200, 1500)
	assertFrozenMatchesList(t, g.Freeze(), l)
}

// twin is a graph under test plus the edge list of its mutations, the
// reference for assertFrozenMatchesList.
type twin struct {
	g *Graph
	l *edgeList
}

func (tw twin) addVertex(vt string) VertexID { return tw.l.addVertex(tw.g, vt) }

func (tw twin) addEdge(from, to VertexID, et string) { tw.l.addEdge(tw.g, from, to, et, nil) }

// TestFrozenAccessorShapes runs the accessor oracle over the adjacency
// shapes the CSR grouping and the overlay's merged runs special-case:
// a hub row, self-loops, parallel edges between one pair, and a vertex
// carrying every edge type. Each shape is checked on a fresh freeze,
// after a mutation burst that extends it through the delta tail (with
// a tail-only edge type), and after Compact.
func TestFrozenAccessorShapes(t *testing.T) {
	baseTypes := []string{"W", "R", "T"}
	allTypes := []string{"W", "R", "T", "X"} // X: tail-only type
	shapes := []struct {
		name string
		add  func(tw twin, c, p VertexID, n int, etypes []string)
	}{
		{"hub", func(tw twin, c, _ VertexID, n int, etypes []string) {
			// c fans out n edges to a new target every 10 edges, types
			// cycling, plus one edge back from the last target.
			var to VertexID
			for i := 0; i < n; i++ {
				if i%10 == 0 {
					to = tw.addVertex("File")
				}
				tw.addEdge(c, to, etypes[i%len(etypes)])
			}
			tw.addEdge(to, c, "R")
		}},
		{"self-loops", func(tw twin, c, _ VertexID, n int, etypes []string) {
			for i := 0; i < n; i++ {
				v := c
				if i%2 == 1 {
					v = tw.addVertex("Task")
				}
				tw.addEdge(v, v, etypes[i%len(etypes)])
			}
		}},
		{"parallel", func(tw twin, c, p VertexID, n int, etypes []string) {
			for i := 0; i < n; i++ {
				tw.addEdge(c, p, etypes[i%2])
				if i%3 == 0 {
					tw.addEdge(p, c, etypes[len(etypes)-1])
				}
			}
		}},
		{"every-type", func(tw twin, c, p VertexID, n int, etypes []string) {
			for i := 0; i < n; i++ {
				et := etypes[i%len(etypes)]
				tw.addEdge(c, p, et)
				tw.addEdge(p, c, et)
				tw.addEdge(c, c, et)
			}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tw := twin{NewGraph(nil), &edgeList{}}
			c, p := tw.addVertex("Job"), tw.addVertex("File")
			sh.add(tw, c, p, 1000, baseTypes)
			f := tw.g.Freeze()
			assertFrozenMatchesList(t, f, tw.l)

			sh.add(tw, c, p, 40, allTypes)
			if tw.g.CachedFrozen() != f {
				t.Fatal("burst compacted; the tail path went unchecked")
			}
			if _, te := f.TailSize(); te == 0 {
				t.Fatal("burst left no tail")
			}
			assertFrozenMatchesList(t, f, tw.l)

			if err := tw.g.Compact(); err != nil {
				t.Fatal(err)
			}
			nf := tw.g.Freeze()
			if nf == f {
				t.Fatal("Compact did not swap in a fresh snapshot")
			}
			assertFrozenMatchesList(t, nf, tw.l)
		})
	}
}

// TestFreezeMemoizesAndInvalidates pins the snapshot lifecycle: Freeze
// caches, mutation lands in the cached snapshot's tail (same pointer,
// live counts), and no rebuild happens.
func TestFreezeMemoizesAndInvalidates(t *testing.T) {
	t.Run("overlay", func(t *testing.T) {
		g := NewGraph(nil)
		a := g.MustAddVertex("V", nil)
		b := g.MustAddVertex("V", nil)
		g.MustAddEdge(a, b, "E", nil)
		f1 := g.Freeze()
		if f2 := g.Freeze(); f1 != f2 {
			t.Fatal("Freeze did not memoize")
		}
		builds := CSRBuilds()
		g.MustAddEdge(b, a, "E", nil)
		f3 := g.Freeze()
		if f3 != f1 {
			t.Fatal("mutation dropped the overlay snapshot")
		}
		if f3.NumEdges() != 2 || len(f3.In(a)) != 1 {
			t.Fatalf("overlay view stale: |E|=%d, in(a)=%d", f3.NumEdges(), len(f3.In(a)))
		}
		if tv, te := f3.TailSize(); tv != 0 || te != 1 {
			t.Fatalf("TailSize = (%d, %d), want (0, 1)", tv, te)
		}
		if got := CSRBuilds(); got != builds {
			t.Fatalf("overlay mutation rebuilt the CSR (%d builds)", got-builds)
		}
	})
}

// TestFreezeConcurrent races many first-time Freeze calls; all must
// observe one coherent view (run with -race).
func TestFreezeConcurrent(t *testing.T) {
	g, _ := randomFrozenGraph(t, 2, 100, 500)
	var wg sync.WaitGroup
	results := make([]*Frozen, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.Freeze()
		}(i)
	}
	wg.Wait()
	for _, f := range results {
		if f.NumEdges() != g.NumEdges() {
			t.Fatal("incoherent frozen view")
		}
	}
}

// TestSchemaDeclareProperty covers the declaration API: kinds resolve
// for vertex and edge type names, unknown types error, and Extend (the
// view-schema derivation) carries declarations over.
func TestSchemaDeclareProperty(t *testing.T) {
	s := MustSchema([]string{"Job", "File"}, []EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
	})
	if err := s.DeclareProperty("Job", "CPU", PropInt); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("WRITES_TO", "ts", PropInt); err != nil {
		t.Fatalf("edge type name declaration: %v", err)
	}
	if err := s.DeclareProperty("Nope", "x", PropInt); err == nil {
		t.Error("unknown type accepted")
	}
	if err := s.DeclareProperty("Job", "", PropInt); err == nil {
		t.Error("empty property accepted")
	}
	if err := s.DeclareProperty("Job", "x", PropKind(99)); err == nil {
		t.Error("invalid kind accepted")
	}
	if k, ok := s.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Errorf("PropertyKind(Job, CPU) = %v/%v", k, ok)
	}
	if _, ok := s.PropertyKind("Job", "mem"); ok {
		t.Error("undeclared property resolved")
	}
	ext, err := s.Extend([]string{"Task"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := ext.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Error("Extend dropped property declarations")
	}
	// AdoptProperties keeps only declarations whose type survives.
	narrow := MustSchema([]string{"Job"}, nil)
	if err := narrow.AdoptProperties(s); err != nil {
		t.Fatal(err)
	}
	if k, ok := narrow.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Error("AdoptProperties dropped surviving declaration")
	}
	if _, ok := narrow.PropertyKind("WRITES_TO", "ts"); ok {
		t.Error("AdoptProperties kept declaration for absent type")
	}
}

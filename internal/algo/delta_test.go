package algo

import (
	"math/rand"
	"reflect"
	"testing"

	"kaskade/internal/graph"
)

// TestKernelsMatchRefreezeUnderMutation is the algo half of the
// delta-overlay equivalence coverage: every kernel run over a frozen
// snapshot carrying a tail must produce byte-identical results to an
// identical graph that compacts after every mutation (a fresh base CSR
// each time, what a refreeze would build). The kernels walk the frozen
// accessors exclusively, so this pins the merged base+tail adjacency,
// endpoints, and vertex counts end to end.
func TestKernelsMatchRefreezeUnderMutation(t *testing.T) {
	build := func() *graph.Graph {
		rng := rand.New(rand.NewSource(31))
		g := graph.NewGraph(nil)
		for i := 0; i < 50; i++ {
			g.MustAddVertex("V", nil)
		}
		for i := 0; i < 200; i++ {
			g.MustAddEdge(graph.VertexID(rng.Intn(50)), graph.VertexID(rng.Intn(50)),
				"E", graph.Properties{"ts": int64(rng.Intn(40)), "w": int64(1 + rng.Intn(9))})
		}
		return g
	}
	gOv := build()
	gRf := build()
	gRf.SetCompactionThreshold(1)
	gOv.Freeze()
	gRf.Freeze()

	// Identical mutations: new vertices joined into the existing graph.
	mutate := func(g *graph.Graph) {
		rng := rand.New(rand.NewSource(53))
		base := 50
		for i := 0; i < 12; i++ {
			v := g.MustAddVertex("V", nil)
			g.MustAddEdge(graph.VertexID(rng.Intn(base)), v, "E",
				graph.Properties{"ts": int64(100 + i), "w": int64(2)})
			g.MustAddEdge(v, graph.VertexID(rng.Intn(base)), "E",
				graph.Properties{"ts": int64(200 + i), "w": int64(3)})
		}
	}
	mutate(gOv)
	mutate(gRf)
	if f := gRf.CachedFrozen(); f == nil || gRf.Compactions() == 0 {
		t.Fatal("reference graph did not compact")
	} else if tv, te := f.TailSize(); tv+te != 0 {
		t.Fatalf("reference graph kept a tail (%d, %d)", tv, te)
	}

	for _, src := range []graph.VertexID{0, 7, 55} {
		for _, k := range []int{1, 3} {
			for _, dir := range []Direction{Forward, Backward} {
				ov := KHopNeighborhood(gOv, src, k, dir)
				rf := KHopNeighborhood(gRf, src, k, dir)
				if !reflect.DeepEqual(ov, rf) {
					t.Fatalf("KHop(src=%d, k=%d, dir=%v): overlay %v, refreeze %v", src, k, dir, ov, rf)
				}
			}
		}
		ov := PathLengths(gOv, src, 4, "w")
		rf := PathLengths(gRf, src, 4, "w")
		if !reflect.DeepEqual(ov, rf) {
			t.Fatalf("PathLengths(src=%d): overlay %v, refreeze %v", src, ov, rf)
		}
		rOv := Reachable(gOv, src)
		rRf := Reachable(gRf, src)
		if !reflect.DeepEqual(rOv, rRf) {
			t.Fatalf("Reachable(src=%d): overlay %v, refreeze %v", src, rOv, rRf)
		}
	}
	lOv := LabelPropagation(gOv, 4, "")
	lRf := LabelPropagation(gRf, 4, "")
	if !reflect.DeepEqual(lOv, lRf) {
		t.Fatal("LabelPropagation diverged between overlay and refreeze")
	}
	if f := gOv.CachedFrozen(); f == nil {
		t.Fatal("overlay graph lost its snapshot")
	} else if _, te := f.TailSize(); te == 0 {
		t.Fatal("overlay graph has no tail; A/B exercised nothing")
	}
}

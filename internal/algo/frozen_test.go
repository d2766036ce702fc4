package algo

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"kaskade/internal/graph"
)

// --- append-mode reference implementations ---
//
// These are the historical map-based kernels (pre-CSR), kept verbatim
// as the semantic reference the frozen implementations must reproduce
// byte-identically (same vertices, same order). PathLengths carries the
// current skip-missing-property semantics so the reference isolates the
// storage change from the (separately pinned) semantic fix.

// refAdjacency memoizes, per graph state, every vertex's out- and
// in-edges in edge ID order, built by one pass over the edges: the
// reference kernels' adjacency, independent of the CSR under test.
var refAdjacency sync.Map // refKey -> [2][][]graph.EdgeID

type refKey struct {
	g      *graph.Graph
	nv, ne int
}

func refRows(g *graph.Graph) (out, in [][]graph.EdgeID) {
	k := refKey{g: g, nv: g.NumVertices(), ne: g.NumEdges()}
	if r, ok := refAdjacency.Load(k); ok {
		rows := r.([2][][]graph.EdgeID)
		return rows[0], rows[1]
	}
	out = make([][]graph.EdgeID, k.nv)
	in = make([][]graph.EdgeID, k.nv)
	g.EachEdge(func(e graph.Edge) {
		out[e.From] = append(out[e.From], e.ID)
		in[e.To] = append(in[e.To], e.ID)
	})
	refAdjacency.Store(k, [2][][]graph.EdgeID{out, in})
	return out, in
}

func kHopRef(g *graph.Graph, src graph.VertexID, k int, dir Direction) []graph.VertexID {
	if k < 1 {
		return nil
	}
	outRows, inRows := refRows(g)
	edgesOf := func(v graph.VertexID) []graph.EdgeID {
		if dir == Forward {
			return outRows[v]
		}
		return inRows[v]
	}
	neighbor := func(eid graph.EdgeID) graph.VertexID {
		if dir == Forward {
			return g.Edge(eid).To
		}
		return g.Edge(eid).From
	}
	visited := map[graph.VertexID]bool{src: true}
	frontier := []graph.VertexID{src}
	var out []graph.VertexID
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, eid := range edgesOf(v) {
				n := neighbor(eid)
				if !visited[n] {
					visited[n] = true
					next = append(next, n)
					out = append(out, n)
				}
			}
		}
		frontier = next
	}
	return out
}

func pathLengthsRef(g *graph.Graph, src graph.VertexID, k int, prop string) map[graph.VertexID]int64 {
	dist := make(map[graph.VertexID]int64)
	type item struct {
		v    graph.VertexID
		agg  int64
		hops int
	}
	queue := []item{{v: src, agg: 0, hops: 0}}
	best := map[graph.VertexID]int64{src: 0}
	out, _ := refRows(g)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops == k {
			continue
		}
		for _, eid := range out[cur.v] {
			e := g.Edge(eid)
			ts, ok := g.EdgeProp(eid, prop).(int64)
			if !ok {
				continue
			}
			agg := cur.agg
			if ts > agg {
				agg = ts
			}
			prev, seen := best[e.To]
			if !seen || agg < prev {
				best[e.To] = agg
				queue = append(queue, item{v: e.To, agg: agg, hops: cur.hops + 1})
				if e.To != src {
					dist[e.To] = agg
				}
			}
		}
	}
	return dist
}

func labelPropagationRef(g *graph.Graph, passes int) []int64 {
	n := g.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	next := make([]int64, n)
	counts := make(map[int64]int)
	out, in := refRows(g)
	for p := 0; p < passes; p++ {
		changed := false
		for v := 0; v < n; v++ {
			clear(counts)
			id := graph.VertexID(v)
			for _, eid := range out[id] {
				counts[labels[g.Edge(eid).To]]++
			}
			for _, eid := range in[id] {
				counts[labels[g.Edge(eid).From]]++
			}
			if len(counts) == 0 {
				next[v] = labels[v]
				continue
			}
			bestLabel, bestCount := labels[v], 0
			for label, c := range counts {
				if c > bestCount || (c == bestCount && label < bestLabel) {
					bestLabel, bestCount = label, c
				}
			}
			next[v] = bestLabel
			if bestLabel != labels[v] {
				changed = true
			}
		}
		labels, next = next, labels
		if !changed {
			break
		}
	}
	return labels
}

func reachableRef(g *graph.Graph, src graph.VertexID) []graph.VertexID {
	visited := map[graph.VertexID]bool{src: true}
	stack := []graph.VertexID{src}
	rows, _ := refRows(g)
	var out []graph.VertexID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range rows[v] {
			n := g.Edge(eid).To
			if !visited[n] {
				visited[n] = true
				out = append(out, n)
				stack = append(stack, n)
			}
		}
	}
	return out
}

// randomGraph builds a typed random graph with int64 "ts" properties on
// most edges (a fraction carry none, exercising the skip semantics).
func randomGraph(t testing.TB, seed int64, nv, ne int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewGraph(nil)
	types := []string{"Job", "File", "Task"}
	etypes := []string{"A", "B"}
	for i := 0; i < nv; i++ {
		g.MustAddVertex(types[rng.Intn(len(types))], nil)
	}
	for i := 0; i < ne; i++ {
		from := graph.VertexID(rng.Intn(nv))
		to := graph.VertexID(rng.Intn(nv))
		var props graph.Properties
		if rng.Intn(10) > 0 { // 90% of edges carry a timestamp
			props = graph.Properties{"ts": int64(rng.Intn(1000))}
		}
		g.MustAddEdge(from, to, etypes[rng.Intn(len(etypes))], props)
	}
	return g
}

func sameVertexSlice(t *testing.T, what string, want, got []graph.VertexID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vertices, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestFrozenKernelsMatchAppendReference is the frozen-vs-append
// equivalence suite for every kernel: identical results, identical
// order, across random graphs, hop budgets, directions, and (for the
// parallel variants) worker counts 1 and 4.
func TestFrozenKernelsMatchAppendReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := randomGraph(t, seed, 300, 1200)
		srcs := make([]graph.VertexID, 0, 40)
		for i := 0; i < 40; i++ {
			srcs = append(srcs, graph.VertexID((i*17)%g.NumVertices()))
		}
		tr := NewTraversal(g)
		for _, k := range []int{1, 2, 4} {
			for _, dir := range []Direction{Forward, Backward} {
				// Sequential Traversal (scratch reuse across sources).
				for _, s := range srcs {
					want := kHopRef(g, s, k, dir)
					sameVertexSlice(t, "KHop", want, tr.KHop(s, k, dir))
				}
				// Parallel per-source fan-out, deterministic merge.
				for _, workers := range []int{1, 4} {
					got, err := KHopNeighborhoods(context.Background(), g, srcs, k, dir, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, s := range srcs {
						sameVertexSlice(t, "KHopNeighborhoods", kHopRef(g, s, k, dir), got[i])
					}
				}
			}
			// PathLengths: map equality (order-free by construction).
			for _, s := range srcs[:10] {
				want := pathLengthsRef(g, s, k, "ts")
				got := PathLengths(g, s, k, "ts")
				if len(want) != len(got) {
					t.Fatalf("PathLengths(%d,k=%d): %d entries, want %d", s, k, len(got), len(want))
				}
				for v, agg := range want {
					if got[v] != agg {
						t.Fatalf("PathLengths(%d,k=%d)[%d] = %d, want %d", s, k, v, got[v], agg)
					}
				}
			}
			for _, workers := range []int{1, 4} {
				multi, err := PathLengthsMulti(context.Background(), g, srcs[:10], k, "ts", workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range srcs[:10] {
					want := pathLengthsRef(g, s, k, "ts")
					if len(want) != len(multi[i]) {
						t.Fatalf("PathLengthsMulti workers=%d src=%d: %d entries, want %d", workers, s, len(multi[i]), len(want))
					}
					for v, agg := range want {
						if multi[i][v] != agg {
							t.Fatalf("PathLengthsMulti workers=%d src=%d [%d] = %d, want %d", workers, s, v, multi[i][v], agg)
						}
					}
				}
			}
		}
		// Reachable.
		for _, s := range srcs[:10] {
			sameVertexSlice(t, "Reachable", reachableRef(g, s), Reachable(g, s))
		}
		// Label propagation, sequential and chunk-parallel.
		want := labelPropagationRef(g, 10)
		for _, workers := range []int{1, 4} {
			got, err := LabelPropagationParallel(context.Background(), g, 10, "", workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("LabelPropagationParallel workers=%d: label[%d] = %d, want %d", workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPathLengthsSkipsUntypedEdges pins the semantic fix: an edge whose
// aggregation property is missing or not an int64 is skipped — it
// neither contributes a 0 aggregate nor extends any path. (Previously
// `ts, _ := e.Prop(prop).(int64)` coerced such edges to timestamp 0.)
func TestPathLengthsSkipsUntypedEdges(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	c := g.MustAddVertex("V", nil)
	d := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", graph.Properties{"ts": int64(5)})
	g.MustAddEdge(b, c, "E", nil)                                  // no ts: not traversable
	g.MustAddEdge(a, d, "E", graph.Properties{"ts": "not-an-int"}) // wrong type: not traversable
	dist := PathLengths(g, a, 4, "ts")
	if got, ok := dist[b], true; !ok || got != 5 {
		t.Errorf("dist[b] = %d (present=%v), want 5", got, ok)
	}
	if _, ok := dist[c]; ok {
		t.Error("c reachable only through a ts-less edge; must be absent")
	}
	if _, ok := dist[d]; ok {
		t.Error("d reachable only through a non-int64 ts edge; must be absent")
	}
}

// TestTraversalContextCancellation proves prompt cancellation with no
// goroutine leaks: a parallel per-source sweep over a dense graph is
// cancelled mid-flight; the call must return the context's error
// quickly and every pool goroutine must drain.
func TestTraversalContextCancellation(t *testing.T) {
	g := randomGraph(t, 5, 2000, 20000)
	srcs := make([]graph.VertexID, g.NumVertices())
	for i := range srcs {
		srcs[i] = graph.VertexID(i)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := KHopNeighborhoods(ctx, g, srcs, 6, Forward, 4)
	if err == nil {
		// The sweep may legitimately win the race; rerun pre-cancelled.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, err2 := KHopNeighborhoods(ctx2, g, srcs, 6, Forward, 4); err2 != context.Canceled {
			t.Fatalf("pre-cancelled sweep: err = %v, want context.Canceled", err2)
		}
	} else if err != context.Canceled {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}

	// Label propagation cancels between chunks.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := LabelPropagationParallel(ctx3, g, 50, "", 4); err != context.Canceled {
		t.Fatalf("cancelled label propagation: err = %v, want context.Canceled", err)
	}

	// All pool goroutines must have drained (allow the runtime a moment).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKHopHotPathAllocations is the allocation-regression guard on the
// k-hop hot path: with a warm Traversal (the per-source loop shape of
// Q1-Q4), a traversal performs no per-call heap allocation — the win
// over the historical map[VertexID]bool visited sets.
func TestKHopHotPathAllocations(t *testing.T) {
	g := randomGraph(t, 9, 500, 3000)
	tr := NewTraversal(g)
	src := graph.VertexID(1)
	// Warm the scratch buffers to their steady-state capacity.
	for i := 0; i < 10; i++ {
		tr.KHop(graph.VertexID(i), 4, Forward)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr.KHop(src, 4, Forward)
	})
	if allocs > 0 {
		t.Errorf("KHop hot path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLabelPropagationAllocations is the allocation-regression guard on
// the label-adoption hot path: with a warm lpScratch, computing a
// vertex's next label allocates nothing — the win of the epoch-tagged
// flat counts over the historical per-worker map[int64]int.
func TestLabelPropagationAllocations(t *testing.T) {
	g := randomGraph(t, 17, 500, 3000)
	f := g.Freeze()
	n := f.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	sc := newLPScratch(n)
	// Warm the touched slice past any realistic degree.
	for v := 0; v < n; v++ {
		lpAdoptLabel(f, labels, v, sc)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < 64; v++ {
			lpAdoptLabel(f, labels, v, sc)
		}
	})
	if allocs > 0 {
		t.Errorf("label adoption allocates %.1f objects per 64 vertices, want 0", allocs)
	}
}

// BenchmarkAlgoKHop prices the frozen bitset k-hop against the
// map-based append-mode reference (the Fig. 7 Q2/Q3 hot path).
func BenchmarkAlgoKHop(b *testing.B) {
	g := randomGraph(b, 3, 2000, 12000)
	srcs := make([]graph.VertexID, 100)
	for i := range srcs {
		srcs[i] = graph.VertexID(i * 13 % g.NumVertices())
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				kHopRef(g, s, 4, Forward)
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		tr := NewTraversal(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				tr.KHop(s, 4, Forward)
			}
		}
	})
}

// BenchmarkAlgoLabelPropagation prices a label-propagation pass on the
// frozen layout against the append-mode reference (Q7).
func BenchmarkAlgoLabelPropagation(b *testing.B) {
	g := randomGraph(b, 4, 3000, 18000)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			labelPropagationRef(g, 10)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		g.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LabelPropagationParallel(context.Background(), g, 10, "", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgoPathLengths prices Q4's per-path aggregation.
func BenchmarkAlgoPathLengths(b *testing.B) {
	g := randomGraph(b, 6, 2000, 12000)
	srcs := make([]graph.VertexID, 50)
	for i := range srcs {
		srcs[i] = graph.VertexID(i * 31 % g.NumVertices())
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				pathLengthsRef(g, s, 4, "ts")
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		tr := NewTraversal(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				if _, err := tr.PathLengthsContext(nil, s, 4, "ts"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

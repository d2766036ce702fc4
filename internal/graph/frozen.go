package graph

import (
	"sort"
	"sync/atomic"
)

// csrBuilds counts CSR index constructions process-wide — the freeze
// events the metrics snapshot reports. Freeze memoizes, so this counts
// distinct builds (base graph loads, views landing in a catalog,
// compactions), not Freeze calls; concurrent first-freeze
// races may build twice and count both, which is honest — both builds
// paid their O(V+E).
var csrBuilds atomic.Int64

// CSRBuilds returns the process-wide count of frozen CSR index builds.
func CSRBuilds() int64 { return csrBuilds.Load() }

// Frozen is an immutable, cache-friendly view of a Graph: adjacency is
// laid out in flat CSR (compressed sparse row) arrays instead of the
// loader's pointer-heavy per-vertex slices, edge endpoints and type
// labels are interned into dense parallel arrays, and every vertex's
// out- and in-edges are additionally grouped by edge type so a typed
// traversal step reads one contiguous slice with no per-edge filtering.
//
// A Frozen is derived from its Graph by Freeze and shares the graph's
// vertex/edge records, vertex type index, property bags and property
// columns read-only; it adds only edge index structure. All iteration
// orders are preserved exactly: Out/In return edges in insertion order,
// OutOfType/InOfType return the insertion-order subsequence of that
// type, and VerticesOfType is Graph.VerticesOfType.
//
// Freeze memoizes: the first call builds the index in O(V+E) and caches
// it on the graph; later calls return the cached value (one atomic
// load). Mutating the graph (AddVertex/AddEdge) after a freeze attaches
// a delta overlay to the cached view (delta.go): the tail merges behind
// every accessor here, so the snapshot tracks the live graph without a
// rebuild, and compaction periodically folds the tail into a fresh base
// CSR. A graph still being loaded may be frozen early at no correctness
// cost — but the intended lifecycle is freeze-after-load: the loader
// (graph.Load), the catalog (each landed view), and the executor all
// freeze once and then mostly read.
type Frozen struct {
	g *Graph

	// Interned edge type labels, in first-appearance (edge ID) order.
	etypes  []string
	etypeID map[string]int32
	etypeOf []int32 // edge ID -> index into etypes

	// Flat edge endpoints (edge ID -> vertex ID), so traversals never
	// touch the Edge struct (and its property-map pointer) just to step.
	edgeFrom []VertexID
	edgeTo   []VertexID

	// CSR adjacency in insertion order: vertex v's out-edges are
	// outEdges[outOff[v]:outOff[v+1]], matching Graph.Out(v) exactly.
	outOff   []int32
	outEdges []EdgeID
	inOff    []int32
	inEdges  []EdgeID

	// Type-grouped adjacency: outTyped holds each vertex's row permuted
	// so edges of one type are contiguous (insertion order within a
	// group), occupying the same [outOff[v], outOff[v+1]) span as the
	// flat row. The groups present at v are outGroups[outGroupOff[v]:
	// outGroupOff[v+1]] — one (type, start) record per distinct type in
	// the row, so memory is O(V+E) regardless of how many edge types the
	// graph declares. OutOfType resolves a group with a short linear
	// scan (vertices rarely carry more than a handful of types).
	outGroupOff []int32
	outGroups   []typeGroup
	outTyped    []EdgeID
	inGroupOff  []int32
	inGroups    []typeGroup
	inTyped     []EdgeID

	// ov is the delta overlay (delta.go), attached by the first
	// post-freeze mutation; nil on a pure-base snapshot. Written only on
	// the mutation path, which never overlaps readers.
	ov *overlay
}

// Freeze returns the graph's frozen CSR view, building and caching it on
// first use. Concurrent callers may race the first build (both build,
// one result wins — they are identical); mutation must not overlap
// Freeze, per the read-only-after-load contract.
//
// Freeze panics when a vertex property was declared after vertices of
// its type were added (see lateDeclaration) — those vertices hold no
// column value for it, and failing loudly beats a silent misread at
// scan time. Callers that must not panic use FreezeChecked.
func (g *Graph) Freeze() *Frozen {
	f, err := g.FreezeChecked()
	if err != nil {
		panic(err)
	}
	return f
}

// FreezeChecked is Freeze with a late declaration returned as an error
// instead of a panic.
func (g *Graph) FreezeChecked() (*Frozen, error) {
	if err := g.lateDeclaration(""); err != nil {
		return nil, err
	}
	if f := g.frozen.Load(); f != nil {
		return f, nil
	}
	f := buildFrozen(g)
	if !g.frozen.CompareAndSwap(nil, f) {
		return g.frozen.Load(), nil
	}
	return f, nil
}

// CachedFrozen returns the memoized frozen view if one has been built,
// without building one: an inlined atomic load, for hot read paths that
// fall back to FreezeChecked only when it is nil, and for monitoring
// paths (the metrics snapshot) that must never pay an O(V+E) freeze.
func (g *Graph) CachedFrozen() *Frozen { return g.frozen.Load() }

func buildFrozen(g *Graph) *Frozen {
	csrBuilds.Add(1)
	nv, ne := len(g.vertices), len(g.edges)
	f := &Frozen{
		g:       g,
		etypeID: make(map[string]int32),
		etypeOf: make([]int32, ne),
	}
	f.edgeFrom = make([]VertexID, ne)
	f.edgeTo = make([]VertexID, ne)
	for i := range g.edges {
		e := &g.edges[i]
		t := e.Type
		id, ok := f.etypeID[t]
		if !ok {
			id = int32(len(f.etypes))
			f.etypeID[t] = id
			f.etypes = append(f.etypes, t)
		}
		f.etypeOf[i] = id
		f.edgeFrom[i] = e.From
		f.edgeTo[i] = e.To
	}
	f.outOff, f.outEdges = flattenAdjacency(g.out, ne)
	f.inOff, f.inEdges = flattenAdjacency(g.in, ne)
	nt := len(f.etypes)
	f.outGroupOff, f.outGroups, f.outTyped = groupByType(f.outOff, f.outEdges, f.etypeOf, nv, nt)
	f.inGroupOff, f.inGroups, f.inTyped = groupByType(f.inOff, f.inEdges, f.etypeOf, nv, nt)
	return f
}

// flattenAdjacency packs per-vertex edge lists into one offset array and
// one edge array, preserving per-vertex order.
func flattenAdjacency(adj [][]EdgeID, ne int) ([]int32, []EdgeID) {
	off := make([]int32, len(adj)+1)
	edges := make([]EdgeID, 0, ne)
	for v, row := range adj {
		edges = append(edges, row...)
		off[v+1] = int32(len(edges))
	}
	return off, edges
}

// typeGroup records one contiguous same-type run in the type-grouped
// edge array: the interned type and the run's start offset. The run
// ends where the vertex's next group starts (or at the row end).
type typeGroup struct {
	t  int32
	lo int32
}

// groupByType builds the (vertex, edge type)-grouped copy of a CSR row
// set: a per-row counting sort that keeps insertion order within each
// type group (the typed traversal determinism rests on it), emitting
// one typeGroup per distinct type present in the row — sparse, so the
// index stays O(V+E) no matter how many edge types the graph declares.
func groupByType(off []int32, edges []EdgeID, etypeOf []int32, nv, nt int) ([]int32, []typeGroup, []EdgeID) {
	groupOff := make([]int32, nv+1)
	var groups []typeGroup
	grouped := make([]EdgeID, len(edges))
	// Per-type scratch, reused across rows and cleared via the touched
	// list (rows touch few types, so clearing is O(row), not O(nt)).
	count := make([]int32, nt)
	cursor := make([]int32, nt)
	var touched []int32
	for v := 0; v < nv; v++ {
		row := edges[off[v]:off[v+1]]
		for _, eid := range row {
			t := etypeOf[eid]
			if count[t] == 0 {
				touched = append(touched, t)
			}
			count[t]++
		}
		// Groups in first-appearance order; their runs tile the row's
		// span [off[v], off[v+1]) of the grouped array.
		at := off[v]
		for _, t := range touched {
			groups = append(groups, typeGroup{t: t, lo: at})
			cursor[t] = at
			at += count[t]
			count[t] = 0
		}
		for _, eid := range row {
			t := etypeOf[eid]
			grouped[cursor[t]] = eid
			cursor[t]++
		}
		touched = touched[:0]
		groupOff[v+1] = int32(len(groups))
	}
	return groupOff, groups, grouped
}

// Graph returns the underlying graph (for property and record access).
func (f *Frozen) Graph() *Graph { return f.g }

// NumVertices returns the vertex count (base + tail).
func (f *Frozen) NumVertices() int { return len(f.g.vertices) }

// NumEdges returns the edge count (base + tail).
func (f *Frozen) NumEdges() int {
	if f.ov != nil {
		return len(f.g.edges)
	}
	return len(f.etypeOf)
}

// Vertex returns the vertex record (read-only), like Graph.Vertex.
func (f *Frozen) Vertex(id VertexID) *Vertex { return f.g.Vertex(id) }

// Edge returns the edge record (read-only), like Graph.Edge.
func (f *Frozen) Edge(id EdgeID) *Edge { return f.g.Edge(id) }

// Out returns the IDs of edges leaving v, in insertion order — the same
// sequence as Graph.Out(v), read from the flat CSR row. With an overlay,
// a vertex whose row gained tail edges (or that is itself in the tail)
// reads the graph's live insertion-order row, which IS the merged
// base+tail row; untouched vertices stay on the base CSR.
func (f *Frozen) Out(v VertexID) []EdgeID {
	if ov := f.ov; ov != nil {
		row := f.g.out[v]
		if int(v) >= ov.baseNV || int(f.outOff[v+1]-f.outOff[v]) != len(row) {
			overlayReads.Add(1)
			return row
		}
	}
	return f.outEdges[f.outOff[v]:f.outOff[v+1]]
}

// In returns the IDs of edges entering v, in insertion order.
func (f *Frozen) In(v VertexID) []EdgeID {
	if ov := f.ov; ov != nil {
		row := f.g.in[v]
		if int(v) >= ov.baseNV || int(f.inOff[v+1]-f.inOff[v]) != len(row) {
			overlayReads.Add(1)
			return row
		}
	}
	return f.inEdges[f.inOff[v]:f.inOff[v+1]]
}

// OutDegree returns the out-degree of v.
func (f *Frozen) OutDegree(v VertexID) int {
	if f.ov != nil {
		return len(f.g.out[v])
	}
	return int(f.outOff[v+1] - f.outOff[v])
}

// InDegree returns the in-degree of v.
func (f *Frozen) InDegree(v VertexID) int {
	if f.ov != nil {
		return len(f.g.in[v])
	}
	return int(f.inOff[v+1] - f.inOff[v])
}

// From returns an edge's source vertex from the flat endpoint array.
func (f *Frozen) From(e EdgeID) VertexID {
	if ov := f.ov; ov != nil && int(e) >= ov.baseNE {
		overlayReads.Add(1)
		return ov.edgeFrom[int(e)-ov.baseNE]
	}
	return f.edgeFrom[e]
}

// To returns an edge's target vertex from the flat endpoint array.
func (f *Frozen) To(e EdgeID) VertexID {
	if ov := f.ov; ov != nil && int(e) >= ov.baseNE {
		overlayReads.Add(1)
		return ov.edgeTo[int(e)-ov.baseNE]
	}
	return f.edgeTo[e]
}

// EdgeTypeID resolves an edge type label to its dense interned ID,
// reporting false when no edge of that type exists.
func (f *Frozen) EdgeTypeID(etype string) (int32, bool) {
	if ov := f.ov; ov != nil {
		id, ok := ov.etypeID[etype]
		return id, ok
	}
	id, ok := f.etypeID[etype]
	return id, ok
}

// EdgeTypeOf returns an edge's type label (interned — comparing results
// of EdgeTypeIDOf is cheaper in hot loops).
func (f *Frozen) EdgeTypeOf(e EdgeID) string {
	if ov := f.ov; ov != nil && int(e) >= ov.baseNE {
		overlayReads.Add(1)
		return ov.etypes[ov.etypeOf[int(e)-ov.baseNE]]
	}
	return f.etypes[f.etypeOf[e]]
}

// EdgeTypeIDOf returns an edge's interned type ID.
func (f *Frozen) EdgeTypeIDOf(e EdgeID) int32 {
	if ov := f.ov; ov != nil && int(e) >= ov.baseNE {
		overlayReads.Add(1)
		return ov.etypeOf[int(e)-ov.baseNE]
	}
	return f.etypeOf[e]
}

// VertexTypeOf returns a vertex's type label from the graph's type
// index, without touching the vertex record.
func (f *Frozen) VertexTypeOf(v VertexID) string {
	return f.g.vtypes[f.g.vloc[v].typ].name
}

// OutOfType returns the out-edges of v with the given edge type as one
// contiguous slice — the insertion-order subsequence of Out(v) with
// that type, with no per-edge filtering. Unknown types return nil.
func (f *Frozen) OutOfType(v VertexID, etype string) []EdgeID {
	t, ok := f.EdgeTypeID(etype)
	if !ok {
		return nil
	}
	return f.OutTyped(v, t)
}

// InOfType is OutOfType for in-edges.
func (f *Frozen) InOfType(v VertexID, etype string) []EdgeID {
	t, ok := f.EdgeTypeID(etype)
	if !ok {
		return nil
	}
	return f.InTyped(v, t)
}

// OutTyped returns the out-edges of v with interned edge type t (from
// EdgeTypeID), contiguous and in insertion order. With an overlay, a
// (v, t) pair a tail edge touched resolves to its merged run; tail-only
// type IDs never match a base group, so untouched pairs fall through to
// the base index correctly.
func (f *Frozen) OutTyped(v VertexID, t int32) []EdgeID {
	if ov := f.ov; ov != nil {
		if run, ok := ov.outTyped[typedKey{v: v, t: t}]; ok {
			overlayReads.Add(1)
			return run
		}
		if int(v) >= ov.baseNV {
			return nil
		}
	}
	return typedRun(f.outGroupOff, f.outGroups, f.outOff, f.outTyped, v, t)
}

// InTyped is OutTyped for in-edges.
func (f *Frozen) InTyped(v VertexID, t int32) []EdgeID {
	if ov := f.ov; ov != nil {
		if run, ok := ov.inTyped[typedKey{v: v, t: t}]; ok {
			overlayReads.Add(1)
			return run
		}
		if int(v) >= ov.baseNV {
			return nil
		}
	}
	return typedRun(f.inGroupOff, f.inGroups, f.inOff, f.inTyped, v, t)
}

// typedRun resolves vertex v's type-t group: a linear scan over the few
// groups present at v, returning the contiguous run (nil when absent).
func typedRun(groupOff []int32, groups []typeGroup, off []int32, typed []EdgeID, v VertexID, t int32) []EdgeID {
	gs := groups[groupOff[v]:groupOff[v+1]]
	for i, g := range gs {
		if g.t != t {
			continue
		}
		hi := off[v+1]
		if i+1 < len(gs) {
			hi = gs[i+1].lo
		}
		return typed[g.lo:hi]
	}
	return nil
}

// VerticesOfType returns the vertex IDs with the given type, in
// insertion order: Graph.VerticesOfType's shared, read-only slice,
// whose base IDs precede every tail ID.
func (f *Frozen) VerticesOfType(vtype string) []VertexID { return f.g.VerticesOfType(vtype) }

// EdgeTypes returns the distinct edge types present, sorted.
func (f *Frozen) EdgeTypes() []string {
	src := f.etypes
	if f.ov != nil {
		src = f.ov.etypes
	}
	out := append([]string(nil), src...)
	sort.Strings(out)
	return out
}

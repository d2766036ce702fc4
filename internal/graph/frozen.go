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
// laid out in flat CSR (compressed sparse row) arrays, and every
// vertex's out- and in-edges are additionally grouped by edge type so a
// typed traversal step reads one contiguous slice with no per-edge
// filtering.
//
// A Frozen is derived from its Graph by Freeze. It reads the graph's
// edge arrays (endpoints and interned types), vertex records, vertex
// type index, property bags and property columns read-only, and adds
// only the adjacency index. Every row lists edges in ID order, which is
// insertion order: Out/In return a vertex's edges as they were added,
// OutOfType/InOfType the subsequence of one type, and VerticesOfType is
// Graph.VerticesOfType.
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

	// out and in index the edges that existed when the snapshot was
	// built, by source and by target.
	out, in adjacency

	// ov is the delta overlay (delta.go), attached by the first
	// post-freeze mutation; nil on a pure-base snapshot. Written only on
	// the mutation path, which never overlaps readers.
	ov *overlay
}

// adjacency is one direction's CSR index. Vertex v's edges are
// edges[off[v]:off[v+1]] in ID order. typed holds each row permuted so
// edges of one type are contiguous (ID order within a group),
// occupying the same span as the flat row; the groups present at v are
// groups[groupOff[v]:groupOff[v+1]] — one (type, start) record per
// distinct type in the row, so memory is O(V+E) regardless of how many
// edge types the graph declares. typedRun resolves a group with a short
// linear scan (vertices rarely carry more than a handful of types).
type adjacency struct {
	off      []int32
	edges    []EdgeID
	groupOff []int32
	groups   []typeGroup
	typed    []EdgeID
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
	return &Frozen{
		g:   g,
		out: buildAdjacency(g.edgeFrom, g.etypeOf, len(g.vertices), len(g.etypes)),
		in:  buildAdjacency(g.edgeTo, g.etypeOf, len(g.vertices), len(g.etypes)),
	}
}

// buildAdjacency indexes edges by the endpoint end[e] with a stable
// counting sort, so each row lists its edges in ID order, then groups
// every row by type.
func buildAdjacency(end []VertexID, etypeOf []int32, nv, nt int) adjacency {
	off := make([]int32, nv+1)
	for _, v := range end {
		off[v+1]++
	}
	for v := 1; v <= nv; v++ {
		off[v] += off[v-1]
	}
	// off[v] walks row v from its start to its end, which is row v+1's
	// start; shifting by one restores the starts.
	edges := make([]EdgeID, len(end))
	for e, v := range end {
		edges[off[v]] = EdgeID(e)
		off[v]++
	}
	copy(off[1:], off[:nv])
	off[0] = 0
	a := adjacency{off: off, edges: edges}
	a.groupOff, a.groups, a.typed = groupByType(off, edges, etypeOf, nv, nt)
	return a
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

// row returns vertex v's edges in ID order.
func (a *adjacency) row(v VertexID) []EdgeID { return a.edges[a.off[v]:a.off[v+1]] }

// typedRun resolves vertex v's type-t group: a linear scan over the few
// groups present at v, returning the contiguous run (nil when absent).
func (a *adjacency) typedRun(v VertexID, t int32) []EdgeID {
	gs := a.groups[a.groupOff[v]:a.groupOff[v+1]]
	for i, g := range gs {
		if g.t != t {
			continue
		}
		hi := a.off[v+1]
		if i+1 < len(gs) {
			hi = gs[i+1].lo
		}
		return a.typed[g.lo:hi]
	}
	return nil
}

// Graph returns the underlying graph (for property and record access).
func (f *Frozen) Graph() *Graph { return f.g }

// NumVertices returns the vertex count (base + tail).
func (f *Frozen) NumVertices() int { return len(f.g.vertices) }

// NumEdges returns the edge count (base + tail).
func (f *Frozen) NumEdges() int { return f.g.NumEdges() }

// Vertex returns the vertex record (read-only), like Graph.Vertex.
func (f *Frozen) Vertex(id VertexID) *Vertex { return f.g.Vertex(id) }

// Out returns the IDs of edges leaving v, in insertion order. With an
// overlay, a vertex a tail edge touched (or a tail vertex) reads its
// merged row; every other vertex reads the base CSR row.
func (f *Frozen) Out(v VertexID) []EdgeID {
	if ov := f.ov; ov != nil && ov.out.merges(v) {
		return ov.out.read(v)
	}
	return f.out.row(v)
}

// In returns the IDs of edges entering v, in insertion order.
func (f *Frozen) In(v VertexID) []EdgeID {
	if ov := f.ov; ov != nil && ov.in.merges(v) {
		return ov.in.read(v)
	}
	return f.in.row(v)
}

// OutDegree returns the out-degree of v.
func (f *Frozen) OutDegree(v VertexID) int {
	if ov := f.ov; ov != nil && ov.out.merges(v) {
		return len(ov.out.rows[v])
	}
	return int(f.out.off[v+1] - f.out.off[v])
}

// InDegree returns the in-degree of v.
func (f *Frozen) InDegree(v VertexID) int {
	if ov := f.ov; ov != nil && ov.in.merges(v) {
		return len(ov.in.rows[v])
	}
	return int(f.in.off[v+1] - f.in.off[v])
}

// From returns an edge's source vertex from the graph's endpoint array.
func (f *Frozen) From(e EdgeID) VertexID {
	f.countTail(e)
	return f.g.edgeFrom[e]
}

// To returns an edge's target vertex from the graph's endpoint array.
func (f *Frozen) To(e EdgeID) VertexID {
	f.countTail(e)
	return f.g.edgeTo[e]
}

// countTail counts a read of a tail edge as an overlay read.
func (f *Frozen) countTail(e EdgeID) {
	if ov := f.ov; ov != nil && int(e) >= ov.baseNE {
		overlayReads.Add(1)
	}
}

// EdgeTypeID resolves an edge type label to its dense interned ID,
// reporting false when no edge of that type exists.
func (f *Frozen) EdgeTypeID(etype string) (int32, bool) {
	id, ok := f.g.etypeID[etype]
	return id, ok
}

// EdgeTypeOf returns an edge's type label (interned — comparing results
// of EdgeTypeIDOf is cheaper in hot loops).
func (f *Frozen) EdgeTypeOf(e EdgeID) string {
	return f.g.etypes[f.EdgeTypeIDOf(e)]
}

// EdgeTypeIDOf returns an edge's interned type ID.
func (f *Frozen) EdgeTypeIDOf(e EdgeID) int32 {
	f.countTail(e)
	return f.g.etypeOf[e]
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
	if ov := f.ov; ov != nil && ov.out.merges(v) {
		if run, ok := ov.readTyped(&ov.out, v, t); ok {
			return run
		}
	}
	return f.out.typedRun(v, t)
}

// InTyped is OutTyped for in-edges.
func (f *Frozen) InTyped(v VertexID, t int32) []EdgeID {
	if ov := f.ov; ov != nil && ov.in.merges(v) {
		if run, ok := ov.readTyped(&ov.in, v, t); ok {
			return run
		}
	}
	return f.in.typedRun(v, t)
}

// VerticesOfType returns the vertex IDs with the given type, in
// insertion order: Graph.VerticesOfType's shared, read-only slice,
// whose base IDs precede every tail ID.
func (f *Frozen) VerticesOfType(vtype string) []VertexID { return f.g.VerticesOfType(vtype) }

// EdgeTypes returns the distinct edge types present, sorted.
func (f *Frozen) EdgeTypes() []string {
	out := append([]string(nil), f.g.etypes...)
	sort.Strings(out)
	return out
}

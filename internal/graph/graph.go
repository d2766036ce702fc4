// Package graph implements the in-memory property graph that Kaskade
// operates on. It is the substrate standing in for Neo4j in the paper:
// vertices and edges are typed, carry key-value properties, and obey an
// optional schema that constrains which edge types may connect which vertex
// types (the structural constraints that Kaskade's view enumeration mines).
//
// The graph is append-only: vertices and edges are added during loading or
// view materialization and never removed. Derived graphs (summarizer and
// connector views) are new Graph values. After loading, a Graph is safe for
// concurrent readers.
//
// # Edge storage
//
// An edge is one entry in three flat arrays the graph owns, indexed by
// edge ID and appended by AddEdge: its source, its target, and its type
// as an index into a table interning edge types in first-appearance
// order. Graph.Edge and EachEdge assemble an Edge value from them. The
// graph keeps no per-vertex adjacency of its own: Freeze derives it.
//
// # Frozen CSR views
//
// Freeze derives a Frozen view: flat CSR offset/edge arrays for out-
// and in-adjacency, built by a stable counting sort over the edge
// arrays, and per-vertex edges grouped by edge type (OutOfType returns
// a contiguous slice with no per-edge filtering). The frozen view reads
// the graph's edge arrays and type table, its vertex records and vertex
// type index (interned types, per-type vertex lists, each vertex's
// position within its type), property bags and property columns
// read-only, lists every row in edge ID (insertion) order, and is
// memoized on the graph — the loader, the view catalog, and the
// executor freeze once after load and then only read.
//
// # Property storage
//
// Vertex properties live in each vertex's map. AddVertex also stores
// the schema-declared ones, validated, in columns the graph owns,
// indexed by the vertex's position within its type (columns.go), which
// every snapshot reads directly. Schema-declared edge properties live
// only in typed columns the graph owns, indexed by edge ID
// (edgecols.go); the undeclared ones are one map per edge that has
// any, and Graph.EdgeProp / EdgeProperty read both.
//
// Post-freeze edges land in the snapshot's delta overlay (delta.go):
// AddEdge appends to the edge arrays and to merged rows behind the
// Frozen accessors, and a compaction threshold folds the tail into a
// fresh base CSR — queries between mutations never pay an O(V+E)
// rebuild. Mutation must not run concurrently with readers, as ever.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// VertexID identifies a vertex within one Graph. IDs are dense: the n-th
// added vertex has ID n-1, which lets adjacency be stored in flat slices.
type VertexID int32

// NoVertex is the zero-ish sentinel for "no vertex".
const NoVertex VertexID = -1

// EdgeID identifies an edge within one Graph, dense like VertexID.
type EdgeID int32

// Properties is a key-value property bag attached to a vertex or an edge.
// Values are restricted to the types the query language understands:
// int64, float64, string, and bool.
type Properties map[string]any

// Vertex is a typed vertex. Type is the label (e.g. "Job", "File").
type Vertex struct {
	ID    VertexID
	Type  string
	Props Properties
}

// Edge is a typed directed edge between two vertices, assembled from
// the graph's edge arrays. Props holds only the properties the schema
// does not declare for the edge's type (nil when there are none);
// declared ones live in the graph's edge columns.
type Edge struct {
	ID    EdgeID
	From  VertexID
	To    VertexID
	Type  string
	Props Properties
}

// Graph is an in-memory directed property graph.
//
// The zero value is an empty graph with no schema; NewGraph attaches a
// schema whose constraints are enforced on AddEdge.
type Graph struct {
	schema   *Schema
	vertices []Vertex
	// Edges, indexed by edge ID: endpoints and the index of the edge's
	// type in etypes, which interns edge types in first-appearance
	// order. eprops holds the undeclared property maps; it is allocated
	// by the first edge that has one, and edges past its end have none.
	edgeFrom []VertexID
	edgeTo   []VertexID
	etypeOf  []int32
	etypes   []string
	etypeID  map[string]int32
	eprops   []Properties
	// vtypes interns vertex types in first-appearance order, each with
	// its vertices and declared property columns (columns.go); vloc
	// places every vertex in its type. vdeclGen is the schema generation
	// at which every type's columns last matched its declarations.
	vtypes   []vertexType
	vtypeID  map[string]int32
	vloc     []vertexLoc
	vdeclGen uint64
	// frozen caches the CSR view built by Freeze. Post-freeze mutations
	// land in the cached view's tail and compaction swaps in a fresh
	// build.
	frozen atomic.Pointer[Frozen]
	// compactAt overrides the tail-size compaction threshold (<= 0:
	// default, see compactionThreshold).
	compactAt int
	// compactions counts this graph's tail folds (see Compactions).
	compactions atomic.Uint64
	// ecols holds the declared edge property columns, one per property
	// name (edgecols.go); edecls caches each edge type's declarations,
	// valid while edeclGen matches the schema's generation.
	ecols    []*edgeColumn
	edecls   map[string][]edgeDecl
	edeclGen uint64
}

// NewGraph returns an empty graph governed by schema. A nil schema means
// unconstrained (any vertex/edge types allowed).
func NewGraph(schema *Schema) *Graph {
	g := &Graph{schema: schema}
	if schema != nil {
		g.vdeclGen = schema.gen
	}
	return g
}

// Schema returns the graph's schema, or nil when unconstrained.
func (g *Graph) Schema() *Schema { return g.schema }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edgeFrom) }

// AddVertex adds a vertex of the given type with optional properties and
// returns its ID. It returns an error, before it mutates anything, if
// the schema does not declare the vertex type, if a declared property
// in props holds a value of another kind (the first in property name
// order), or if the type gained a declaration after its first vertex
// (see lateDeclaration). The vertex keeps props as its map; declared
// values are also stored in its type's columns.
func (g *Graph) AddVertex(vtype string, props Properties) (VertexID, error) {
	if g.schema != nil && !g.schema.HasVertexType(vtype) {
		return NoVertex, fmt.Errorf("graph: vertex type %q not in schema", vtype)
	}
	if err := g.lateDeclaration(vtype); err != nil {
		return NoVertex, fmt.Errorf("graph: AddVertex: %w", err)
	}
	tid, ok := g.vtypeID[vtype]
	var cols []vertexColumn
	if ok {
		cols = g.vtypes[tid].cols
	} else {
		cols = g.declaredColumns(vtype)
	}
	for i := range cols {
		if v := props[cols[i].prop]; v != nil {
			if err := checkPropValue(vtype, cols[i].prop, cols[i].kind, v); err != nil {
				return NoVertex, fmt.Errorf("graph: AddVertex: %w", err)
			}
		}
	}
	if !ok {
		if g.vtypeID == nil {
			g.vtypeID = make(map[string]int32)
		}
		tid = int32(len(g.vtypes))
		g.vtypeID[vtype] = tid
		g.vtypes = append(g.vtypes, vertexType{name: vtype, cols: cols})
	}
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Type: vtype, Props: props})
	g.vtypes[tid].add(id, props)
	g.vloc = append(g.vloc, vertexLoc{typ: tid, slot: int32(len(g.vtypes[tid].verts) - 1)})
	if s := g.schema; s != nil && s.gen != g.vdeclGen && g.lateDeclaration("") == nil {
		g.vdeclGen = s.gen
	}
	if f := g.frozen.Load(); f != nil {
		f.overlayAddVertex(id)
		g.maybeCompact(f)
	}
	return id, nil
}

// MustAddVertex is AddVertex for callers that know the type is valid
// (generators, tests). It panics on schema violation.
func (g *Graph) MustAddVertex(vtype string, props Properties) VertexID {
	id, err := g.AddVertex(vtype, props)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge adds a directed typed edge and returns its ID. It validates
// vertex IDs and, when a schema is present, that the edge type's declared
// domain and range match the endpoint vertex types, and that every
// declared property in props holds a value of its declared kind — all
// before it mutates anything. Declared values are stored in the graph's
// edge columns; the edge keeps props itself only when it holds no
// declared key, and otherwise a new map of the undeclared keys (none
// when every key is declared). The caller's map is never modified.
func (g *Graph) AddEdge(from, to VertexID, etype string, props Properties) (EdgeID, error) {
	if err := g.checkEdge(from, to, etype); err != nil {
		return -1, err
	}
	decls := g.edgeDecls(etype)
	rest, err := splitEdgeProps(etype, decls, props)
	if err != nil {
		return -1, fmt.Errorf("graph: AddEdge: %w", err)
	}
	id := g.linkEdge(from, to, etype, rest)
	storeDeclared(decls, id, props)
	g.edgeLanded(id)
	return id, nil
}

// checkEdge validates an edge's endpoints and, under a schema, its type.
func (g *Graph) checkEdge(from, to VertexID, etype string) error {
	if int(from) < 0 || int(from) >= len(g.vertices) {
		return fmt.Errorf("graph: AddEdge: invalid source vertex %d", from)
	}
	if int(to) < 0 || int(to) >= len(g.vertices) {
		return fmt.Errorf("graph: AddEdge: invalid target vertex %d", to)
	}
	if g.schema != nil {
		ft, tt := g.vertices[from].Type, g.vertices[to].Type
		if !g.schema.AllowsEdge(ft, tt, etype) {
			return fmt.Errorf("graph: schema forbids edge %s-[%s]->%s", ft, etype, tt)
		}
	}
	return nil
}

// linkEdge appends a checked edge to the edge arrays, interning its
// type, and keeps props as its undeclared map when it holds any key.
func (g *Graph) linkEdge(from, to VertexID, etype string, props Properties) EdgeID {
	id := EdgeID(len(g.edgeFrom))
	t, ok := g.etypeID[etype]
	if !ok {
		if g.etypeID == nil {
			g.etypeID = make(map[string]int32)
		}
		t = int32(len(g.etypes))
		g.etypeID[etype] = t
		g.etypes = append(g.etypes, etype)
	}
	g.edgeFrom = append(g.edgeFrom, from)
	g.edgeTo = append(g.edgeTo, to)
	g.etypeOf = append(g.etypeOf, t)
	if len(props) > 0 {
		g.eprops = growTo(g.eprops, int(id)+1)
		g.eprops[id] = props
	}
	return id
}

// edgeLanded moves a stored edge into the snapshot's delta tail.
func (g *Graph) edgeLanded(id EdgeID) {
	if f := g.frozen.Load(); f != nil {
		f.overlayAddEdge(id)
		g.maybeCompact(f)
	}
}

// MustAddEdge is AddEdge that panics on error, for generators and tests.
func (g *Graph) MustAddEdge(from, to VertexID, etype string, props Properties) EdgeID {
	id, err := g.AddEdge(from, to, etype, props)
	if err != nil {
		panic(err)
	}
	return id
}

// Vertex returns the vertex with the given ID. The returned pointer is
// into the graph's storage; callers must treat it as read-only.
func (g *Graph) Vertex(id VertexID) *Vertex { return &g.vertices[id] }

// Edge assembles the edge with the given ID from the edge arrays. Its
// Props map is shared with the graph and must be treated as read-only.
func (g *Graph) Edge(id EdgeID) Edge {
	return Edge{ID: id, From: g.edgeFrom[id], To: g.edgeTo[id], Type: g.etypes[g.etypeOf[id]], Props: g.edgeMap(id)}
}

// edgeMap returns edge e's undeclared property map (nil when none).
func (g *Graph) edgeMap(e EdgeID) Properties {
	if int(e) < len(g.eprops) {
		return g.eprops[e]
	}
	return nil
}

// VerticesOfType returns the vertex IDs with the given type, in insertion
// order. The returned slice is shared; callers must not modify it.
func (g *Graph) VerticesOfType(vtype string) []VertexID {
	if tid, ok := g.vtypeID[vtype]; ok {
		return g.vtypes[tid].verts
	}
	return nil
}

// VertexTypes returns the distinct vertex types present in the graph,
// sorted for deterministic iteration.
func (g *Graph) VertexTypes() []string {
	types := make([]string, len(g.vtypes))
	for i := range g.vtypes {
		types[i] = g.vtypes[i].name
	}
	sort.Strings(types)
	return types
}

// EdgeTypeCounts returns the number of edges of each edge type.
func (g *Graph) EdgeTypeCounts() map[string]int {
	counts := make(map[string]int, len(g.etypes))
	for _, t := range g.etypeOf {
		counts[g.etypes[t]]++
	}
	return counts
}

// CountVerticesOfType returns the number of vertices with the given type.
func (g *Graph) CountVerticesOfType(vtype string) int { return len(g.VerticesOfType(vtype)) }

// EachVertex calls fn for every vertex in ID order.
func (g *Graph) EachVertex(fn func(*Vertex)) {
	for i := range g.vertices {
		fn(&g.vertices[i])
	}
}

// EachEdge calls fn for every edge in ID order.
func (g *Graph) EachEdge(fn func(Edge)) {
	for i := range g.edgeFrom {
		fn(g.Edge(EdgeID(i)))
	}
}

// Prop returns a vertex property value, or nil when absent.
func (v *Vertex) Prop(key string) any {
	if v.Props == nil {
		return nil
	}
	return v.Props[key]
}

// SetVertexProp sets vertex id's property key to val (nil: absent) and,
// when its type declares key, stores val in the column. The vertex gets
// a fresh map carrying the change: the old one may be shared (AddVertex
// keeps the caller's map, and view builders pass the base graph's), so
// it is never written. A value of another kind than declared is refused
// before anything changes. It is intended for algorithms that annotate
// vertices (e.g. community labels); graphs being annotated must not be
// concurrently read.
func (g *Graph) SetVertexProp(id VertexID, key string, val any) error {
	loc := g.vloc[id]
	t := &g.vtypes[loc.typ]
	c := t.column(key)
	if c != nil && val != nil {
		if err := checkPropValue(t.name, key, c.kind, val); err != nil {
			return fmt.Errorf("graph: SetVertexProp: %w", err)
		}
	}
	v := &g.vertices[id]
	props := make(Properties, len(v.Props)+1)
	for k, x := range v.Props {
		props[k] = x
	}
	props[key] = val
	v.Props = props
	if c != nil {
		c.vals[loc.slot] = val
	}
	return nil
}

// String implements fmt.Stringer for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d, |E|=%d, types=%v}", len(g.vertices), len(g.edgeFrom), g.VertexTypes())
}

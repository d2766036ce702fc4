package graph

import (
	"slices"
	"sort"

	"kaskade/internal/bitset"
)

// Edge property columns: a schema-declared edge property lives in one
// typed column owned by the Graph, indexed by edge ID — a flat []int64
// (or []float64, []string, bitset) plus a presence bitset, one per
// declared property name, shared by every edge type that declares the
// name (DeclareProperty keeps their kinds equal). AddEdge writes
// declared values there and keeps only undeclared keys in the edge's
// map, so an edge whose properties are all declared — every prov edge
// and its one `ts` — holds no map at all.
//
// The columns are the graph's own storage, not a freeze-time index:
// every Frozen snapshot, the delta tail included, reads them directly,
// so an edge added after a freeze needs no tail extension and a
// compaction rebuilds nothing here. They follow the package's contract:
// mutation (AddEdge) never overlaps readers.
//
// A value under a declared name that was stored before the declaration
// (a DeclareProperty after load) stays in its edge's map; every read
// below falls back to the map when the column holds no value, so both
// placements read the same. A schemaless graph holds edge columns only
// when it copies edges out of a graph that has them (AddEdgeFrom), as
// the vertex aggregator's view does.

// edgeColumn holds one declared edge property's values by edge ID.
// Exactly one typed array is populated, by kind; arrays are as long as
// the highest edge ID that stored a value, and shorter reads as absent.
type edgeColumn struct {
	prop    string
	kind    PropKind
	present bitset.Set
	ints    []int64
	floats  []float64
	strs    []string
	bools   bitset.Set
}

// edgeDecl is one property an edge type declares, resolved to its column.
type edgeDecl struct {
	prop string
	kind PropKind
	col  *edgeColumn
}

// has reports whether the column holds a value for e.
func (c *edgeColumn) has(e EdgeID) bool {
	i := int(e)
	return i>>6 < len(c.present) && c.present.Has(i)
}

// growTo extends s to length n with zero values.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// mark records that e holds a value and sizes the typed array for it.
func (c *edgeColumn) mark(e EdgeID) {
	i := int(e)
	c.present = growTo(c.present, i>>6+1)
	c.present.Add(i)
	switch c.kind {
	case PropInt:
		c.ints = growTo(c.ints, i+1)
	case PropFloat:
		c.floats = growTo(c.floats, i+1)
	case PropString:
		c.strs = growTo(c.strs, i+1)
	case PropBool:
		c.bools = growTo(c.bools, i>>6+1)
	}
}

// set stores e's value, already checked against the column's kind.
func (c *edgeColumn) set(e EdgeID, v any) {
	c.mark(e)
	switch c.kind {
	case PropInt:
		c.ints[e] = v.(int64)
	case PropFloat:
		c.floats[e] = v.(float64)
	case PropString:
		c.strs[e] = v.(string)
	case PropBool:
		if v.(bool) {
			c.bools.Add(int(e))
		}
	}
}

// copyFrom stores src's value for edge se as e's value; both columns
// have the same kind and src holds a value for se.
func (c *edgeColumn) copyFrom(src *edgeColumn, se, e EdgeID) {
	c.mark(e)
	switch c.kind {
	case PropInt:
		c.ints[e] = src.ints[se]
	case PropFloat:
		c.floats[e] = src.floats[se]
	case PropString:
		c.strs[e] = src.strs[se]
	case PropBool:
		if src.bools.Has(int(se)) {
			c.bools.Add(int(e))
		}
	}
}

// value boxes e's value; the column must hold one.
func (c *edgeColumn) value(e EdgeID) any {
	switch c.kind {
	case PropInt:
		return c.ints[e]
	case PropFloat:
		return c.floats[e]
	case PropString:
		return c.strs[e]
	}
	return c.bools.Has(int(e))
}

// edgeDecls resolves the properties edge type etype declares, creating
// their columns on first use. Mutation path only: it fills a cache that
// a schema change (DeclareProperty) invalidates.
func (g *Graph) edgeDecls(etype string) []edgeDecl {
	s := g.schema
	if s == nil || len(s.props) == 0 {
		return nil
	}
	if g.edecls == nil || g.edeclGen != s.gen {
		g.edecls, g.edeclGen = make(map[string][]edgeDecl), s.gen
	}
	ds, ok := g.edecls[etype]
	if ok {
		return ds
	}
	if s.hasEdgeTypeName(etype) {
		for k, kind := range s.props {
			if k.typeName == etype {
				ds = append(ds, edgeDecl{prop: k.prop, kind: kind, col: g.edgeColumnFor(k.prop, kind)})
			}
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].prop < ds[j].prop })
	}
	g.edecls[etype] = ds
	return ds
}

// edgeColumn returns the column for prop, or nil. A graph holds a
// handful of edge columns, so a scan beats a map lookup.
func (g *Graph) edgeColumn(prop string) *edgeColumn {
	for _, c := range g.ecols {
		if c.prop == prop {
			return c
		}
	}
	return nil
}

// edgeColumnFor returns the column for prop, creating it with kind.
func (g *Graph) edgeColumnFor(prop string, kind PropKind) *edgeColumn {
	if c := g.edgeColumn(prop); c != nil {
		return c
	}
	c := &edgeColumn{prop: prop, kind: kind}
	g.ecols = append(g.ecols, c)
	return c
}

// splitEdgeProps checks the declared values in props against their
// declarations and returns the map the edge keeps: props itself when it
// holds no declared key, otherwise a new map of the undeclared keys
// only (nil when there are none). The first violation, in property name
// order, is the error.
func splitEdgeProps(etype string, decls []edgeDecl, props Properties) (Properties, error) {
	if len(decls) == 0 || len(props) == 0 {
		return props, nil
	}
	declared := 0
	for _, d := range decls {
		v, ok := props[d.prop]
		if !ok {
			continue
		}
		declared++
		if v == nil {
			continue
		}
		if err := checkPropValue(etype, d.prop, d.kind, v); err != nil {
			return nil, err
		}
	}
	if declared == 0 {
		return props, nil
	}
	if declared == len(props) {
		return nil, nil
	}
	rest := make(Properties, len(props)-declared)
	for k, v := range props {
		rest[k] = v
	}
	for _, d := range decls {
		delete(rest, d.prop)
	}
	return rest, nil
}

// storeDeclared writes props' declared values into the columns for
// edge id (nil values are absent).
func storeDeclared(decls []edgeDecl, id EdgeID, props Properties) {
	if len(props) == 0 {
		return
	}
	for _, d := range decls {
		if v := props[d.prop]; v != nil {
			d.col.set(id, v)
		}
	}
}

// AddEdgeFrom adds an edge from→to with the type and properties of
// src's edge se — the copy the view builders and prefix subgraphs make.
// When g shares src's schema, or has none, the copy shares se's
// undeclared map and moves its column values into g's columns of the
// same name, so no map is built per edge; a schemaless g keeps those
// columns only as storage (AddEdge never writes them). Otherwise the
// properties are merged into one map and stored as AddEdge would.
func (g *Graph) AddEdgeFrom(src *Graph, se EdgeID, from, to VertexID) (EdgeID, error) {
	etype := src.etypes[src.etypeOf[se]]
	if !g.copiesColumns(src, se, etype) {
		return g.AddEdge(from, to, etype, src.EdgeProps(se))
	}
	if err := g.checkEdge(from, to, etype); err != nil {
		return -1, err
	}
	id := g.linkEdge(from, to, etype, src.edgeMap(se))
	for _, sc := range src.ecols {
		if sc.has(se) {
			g.edgeColumnFor(sc.prop, sc.kind).copyFrom(sc, se, id)
		}
	}
	g.edgeLanded(id)
	return id, nil
}

// copiesColumns reports whether AddEdgeFrom may copy src's edge se, of
// type etype, column to column. Under a shared schema both graphs'
// columns have the declared kinds, so it may unless se's map holds a
// key g declares for its type (a value stored before its declaration
// goes through AddEdge's checks). A schemaless g may unless it has a
// column of another kind under a name se's columns hold.
func (g *Graph) copiesColumns(src *Graph, se EdgeID, etype string) bool {
	switch g.schema {
	case src.schema:
		m := src.edgeMap(se)
		for _, d := range g.edgeDecls(etype) {
			if _, ok := m[d.prop]; ok {
				return false
			}
		}
		return true
	case nil:
		for _, sc := range src.ecols {
			if sc.has(se) {
				if c := g.edgeColumn(sc.prop); c != nil && c.kind != sc.kind {
					return false
				}
			}
		}
		return true
	}
	return false
}

// EdgeProperty is a read handle to one edge property name, resolved
// once and then indexed per edge: the typed column when an edge type
// declares the name, and each edge's map for the values the column does
// not hold. Resolve it per traversal; a handle outlives no mutation.
type EdgeProperty struct {
	g   *Graph
	c   *edgeColumn // nil when no column exists for the name
	key string
}

// EdgeProperty resolves the read handle for edge property key.
func (g *Graph) EdgeProperty(key string) EdgeProperty {
	return EdgeProperty{g: g, c: g.edgeColumn(key), key: key}
}

// Get returns e's value, or nil when absent. A column value is boxed
// on each call; hot loops over one kind use Int.
func (p EdgeProperty) Get(e EdgeID) any {
	if p.c != nil && p.c.has(e) {
		return p.c.value(e)
	}
	if m := p.g.edgeMap(e); m != nil {
		return m[p.key]
	}
	return nil
}

// Int returns e's value when it is an int64, reading a PropInt column
// without boxing.
func (p EdgeProperty) Int(e EdgeID) (int64, bool) {
	if p.c != nil && p.c.has(e) {
		if p.c.kind != PropInt {
			return 0, false
		}
		return p.c.ints[e], true
	}
	if m := p.g.edgeMap(e); m != nil {
		x, ok := m[p.key].(int64)
		return x, ok
	}
	return 0, false
}

// EdgeProp returns edge e's value of property key, or nil when absent.
func (g *Graph) EdgeProp(e EdgeID, key string) any { return g.EdgeProperty(key).Get(e) }

// EdgeProps returns all of edge e's properties as one map: the
// undeclared map itself when no column holds a value for e (shared,
// read-only), otherwise a fresh map merging both.
func (g *Graph) EdgeProps(e EdgeID) Properties {
	m := g.edgeMap(e)
	var out Properties
	for _, c := range g.ecols {
		if !c.has(e) {
			continue
		}
		if out == nil {
			out = make(Properties, len(m)+len(g.ecols))
			for k, v := range m {
				out[k] = v
			}
		}
		out[c.prop] = c.value(e)
	}
	if out == nil {
		return m
	}
	return out
}

// edgeColumnBytes sums the edge columns' resident bytes.
func (g *Graph) edgeColumnBytes() int64 {
	var b int64
	for _, c := range g.ecols {
		b += int64(len(c.present)+len(c.bools))*8 + int64(len(c.ints))*8 + int64(len(c.floats))*8
		for _, s := range c.strs {
			b += 16 + int64(len(s))
		}
	}
	return b
}

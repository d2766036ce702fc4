package graph

import (
	"fmt"
	"sort"
)

// Vertex property columns: the graph interns each vertex type on its
// first vertex and keeps, per type, its vertices in insertion order and
// one column per (vertex type, property) the schema declares
// (Schema.DeclareProperty). A vertex's slot in its type's columns is its
// position within the type, so a property scan — Q1's CPU filters,
// aggregation inputs — reads one flat array instead of chasing one
// map[string]any per vertex.
//
// A column holds the boxed values themselves, sharing the interface
// words of the vertices' maps, with nil meaning absent: a read is two
// array indexes and zero allocations, and the typed accessors are type
// assertions on the same array. AddVertex validates each declared value
// before it stores anything, so a column read is byte-identical to the
// map read it replaces; the executor reads a declared vertex property
// only from its column, and its tests pin that equivalence against a
// twin graph that declares nothing and so reads every property from the
// maps.
//
// The columns are the graph's own storage, like the edge columns
// (edgecols.go): every Frozen snapshot and its delta tail read them
// directly, so a vertex added after a freeze needs no tail extension
// and compaction rebuilds nothing here. A vertex type's columns are
// fixed by its first vertex; a property declared for the type after
// that would read as absent on the stored vertices, so AddVertex of the
// type and FreezeChecked refuse it (lateDeclaration).

// PropDecl is one property declaration: the owning vertex (or edge)
// type, the property name, and the declared kind.
type PropDecl struct {
	Type string   `json:"type"`
	Prop string   `json:"prop"`
	Kind PropKind `json:"kind"`
}

// vertexType is one interned vertex type: its vertices in insertion
// order and its declared property columns, sorted by property name.
type vertexType struct {
	name  string
	verts []VertexID
	cols  []vertexColumn
}

// vertexColumn holds one declared vertex property's validated values,
// indexed by slot (nil when absent).
type vertexColumn struct {
	prop string
	kind PropKind
	vals []any
}

// vertexLoc places a vertex: its interned type and its slot within it.
type vertexLoc struct{ typ, slot int32 }

// add appends vertex id, whose declared values in props are validated,
// to the type's vertex list and columns.
func (t *vertexType) add(id VertexID, props Properties) {
	t.verts = append(t.verts, id)
	for i := range t.cols {
		t.cols[i].vals = append(t.cols[i].vals, props[t.cols[i].prop])
	}
}

// column returns the type's column for prop, or nil. Types carry a
// handful of declared properties, so a scan beats a map lookup.
func (t *vertexType) column(prop string) *vertexColumn {
	for i := range t.cols {
		if t.cols[i].prop == prop {
			return &t.cols[i]
		}
	}
	return nil
}

// checkPropValue validates one value against a declaration; the shared
// error shape for vertex and edge columns.
func checkPropValue(typeName, prop string, kind PropKind, v any) error {
	ok := false
	switch kind {
	case PropInt:
		_, ok = v.(int64)
	case PropFloat:
		_, ok = v.(float64)
	case PropString:
		_, ok = v.(string)
	case PropBool:
		_, ok = v.(bool)
	}
	if ok {
		return nil
	}
	return fmt.Errorf("graph: property %s.%s declared %s, holds %T (%v)", typeName, prop, kind, v, v)
}

// declaredColumns returns empty columns for the properties the schema
// declares on vertex type vtype, sorted by name.
func (g *Graph) declaredColumns(vtype string) []vertexColumn {
	s := g.schema
	if s == nil {
		return nil
	}
	var cols []vertexColumn
	for k, kind := range s.props {
		if k.typeName == vtype {
			cols = append(cols, vertexColumn{prop: k.prop, kind: kind})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].prop < cols[j].prop })
	return cols
}

// lateDeclaration reports a property declared, or re-declared with
// another kind, on vertex type vtype (any type when vtype is "") after
// the type's first vertex: its columns no longer match the schema. The
// error names the first such property in name order. The check is one
// comparison while the schema is unchanged since the graph last found
// every type's columns current.
func (g *Graph) lateDeclaration(vtype string) error {
	s := g.schema
	if s == nil || s.gen == g.vdeclGen {
		return nil
	}
	for i := range g.vtypes {
		t := &g.vtypes[i]
		if vtype != "" && t.name != vtype {
			continue
		}
		for j, want := range g.declaredColumns(t.name) {
			if j >= len(t.cols) || t.cols[j].prop != want.prop || t.cols[j].kind != want.kind {
				return fmt.Errorf("graph: property %s.%s declared after vertices of %s exist", t.name, want.prop, t.name)
			}
		}
	}
	return nil
}

// DeclaredVertexProp returns v's value of property key from its type's
// column. declared reports whether v's type declares key; when it does,
// val (nil when absent on v) is the value Vertex(v).Prop(key) holds, and
// reading it allocates nothing. declared=false means the caller reads
// the property map.
func (g *Graph) DeclaredVertexProp(v VertexID, key string) (val any, declared bool) {
	loc := g.vloc[v]
	cols := g.vtypes[loc.typ].cols
	for i := range cols {
		if cols[i].prop == key {
			return cols[i].vals[loc.slot], true
		}
	}
	return nil, false
}

// VertexPropColumnar is Graph.DeclaredVertexProp: the snapshot shares
// the graph's columns, tail vertices included.
func (f *Frozen) VertexPropColumnar(v VertexID, key string) (val any, covered bool) {
	return f.g.DeclaredVertexProp(v, key)
}

// ColumnStats reports the property columns the snapshot reads: one per
// declared (vertex type, property), whether or not the type has
// vertices yet, plus the graph's edge columns, as a count and their
// resident bytes (the boxed values are shared with the vertices' maps
// and not counted).
func (f *Frozen) ColumnStats() (count int, bytes int64) {
	g := f.g
	if s := g.schema; s != nil {
		for k := range s.props {
			if s.vertexTypes[k.typeName] {
				count++
			}
		}
	}
	for i := range g.vtypes {
		for _, c := range g.vtypes[i].cols {
			bytes += int64(len(c.vals)) * 16
		}
	}
	return count + len(g.ecols), bytes + g.edgeColumnBytes()
}

// PropColumn is a read-only handle to one vertex property column, for
// callers (the executor's vectorized predicate prefilter) that scan a
// candidate list against one property. The typed accessors must only be
// passed vertices of the column's vertex type.
type PropColumn struct {
	g *Graph
	c *vertexColumn
}

// Column resolves the column for (vtype, prop), reporting false when
// prop is not a declared property of a vertex type the graph holds.
func (f *Frozen) Column(vtype, prop string) (PropColumn, bool) {
	tid, ok := f.g.vtypeID[vtype]
	if !ok {
		return PropColumn{}, false
	}
	c := f.g.vtypes[tid].column(prop)
	if c == nil {
		return PropColumn{}, false
	}
	return PropColumn{g: f.g, c: c}, true
}

// Kind returns the column's declared kind.
func (pc PropColumn) Kind() PropKind { return pc.c.kind }

func (pc PropColumn) val(v VertexID) any { return pc.c.vals[pc.g.vloc[v].slot] }

// Int returns v's value from a PropInt column (present=false when the
// vertex lacks the property).
func (pc PropColumn) Int(v VertexID) (int64, bool) {
	x, ok := pc.val(v).(int64)
	return x, ok
}

// Float returns v's value from a PropFloat column.
func (pc PropColumn) Float(v VertexID) (float64, bool) {
	x, ok := pc.val(v).(float64)
	return x, ok
}

// Str returns v's value from a PropString column.
func (pc PropColumn) Str(v VertexID) (string, bool) {
	x, ok := pc.val(v).(string)
	return x, ok
}

// Bool returns v's value from a PropBool column.
func (pc PropColumn) Bool(v VertexID) (bool, bool) {
	x, ok := pc.val(v).(bool)
	return x, ok
}

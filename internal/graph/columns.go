package graph

import (
	"fmt"

	"kaskade/internal/bitset"
)

// Columnar property storage: at freeze time, every schema-declared
// (vertex type, property) pair (Schema.DeclareProperty) becomes a typed
// column indexed by the dense per-type vertex index that the frozen CSR
// already maintains. A property scan — Q1's CPU filters, aggregation
// inputs — then walks a flat []int64 / []float64 / interned-string /
// bitset array instead of chasing one map[string]any per vertex.
//
// Columns are validated as they are built: a value whose dynamic type
// contradicts its declaration (float64 under PropInt) fails the freeze
// loudly, so a lying declaration is caught at freeze time, not as a
// silent misread at scan time. Because every stored value is validated,
// a column read is byte-identical to the property-map read it replaces,
// so the executor reads a declared vertex property only from its column;
// its tests pin that equivalence against a twin graph that declares
// nothing and so reads every property from the maps.
//
// Alongside the typed arrays each column keeps the original boxed
// values (`vals`, sharing the property bags' interface words), so a
// generic evaluator read is two array indexes and zero allocations —
// boxing a large int64 on every read would otherwise cost an allocation
// the map path never paid. The typed arrays serve the vectorized
// predicate prefilter, which compares against []int64/[]float64 without
// unboxing at all.
//
// These freeze-built columns cover vertex properties only. Declared
// edge properties are not indexed here: they are stored in typed
// columns the graph itself owns, written by AddEdge and read by every
// snapshot directly (edgecols.go). Mutating a declared vertex property
// after a freeze (Vertex.SetProp) leaves the frozen columns stale, like
// any post-freeze mutation — the read-only-after-freeze contract
// already forbids it for graphs being queried.

// PropDecl is one property declaration: the owning vertex (or edge)
// type, the property name, and the declared kind.
type PropDecl struct {
	Type string   `json:"type"`
	Prop string   `json:"prop"`
	Kind PropKind `json:"kind"`
}

// column is one frozen (vertex type, property) column. Slots are the
// dense per-type vertex index (denseIx); exactly one typed backing
// array is populated, by kind.
type column struct {
	prop    string
	kind    PropKind
	present bitset.Set // slot -> value present
	vals    []any      // original boxed values (nil when absent)
	ints    []int64
	floats  []float64
	strIx   []int32  // slot -> index into dict
	dict    []string // interned distinct strings, first-appearance order
	bools   bitset.Set
}

// bytes returns the column's resident index size: the typed array, the
// presence bitset, the boxed-value array, and (for strings) the dict
// headers and bytes. The boxed values themselves are shared with the
// property bags and not double-counted.
func (c *column) bytes() int64 {
	n := int64(len(c.vals))
	b := n*16 + int64(len(c.present))*8
	switch c.kind {
	case PropInt:
		b += int64(len(c.ints)) * 8
	case PropFloat:
		b += int64(len(c.floats)) * 8
	case PropString:
		b += int64(len(c.strIx)) * 4
		for _, s := range c.dict {
			b += 16 + int64(len(s))
		}
	case PropBool:
		b += int64(len(c.bools)) * 8
	}
	return b
}

// checkPropValue validates one stored value against a declaration; the
// shared error shape for freeze-time column builds and graph.Load.
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

// buildColumns populates f's typed property columns from g's schema
// declarations. It fails on the first value whose dynamic type
// contradicts its declaration.
func buildColumns(g *Graph, f *Frozen) error {
	s := g.schema
	if s == nil {
		return nil
	}
	decls := s.PropertyDecls()
	if len(decls) == 0 {
		return nil
	}
	// A declared vertex type with no vertices yet is interned anyway and
	// gets empty columns, so the vertices a later mutation adds extend
	// them through the delta tail: every declared property has a column.
	for _, d := range decls {
		if _, ok := f.vtypeID[d.Type]; !ok && s.HasVertexType(d.Type) {
			f.vtypeID[d.Type] = int32(len(f.vtypes))
			f.vtypes = append(f.vtypes, d.Type)
			f.verticesByType = append(f.verticesByType, nil)
		}
	}
	for _, d := range decls {
		tid, ok := f.vtypeID[d.Type]
		if !ok {
			continue // edge-type declaration
		}
		verts := f.verticesByType[tid]
		if f.denseIx == nil {
			f.denseIx = buildDenseIndex(f)
		}
		n := len(verts)
		col := column{
			prop:    d.Prop,
			kind:    d.Kind,
			present: bitset.New(n),
			vals:    make([]any, n),
		}
		switch d.Kind {
		case PropInt:
			col.ints = make([]int64, n)
		case PropFloat:
			col.floats = make([]float64, n)
		case PropString:
			col.strIx = make([]int32, n)
		case PropBool:
			col.bools = bitset.New(n)
		}
		intern := map[string]int32{}
		for i, vid := range verts {
			v := g.vertices[vid].Prop(d.Prop)
			if v == nil {
				continue
			}
			if err := checkPropValue(d.Type, d.Prop, d.Kind, v); err != nil {
				return fmt.Errorf("graph: freeze: vertex %d: %w", vid, err)
			}
			col.present.Add(i)
			col.vals[i] = v
			switch d.Kind {
			case PropInt:
				col.ints[i] = v.(int64)
			case PropFloat:
				col.floats[i] = v.(float64)
			case PropString:
				sv := v.(string)
				ix, ok := intern[sv]
				if !ok {
					ix = int32(len(col.dict))
					intern[sv] = ix
					col.dict = append(col.dict, sv)
				}
				col.strIx[i] = ix
			case PropBool:
				if v.(bool) {
					col.bools.Add(i)
				}
			}
		}
		if f.colsByVType == nil {
			f.colsByVType = make([][]column, len(f.vtypes))
		}
		f.colsByVType[tid] = append(f.colsByVType[tid], col)
		f.colCount++
		f.colBytes += col.bytes()
	}
	return nil
}

// buildDenseIndex computes vertex ID -> position within the vertex's
// per-type list, the slot index columns are addressed by.
func buildDenseIndex(f *Frozen) []int32 {
	ix := make([]int32, len(f.vtypeOf))
	for _, verts := range f.verticesByType {
		for i, vid := range verts {
			ix[vid] = int32(i)
		}
	}
	return ix
}

// findColumn resolves the column for (v's type, key) with a short
// linear scan — types carry a handful of declared properties, so a scan
// over the slice beats a map lookup.
func (f *Frozen) findColumn(v VertexID, key string) *column {
	if f.colsByVType == nil {
		return nil
	}
	cols := f.colsByVType[f.vtypeOf[v]]
	for i := range cols {
		if cols[i].prop == key {
			return &cols[i]
		}
	}
	return nil
}

// VertexPropColumnar returns v's value of a declared property from its
// frozen column. covered reports whether a column exists for
// (v's type, key); when it does, the value (nil when absent on v) is
// byte-identical to Vertex(v).Prop(key) — freeze-time validation
// guarantees it — and reading it allocates nothing. covered=false means
// the property is undeclared on v's type, so the caller reads the
// property map. Tail vertices resolve through their type's tail column
// extension (delta.go), validated at mutation time with the same check
// the freeze applies.
func (f *Frozen) VertexPropColumnar(v VertexID, key string) (val any, covered bool) {
	if ov := f.ov; ov != nil && int(v) >= ov.baseNV {
		ti := int(v) - ov.baseNV
		slot := ov.tailSlot[ti]
		if slot < 0 {
			return nil, false
		}
		tid := ov.vtypeOf[ti]
		cols := f.colsByVType[tid]
		for i := range cols {
			if cols[i].prop == key {
				overlayReads.Add(1)
				return ov.cols[tid][i].vals[slot], true
			}
		}
		return nil, false
	}
	c := f.findColumn(v, key)
	if c == nil {
		return nil, false
	}
	return c.vals[f.denseIx[v]], true
}

// ColumnStats reports the typed property columns the snapshot reads:
// the frozen vertex columns (tail extensions included) and the graph's
// edge columns, as a count and their resident bytes.
func (f *Frozen) ColumnStats() (count int, bytes int64) {
	bytes = f.colBytes + f.g.edgeColumnBytes()
	if f.ov != nil {
		bytes += f.ov.colBytes
	}
	return f.colCount + len(f.g.ecols), bytes
}

// PropColumn is a read-only handle to one frozen typed column, for
// callers (the executor's vectorized predicate prefilter) that scan a
// candidate list against one property. The typed accessors must only be
// passed vertices of the column's vertex type — the column is indexed
// by the type's dense vertex index, with delta-tail vertices resolved
// through the column's tail extension (delta.go).
type PropColumn struct {
	f   *Frozen
	c   *column
	ov  *overlay // the snapshot's overlay (nil on a pure-base snapshot)
	tid int32    // the column's vertex-type ID
	ci  int      // the column's index within colsByVType[tid]
}

// Column resolves the frozen column for (vtype, prop), reporting false
// when (vtype, prop) is not a declared vertex property.
func (f *Frozen) Column(vtype, prop string) (PropColumn, bool) {
	tid, ok := f.vtypeID[vtype]
	if !ok || f.colsByVType == nil {
		return PropColumn{}, false
	}
	cols := f.colsByVType[tid]
	for i := range cols {
		if cols[i].prop == prop {
			return PropColumn{f: f, c: &cols[i], ov: f.ov, tid: tid, ci: i}, true
		}
	}
	return PropColumn{}, false
}

// Kind returns the column's declared kind.
func (pc PropColumn) Kind() PropKind { return pc.c.kind }

// tail reports whether v lives in the snapshot's delta tail and, when
// it does, resolves v's slot in this column's tail extension. tc == nil
// with tail == true means the tail holds no value for v.
func (pc PropColumn) tail(v VertexID) (tc *tailColumn, slot int32, tail bool) {
	ov := pc.ov
	if ov == nil || int(v) < ov.baseNV {
		return nil, 0, false
	}
	overlayReads.Add(1)
	slot = ov.tailSlot[int(v)-ov.baseNV]
	if slot < 0 {
		return nil, 0, true
	}
	tcs := ov.cols[pc.tid]
	if tcs == nil {
		return nil, 0, true
	}
	return &tcs[pc.ci], slot, true
}

// Int returns v's value from a PropInt column (present=false when the
// vertex lacks the property).
func (pc PropColumn) Int(v VertexID) (int64, bool) {
	if tc, slot, tail := pc.tail(v); tail {
		if tc == nil || tc.vals[slot] == nil {
			return 0, false
		}
		return tc.ints[slot], true
	}
	i := pc.f.denseIx[v]
	if !pc.c.present.Has(int(i)) {
		return 0, false
	}
	return pc.c.ints[i], true
}

// Float returns v's value from a PropFloat column.
func (pc PropColumn) Float(v VertexID) (float64, bool) {
	if tc, slot, tail := pc.tail(v); tail {
		if tc == nil || tc.vals[slot] == nil {
			return 0, false
		}
		return tc.floats[slot], true
	}
	i := pc.f.denseIx[v]
	if !pc.c.present.Has(int(i)) {
		return 0, false
	}
	return pc.c.floats[i], true
}

// Str returns v's value from a PropString column (base values are
// interned and shared; tail values are stored directly).
func (pc PropColumn) Str(v VertexID) (string, bool) {
	if tc, slot, tail := pc.tail(v); tail {
		if tc == nil || tc.vals[slot] == nil {
			return "", false
		}
		return tc.strs[slot], true
	}
	i := pc.f.denseIx[v]
	if !pc.c.present.Has(int(i)) {
		return "", false
	}
	return pc.c.dict[pc.c.strIx[i]], true
}

// Bool returns v's value from a PropBool column.
func (pc PropColumn) Bool(v VertexID) (bool, bool) {
	if tc, slot, tail := pc.tail(v); tail {
		if tc == nil || tc.vals[slot] == nil {
			return false, false
		}
		return tc.bools[slot], true
	}
	i := pc.f.denseIx[v]
	if !pc.c.present.Has(int(i)) {
		return false, false
	}
	return pc.c.bools.Has(int(i)), true
}

package graph

import (
	"fmt"
	"sort"
	"strings"
)

// EdgeType declares a directed edge type with its domain (From) and range
// (To) vertex types, e.g. Job-[WRITES_TO]->File. These are the explicit
// schema constraints Kaskade mines (§IV-A): an edge of type "WRITES_TO"
// only ever connects a Job to a File.
type EdgeType struct {
	From string // domain vertex type
	To   string // range vertex type
	Name string // edge label
}

// PropKind is a schema-declared property value type. Declarations are
// optional metadata layered on the otherwise-untyped property bags:
// AddVertex checks each declared vertex property against its kind and
// stores it, besides the vertex's map, in its type's column
// (columns.go), and a declared edge property is stored only in the
// graph's typed edge column (edgecols.go), checked as AddEdge stores it.
type PropKind int

// Declarable property kinds, mirroring the query language's value types.
const (
	PropInt PropKind = iota + 1
	PropFloat
	PropString
	PropBool
)

// String names the kind for display.
func (k PropKind) String() string {
	switch k {
	case PropInt:
		return "int"
	case PropFloat:
		return "float"
	case PropString:
		return "string"
	case PropBool:
		return "bool"
	}
	return "unknown"
}

// propKey identifies one declared property: the owning vertex type (or
// edge type name) and the property name.
type propKey struct{ typeName, prop string }

// Schema is a property-graph schema: the set of vertex types and the set
// of typed, direction-constrained edge types between them. It is the
// source of the schemaVertex/schemaEdge facts of §IV-A1. Optionally it
// also declares property value types (DeclareProperty), which the
// graph stores in property columns.
type Schema struct {
	vertexTypes map[string]bool
	edgeTypes   []EdgeType
	// allowed indexes (from,to,name) triples for O(1) AddEdge validation.
	allowed map[EdgeType]bool
	// props holds declared property kinds per vertex type or edge type
	// name. Declarations happen at setup, before concurrent use.
	props map[propKey]PropKind
	// gen counts declaration changes, so a graph's cached per-edge-type
	// declarations (edgecols.go) and its vertex columns (columns.go)
	// notice a late DeclareProperty.
	gen uint64
}

// NewSchema builds a schema from vertex type names and edge type
// declarations. It returns an error if an edge type references an
// undeclared vertex type or is declared twice.
func NewSchema(vertexTypes []string, edgeTypes []EdgeType) (*Schema, error) {
	s := &Schema{
		vertexTypes: make(map[string]bool, len(vertexTypes)),
		allowed:     make(map[EdgeType]bool, len(edgeTypes)),
	}
	for _, vt := range vertexTypes {
		if vt == "" {
			return nil, fmt.Errorf("schema: empty vertex type name")
		}
		s.vertexTypes[vt] = true
	}
	for _, et := range edgeTypes {
		if !s.vertexTypes[et.From] {
			return nil, fmt.Errorf("schema: edge %s: unknown domain type %q", et.Name, et.From)
		}
		if !s.vertexTypes[et.To] {
			return nil, fmt.Errorf("schema: edge %s: unknown range type %q", et.Name, et.To)
		}
		if s.allowed[et] {
			return nil, fmt.Errorf("schema: duplicate edge type %s-[%s]->%s", et.From, et.Name, et.To)
		}
		s.allowed[et] = true
		s.edgeTypes = append(s.edgeTypes, et)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(vertexTypes []string, edgeTypes []EdgeType) *Schema {
	s, err := NewSchema(vertexTypes, edgeTypes)
	if err != nil {
		panic(err)
	}
	return s
}

// HasVertexType reports whether the schema declares the vertex type.
func (s *Schema) HasVertexType(vtype string) bool { return s.vertexTypes[vtype] }

// DeclareProperty declares the value type of property `prop` on the
// given vertex type (or edge type name). A declared vertex property is
// stored in its type's column as well as in each vertex's map, and
// AddVertex rejects a value of another kind; declare it before the
// type's first vertex, since a later declaration makes AddVertex of the
// type and FreezeChecked fail. A declared edge property is stored only in
// the graph's typed edge column: Edge.Props no longer holds it (read it
// with Graph.EdgeProp), and AddEdge rejects a value of another kind.
// All edge types share one column per property name, so every edge type
// that declares a name must declare the same kind. Declare properties
// during setup, before the schema is shared across goroutines. It
// returns an error when the type name is neither a declared vertex type
// nor an edge type name, when kind is invalid, or when an edge type
// already declares the name with another kind.
func (s *Schema) DeclareProperty(typeName, prop string, kind PropKind) error {
	if kind < PropInt || kind > PropBool {
		return fmt.Errorf("schema: invalid property kind %d", kind)
	}
	if prop == "" {
		return fmt.Errorf("schema: empty property name")
	}
	if !s.vertexTypes[typeName] && !s.hasEdgeTypeName(typeName) {
		return fmt.Errorf("schema: DeclareProperty: unknown type %q", typeName)
	}
	if s.hasEdgeTypeName(typeName) {
		for k, other := range s.props {
			if k.prop == prop && other != kind && s.hasEdgeTypeName(k.typeName) {
				return fmt.Errorf("schema: DeclareProperty: edge property %q declared %s on %s, not %s", prop, other, k.typeName, kind)
			}
		}
	}
	if s.props == nil {
		s.props = make(map[propKey]PropKind)
	}
	s.props[propKey{typeName, prop}] = kind
	s.gen++
	return nil
}

// PropertyKind returns the declared kind of a property on a vertex type
// (or edge type name), reporting false when undeclared.
func (s *Schema) PropertyKind(typeName, prop string) (PropKind, bool) {
	k, ok := s.props[propKey{typeName, prop}]
	return k, ok
}

// PropertyDecls returns every property declaration, sorted by
// (type, prop) — the deterministic order the save format writes.
func (s *Schema) PropertyDecls() []PropDecl {
	if len(s.props) == 0 {
		return nil
	}
	out := make([]PropDecl, 0, len(s.props))
	for k, v := range s.props {
		out = append(out, PropDecl{Type: k.typeName, Prop: k.prop, Kind: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Prop < out[j].Prop
	})
	return out
}

// AdoptProperties copies every property declaration from `from` whose
// owning type s also declares (as a vertex type or edge type name) —
// used when deriving a view graph's schema, so queries rewritten over
// the view keep the base types' property typing. Each declaration goes
// through DeclareProperty, in PropertyDecls order, so an edge property
// whose kind differs from one s's edge types already declare is
// refused: the first such error is returned, and s keeps the
// declarations adopted before it. A nil `from` is a no-op.
func (s *Schema) AdoptProperties(from *Schema) error {
	if from == nil {
		return nil
	}
	for _, d := range from.PropertyDecls() {
		if !s.vertexTypes[d.Type] && !s.hasEdgeTypeName(d.Type) {
			continue
		}
		if err := s.DeclareProperty(d.Type, d.Prop, d.Kind); err != nil {
			return err
		}
	}
	return nil
}

func (s *Schema) hasEdgeTypeName(name string) bool {
	for _, et := range s.edgeTypes {
		if et.Name == name {
			return true
		}
	}
	return false
}

// AllowsEdge reports whether an edge of type name may connect a vertex of
// type from to a vertex of type to.
func (s *Schema) AllowsEdge(from, to, name string) bool {
	return s.allowed[EdgeType{From: from, To: to, Name: name}]
}

// VertexTypes returns the declared vertex types, sorted.
func (s *Schema) VertexTypes() []string {
	types := make([]string, 0, len(s.vertexTypes))
	for t := range s.vertexTypes {
		types = append(types, t)
	}
	sort.Strings(types)
	return types
}

// EdgeTypes returns the declared edge types in declaration order.
func (s *Schema) EdgeTypes() []EdgeType {
	return append([]EdgeType(nil), s.edgeTypes...)
}

// EdgeTypesFrom returns the edge types whose domain is the given vertex
// type, in declaration order.
func (s *Schema) EdgeTypesFrom(vtype string) []EdgeType {
	var out []EdgeType
	for _, et := range s.edgeTypes {
		if et.From == vtype {
			out = append(out, et)
		}
	}
	return out
}

// SourceTypes returns the vertex types that are the domain of at least one
// edge type (the T_G of the heterogeneous size estimator, Eq. 3), sorted.
func (s *Schema) SourceTypes() []string {
	seen := make(map[string]bool)
	for _, et := range s.edgeTypes {
		seen[et.From] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Extend returns a copy of the schema with the extra vertex and edge types
// added (ignoring exact duplicates). Materializing a connector view adds
// its contracted edge type to the view graph's schema this way.
func (s *Schema) Extend(vertexTypes []string, edgeTypes []EdgeType) (*Schema, error) {
	vts := s.VertexTypes()
	for _, vt := range vertexTypes {
		if !s.vertexTypes[vt] {
			vts = append(vts, vt)
		}
	}
	ets := s.EdgeTypes()
	for _, et := range edgeTypes {
		if !s.allowed[et] {
			ets = append(ets, et)
		}
	}
	ext, err := NewSchema(vts, ets)
	if err != nil {
		return nil, err
	}
	// Property declarations carry over to derived schemas (a view graph
	// keeps the base types' property typing).
	if len(s.props) > 0 {
		ext.props = make(map[propKey]PropKind, len(s.props))
		for k, v := range s.props {
			ext.props[k] = v
		}
	}
	return ext, nil
}

// String renders the schema compactly, e.g. for the CLI's schema command.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("vertices: ")
	b.WriteString(strings.Join(s.VertexTypes(), ", "))
	b.WriteString("\nedges:\n")
	for _, et := range s.edgeTypes {
		fmt.Fprintf(&b, "  %s-[%s]->%s\n", et.From, et.Name, et.To)
	}
	return b.String()
}

// IsHomogeneous reports whether the schema has exactly one vertex type
// (the paper's homogeneous/heterogeneous distinction, §I fn. 1).
func (s *Schema) IsHomogeneous() bool { return len(s.vertexTypes) == 1 }

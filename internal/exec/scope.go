package exec

import (
	"fmt"

	"kaskade/internal/graph"
)

// scope is the evaluator's view of a variable environment. The matcher
// implements it directly over its flat var->slot scratch (no
// map[string]Value per partition), and rowScope over one positional
// row: a SELECT's input row, or an aggregation group's row. Every
// scope reads storage through readProp; prop is part of the interface
// so the matcher can count its reads (column vs map) for the metrics.
type scope interface {
	// lookup resolves a variable, reporting false when unbound.
	lookup(name string) (Value, bool)
	// prop reads base.key (see readProp).
	prop(base Value, key string) (Value, error)
}

// rowScope is the scope over one positional row: the input's column
// names and its current row, which the owner replaces row by row. A
// name repeated among the columns reads its last column, as a map
// filled column by column would.
type rowScope struct {
	cols []string
	row  Row
}

func (s *rowScope) lookup(name string) (Value, bool) {
	for i := len(s.cols) - 1; i >= 0; i-- {
		if s.cols[i] == name {
			return s.row[i], true
		}
	}
	return nil, false
}

func (s *rowScope) prop(base Value, key string) (Value, error) {
	return readProp(base, key, nil, nil)
}

// readProp reads one property. A vertex property the schema declares
// has one read path: its type's column in the graph, two flat array
// indexes returning the exact boxed value the property map holds —
// AddVertex validates it. Undeclared vertex properties read the
// vertex's property map. An edge property reads the graph's typed edge
// column when its type declares it, and the edge's map otherwise.
// colReads/mapReads, when non-nil, count column reads vs vertex map
// reads — the columnar-usage metrics.
func readProp(base Value, key string, colReads, mapReads *int64) (Value, error) {
	switch base := base.(type) {
	case VertexRef:
		if v, ok := base.G.DeclaredVertexProp(base.ID, key); ok {
			if colReads != nil {
				*colReads++
			}
			return v, nil
		}
		if mapReads != nil {
			*mapReads++
		}
		return base.G.Vertex(base.ID).Prop(key), nil
	case EdgeRef:
		return base.G.EdgeProp(base.ID, key), nil
	case nil:
		return nil, nil
	}
	return nil, fmt.Errorf("exec: property access on %T", base)
}

// snapshot returns g's frozen snapshot: the cached one a running query
// already built, or a fresh freeze.
func snapshot(g *graph.Graph) (*graph.Frozen, error) {
	if f := g.CachedFrozen(); f != nil {
		return f, nil
	}
	return g.FreezeChecked()
}

// exportValue makes a value safe to retain beyond the binding that
// produced it. Matcher PathRef bindings alias the walk's scratch path
// (the per-yield copy the old bindings map paid is gone), so any value
// that escapes a yield — projected rows, aggregate arguments, group
// keys — is exported at the escape boundary instead: PathRef edge
// slices are copied (non-nil even for zero-hop paths, matching the old
// copies byte for byte), everything else is already immutable.
func exportValue(v Value) Value {
	if p, ok := v.(PathRef); ok {
		cp := make([]graph.EdgeID, len(p.Edges))
		copy(cp, p.Edges)
		p.Edges = cp
		return p
	}
	return v
}

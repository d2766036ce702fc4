package exec

import (
	"fmt"

	"kaskade/internal/graph"
)

// scope is the evaluator's view of a variable environment. The matcher
// implements it directly over its flat var->slot scratch (no
// map[string]Value per partition), and mapScope adapts the relational
// paths (SELECT rows, aggregation representative rows) that genuinely
// hold maps. prop is part of the interface so each scope decides how a
// property access reads storage: vertex reads go through the frozen
// columns (the matcher also counts hits vs map fallbacks), and a noCols
// scope pins the map path for the columnar equivalence suites.
type scope interface {
	// lookup resolves a variable, reporting false when unbound.
	lookup(name string) (Value, bool)
	// prop reads base.key per this scope's storage policy.
	prop(base Value, key string) (Value, error)
	// snapshot materializes the bound variables as a map for retention
	// beyond the current row (aggregation representative rows, buffered
	// yields). Values escaping live bindings are exported (PathRef edge
	// slices copied), so the snapshot stays valid after backtracking.
	snapshot() map[string]Value
}

// mapScope is the scope over a plain environment map: SELECT row
// columns, aggregation representative rows.
type mapScope struct {
	env    map[string]Value
	noCols bool
}

func (s mapScope) lookup(name string) (Value, bool) {
	v, ok := s.env[name]
	return v, ok
}

func (s mapScope) prop(base Value, key string) (Value, error) {
	return readProp(base, key, !s.noCols, nil, nil)
}

func (s mapScope) snapshot() map[string]Value {
	out := make(map[string]Value, len(s.env))
	for k, v := range s.env {
		out[k] = exportValue(v)
	}
	return out
}

// readProp reads one property. Vertex reads prefer the graph's frozen
// columns when cols is set and a frozen view has already been built
// (CachedFrozen never builds one mid-evaluation): a covered read is two
// flat array indexes returning the exact boxed value the property map
// holds. Uncovered or column-disabled vertex reads fall back to the
// map. Edge properties always read the map (edge columns are not
// built). colReads/mapReads, when non-nil, count covered vertex reads
// vs vertex map fallbacks — the columnar-usage metrics.
func readProp(base Value, key string, cols bool, colReads, mapReads *int64) (Value, error) {
	switch base := base.(type) {
	case VertexRef:
		if cols {
			if f := base.G.CachedFrozen(); f != nil {
				if v, ok := f.VertexPropColumnar(base.ID, key); ok {
					if colReads != nil {
						*colReads++
					}
					return v, nil
				}
			}
		}
		if mapReads != nil {
			*mapReads++
		}
		return base.G.Vertex(base.ID).Prop(key), nil
	case EdgeRef:
		return base.G.Edge(base.ID).Prop(key), nil
	case nil:
		return nil, nil
	}
	return nil, fmt.Errorf("exec: property access on %T", base)
}

// exportValue makes a value safe to retain beyond the binding that
// produced it. Matcher PathRef bindings alias the walk's scratch path
// (the per-yield copy the old bindings map paid is gone), so any value
// that escapes a yield — projected rows, aggregate arguments, snapshot
// maps — is exported at the escape boundary instead: PathRef edge
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

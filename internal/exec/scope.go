package exec

import (
	"fmt"

	"kaskade/internal/graph"
)

// scope is the evaluator's view of a variable environment. The matcher
// implements it directly over its flat var->slot scratch (no
// map[string]Value per partition), rowScope over one positional row of
// a SELECT's input, and mapScope over an aggregation group's
// representative row, the one environment kept as a map. Every scope
// reads storage through readProp; prop is part of the interface so the
// matcher can count its reads (column vs map) for the metrics.
type scope interface {
	// lookup resolves a variable, reporting false when unbound.
	lookup(name string) (Value, bool)
	// prop reads base.key (see readProp).
	prop(base Value, key string) (Value, error)
	// snapshot materializes the bound variables as a map for retention
	// beyond the current row (aggregation representative rows, buffered
	// yields). Values escaping live bindings are exported (PathRef edge
	// slices copied), so the snapshot stays valid after backtracking.
	snapshot() map[string]Value
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

func (s *rowScope) snapshot() map[string]Value {
	out := make(map[string]Value, len(s.cols))
	for i, c := range s.cols {
		out[c] = exportValue(s.row[i])
	}
	return out
}

// mapScope is the scope over a plain environment map: an aggregation
// group's representative row.
type mapScope map[string]Value

func (s mapScope) lookup(name string) (Value, bool) {
	v, ok := s[name]
	return v, ok
}

func (s mapScope) prop(base Value, key string) (Value, error) {
	return readProp(base, key, nil, nil)
}

func (s mapScope) snapshot() map[string]Value {
	out := make(map[string]Value, len(s))
	for k, v := range s {
		out[k] = exportValue(v)
	}
	return out
}

// readProp reads one property. A vertex property the schema declares
// has one read path: its typed column in the graph's frozen snapshot
// (cached by the query's own freeze, so resolving it is one atomic
// load), two flat array indexes returning the exact boxed value the
// property map holds — freeze-time and mutation-time validation
// guarantee it. Undeclared vertex properties read the vertex's property
// map, and so do edge properties (edge columns are not built).
// colReads/mapReads, when non-nil, count column reads vs vertex map
// reads — the columnar-usage metrics.
func readProp(base Value, key string, colReads, mapReads *int64) (Value, error) {
	switch base := base.(type) {
	case VertexRef:
		f := base.G.CachedFrozen()
		if f == nil {
			var err error
			if f, err = base.G.FreezeChecked(); err != nil {
				return nil, err
			}
		}
		if v, ok := f.VertexPropColumnar(base.ID, key); ok {
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

// Package exec evaluates hybrid gql queries against a property graph. It
// is the query-execution half of the Neo4j substitute: a backtracking
// graph pattern matcher (with Cypher-style variable-length paths and
// edge-uniqueness) feeding relational operators (filter, project,
// group/aggregate, order, limit).
package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"kaskade/internal/graph"
)

// Value is a runtime value: nil, int64, float64, string, bool, VertexRef,
// EdgeRef, or PathRef.
type Value any

// VertexRef is a bound vertex.
type VertexRef struct {
	G  *graph.Graph
	ID graph.VertexID
}

// EdgeRef is a bound single edge.
type EdgeRef struct {
	G  *graph.Graph
	ID graph.EdgeID
}

// PathRef is a bound variable-length path (a sequence of edges; possibly
// empty for zero-hop matches).
type PathRef struct {
	G     *graph.Graph
	Edges []graph.EdgeID
}

// Row is one result tuple.
type Row []Value

// Result is a table of rows with named columns.
type Result struct {
	Cols []string
	Rows []Row
}

// Col returns the index of a named column, or -1.
func (r *Result) Col(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// String renders the result as an aligned table (for the CLI and
// examples).
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Cols))
	cells := make([][]string, len(r.Rows))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := FormatValue(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatValue renders a value for display.
func FormatValue(v Value) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case VertexRef:
		return fmt.Sprintf("(%s:%d)", v.G.Vertex(v.ID).Type, v.ID)
	case EdgeRef:
		e := v.G.Edge(v.ID)
		return fmt.Sprintf("[%s:%d->%d]", e.Type, e.From, e.To)
	case PathRef:
		return fmt.Sprintf("path(len=%d)", len(v.Edges))
	case float64:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// GroupKey returns the GROUP BY identity of the tuple vals: two tuples
// fall into one group exactly when their keys are equal. It is how code
// outside the executor matches its own elements to the groups of an
// aggregate's rows.
func GroupKey(vals ...Value) (string, error) {
	b, err := appendGroupKey(nil, vals)
	return string(b), err
}

// appendGroupKey appends the GROUP BY identity of vals to dst: per
// value a kind byte, then its payload — fixed-width little-endian IDs,
// ints and float bits, and length-prefixed strings and path edge lists —
// so no two different tuples encode alike. Two floats that = calls equal
// share a key (-0.0 is keyed as 0.0), and so does every NaN; int64(1) and
// float64(1) differ by kind. A value of a kind outside the language has
// no key.
func appendGroupKey(dst []byte, vals []Value) ([]byte, error) {
	le := binary.LittleEndian
	for _, v := range vals {
		switch v := v.(type) {
		case nil:
			dst = append(dst, 'n')
		case VertexRef:
			dst = le.AppendUint32(append(dst, 'v'), uint32(v.ID))
		case EdgeRef:
			dst = le.AppendUint32(append(dst, 'e'), uint32(v.ID))
		case PathRef:
			dst = le.AppendUint32(append(dst, 'p'), uint32(len(v.Edges)))
			for _, e := range v.Edges {
				dst = le.AppendUint32(dst, uint32(e))
			}
		case int64:
			dst = le.AppendUint64(append(dst, 'i'), uint64(v))
		case float64:
			switch {
			case v == 0:
				v = 0
			case v != v:
				v = math.NaN()
			}
			dst = le.AppendUint64(append(dst, 'f'), math.Float64bits(v))
		case string:
			dst = append(le.AppendUint64(append(dst, 's'), uint64(len(v))), v...)
		case bool:
			b := byte(0)
			if v {
				b = 1
			}
			dst = append(dst, 'b', b)
		default:
			return dst, fmt.Errorf("exec: cannot group by a %T value", v)
		}
	}
	return dst, nil
}

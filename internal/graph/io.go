package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The serialization format is line-oriented and human-greppable, with
// one record per line:
//
//	S	<vertexTypes json>	<edgeTypes json>	[<prop decls json>]
//	V	<id>	<type>	<props json>
//	E	<from>	<to>	<type>	<props json>
//
// The schema header is optional, and its fourth field (property
// declarations) is written only when the schema declares any — older
// three-field headers load unchanged. Vertex IDs in the file are the
// graph's dense IDs, so a round-trip preserves identity. Property bags
// serialize as JSON objects; integer values round-trip as int64 (JSON
// numbers without a fraction decode to int64, not float64).

type schemaHeader struct {
	VertexTypes []string   `json:"vertexTypes"`
	EdgeTypes   []EdgeType `json:"edgeTypes"`
	Props       []PropDecl `json:"props,omitempty"`
}

// Save writes the graph (including its schema, when present) to w.
func Save(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if s := g.Schema(); s != nil {
		hdr := schemaHeader{VertexTypes: s.VertexTypes(), EdgeTypes: s.EdgeTypes(), Props: s.PropertyDecls()}
		vt, err := json.Marshal(hdr.VertexTypes)
		if err != nil {
			return err
		}
		et, err := json.Marshal(hdr.EdgeTypes)
		if err != nil {
			return err
		}
		if len(hdr.Props) > 0 {
			pd, err := json.Marshal(hdr.Props)
			if err != nil {
				return err
			}
			fmt.Fprintf(bw, "S\t%s\t%s\t%s\n", vt, et, pd)
		} else {
			fmt.Fprintf(bw, "S\t%s\t%s\n", vt, et)
		}
	}
	var err error
	g.EachVertex(func(v *Vertex) {
		if err != nil {
			return
		}
		var props []byte
		props, err = marshalProps(v.Props)
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "V\t%d\t%s\t%s\n", v.ID, v.Type, props)
	})
	if err != nil {
		return err
	}
	// An edge's properties are its declared column values merged with
	// its map.
	g.EachEdge(func(e Edge) {
		if err != nil {
			return
		}
		var props []byte
		props, err = marshalProps(g.EdgeProps(e.ID))
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "E\t%d\t%d\t%s\t%s\n", e.From, e.To, e.Type, props)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a graph written by Save. Vertices must appear before the
// edges that reference them (Save guarantees this) and carry dense IDs
// in file order.
func Load(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var g *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "S":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: schema header after records", lineNo)
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed schema header", lineNo)
			}
			var vts []string
			var ets []EdgeType
			if err := json.Unmarshal([]byte(fields[1]), &vts); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			if err := json.Unmarshal([]byte(fields[2]), &ets); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			schema, err := NewSchema(vts, ets)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			if len(fields) == 4 {
				var decls []PropDecl
				if err := json.Unmarshal([]byte(fields[3]), &decls); err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
				}
				for _, d := range decls {
					if err := schema.DeclareProperty(d.Type, d.Prop, d.Kind); err != nil {
						return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
					}
				}
			}
			g = NewGraph(schema)
		case "V":
			if g == nil {
				g = NewGraph(nil)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed vertex record", lineNo)
			}
			wantID, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id: %w", lineNo, err)
			}
			props, err := unmarshalProps(fields[3])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			// AddVertex checks declared values and stores them in the
			// vertex columns.
			id, err := g.AddVertex(fields[2], props)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			if int(id) != wantID {
				return nil, fmt.Errorf("graph: line %d: non-dense vertex id %d (expected %d)", lineNo, wantID, id)
			}
		case "E":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before any vertex", lineNo)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("graph: line %d: malformed edge record", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", lineNo)
			}
			props, err := unmarshalProps(fields[4])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			// AddEdge checks declared values and stores them in the
			// edge columns.
			if _, err := g.AddEdge(VertexID(from), VertexID(to), fields[3], props); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		g = NewGraph(nil)
	}
	// A loaded graph is complete and read-only from here on; freezing now
	// means the first query or traversal finds the CSR index ready. Every
	// declaration precedes every record, so none is late.
	g.Freeze()
	return g, nil
}

func marshalProps(p Properties) ([]byte, error) {
	if len(p) == 0 {
		return []byte("{}"), nil
	}
	return json.Marshal(p)
}

// unmarshalProps decodes a JSON property bag, turning integral JSON
// numbers back into int64 (json.Unmarshal's default float64 would break
// property comparisons after a round-trip).
func unmarshalProps(s string) (Properties, error) {
	if s == "{}" {
		return nil, nil
	}
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, nil
	}
	props := make(Properties, len(raw))
	for k, v := range raw {
		if num, ok := v.(json.Number); ok {
			if i, err := num.Int64(); err == nil {
				props[k] = i
				continue
			}
			f, err := num.Float64()
			if err != nil {
				return nil, fmt.Errorf("graph: bad number %q for property %s", num, k)
			}
			props[k] = f
			continue
		}
		props[k] = v
	}
	return props, nil
}

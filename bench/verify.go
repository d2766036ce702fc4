package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"kaskade"
	"kaskade/internal/exec"
)

// answer identifies a result table independent of row order: its row
// count and the sum of its rows' FNV-1a hashes.
type answer struct {
	rows int
	sum  uint64
}

func (a answer) String() string { return fmt.Sprintf("%d rows, checksum %016x", a.rows, a.sum) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// hasher folds result rows into answers. A vertex hashes by type and
// name, not by ID, because a connector view renumbers the vertices it
// keeps; per-graph caches make that a slice lookup, so checking every
// row of a 13.6k-row projection stays a small share of the op. Not safe
// for concurrent use: each in-process driver owns one.
type hasher struct {
	vertex map[*kaskade.Graph][]uint64
	// The graph and cache of the previous lookup: rows of one result
	// reference one graph, so the map is consulted once per result.
	lastG     *kaskade.Graph
	lastCache []uint64
	num       []byte
}

func newHasher() *hasher { return &hasher{vertex: map[*kaskade.Graph][]uint64{}} }

func (h *hasher) vertexHash(g *kaskade.Graph, id kaskade.VertexID) uint64 {
	if g != h.lastG {
		h.lastG, h.lastCache = g, h.vertex[g]
	}
	cache := h.lastCache
	if int(id) >= len(cache) {
		grown := make([]uint64, g.NumVertices())
		copy(grown, cache)
		cache = grown
		h.vertex[g], h.lastCache = cache, cache
	}
	if cache[id] == 0 {
		v := g.Vertex(id)
		x := fnvString(fnvOffset, v.Type)
		if name, ok := v.Prop("name").(string); ok {
			x = fnvString(fnvByte(x, ':'), name)
		} else {
			x = fnvString(fnvByte(x, '#'), strconv.Itoa(int(id)))
		}
		cache[id] = x | 1 // never 0, the cache's "not computed"
	}
	return cache[id]
}

// number folds a numeric cell. Integers and floats share one rendering
// so a value hashes the same whether it was read in-process or decoded
// from the daemon's JSON, which does not distinguish 3 from 3.0.
func (h *hasher) number(x uint64, f float64) uint64 {
	h.num = strconv.AppendFloat(h.num[:0], f, 'g', -1, 64)
	x = fnvByte(x, 'n')
	for _, b := range h.num {
		x = fnvByte(x, b)
	}
	return x
}

func (h *hasher) cell(x uint64, v exec.Value) uint64 {
	switch v := v.(type) {
	case nil:
		return fnvByte(x, 'z')
	case int64:
		return h.number(x, float64(v))
	case float64:
		return h.number(x, v)
	case string:
		return fnvString(fnvByte(x, 's'), v)
	case bool:
		if v {
			return fnvByte(x, 't')
		}
		return fnvByte(x, 'f')
	case exec.VertexRef:
		vh := h.vertexHash(v.G, v.ID)
		x = fnvByte(x, 'v')
		for s := 0; s < 64; s += 8 {
			x = fnvByte(x, byte(vh>>s))
		}
		return x
	default:
		return fnvString(fnvByte(x, 's'), exec.FormatValue(v))
	}
}

// add folds one row into a.
func (h *hasher) add(a *answer, row exec.Row) {
	x := uint64(fnvOffset)
	for _, v := range row {
		x = fnvByte(h.cell(x, v), '|')
	}
	a.rows++
	a.sum += x
}

func (h *hasher) result(res *kaskade.Result) answer {
	var a answer
	for _, row := range res.Rows {
		h.add(&a, row)
	}
	return a
}

// jsonAnswer folds the rows of a decoded /v1/query body the way result
// folds the same table in-process. Cells must be JSON scalars; the
// service workload's statements project properties, never references.
func (h *hasher) jsonAnswer(rows [][]any) (answer, error) {
	var a answer
	for _, row := range rows {
		x := uint64(fnvOffset)
		for _, c := range row {
			var v exec.Value
			switch c := c.(type) {
			case nil, string, bool:
				v = c
			case json.Number:
				f, err := c.Float64()
				if err != nil {
					return answer{}, fmt.Errorf("bench: bad number %q in response: %w", c, err)
				}
				v = f
			default:
				return answer{}, fmt.Errorf("bench: non-scalar cell %T in response", c)
			}
			x = fnvByte(h.cell(x, v), '|')
		}
		a.rows++
		a.sum += x
	}
	return a, nil
}

// drain reads a cursor to its end, as a caller that wants every row
// does, and closes it. It takes the (cursor, error) pair the Stream and
// QueryContext calls return.
func drain(rows *kaskade.Rows, err error) error {
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	err = rows.Err()
	rows.Close()
	return err
}

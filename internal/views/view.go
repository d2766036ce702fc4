// Package views implements Kaskade's graph view classes (§III-C, §VI):
// connectors (path contractions — Table I) and summarizers (filters and
// aggregations — Table II), together with their materialization over a
// property graph.
//
// Materialized connector semantics follow §V-A: "the number of edges in a
// k-hop connector over a graph G equals the number of k-length simple
// paths in G" — each contracted path becomes one (possibly parallel)
// connector edge carrying aggregated path properties, so path-sensitive
// queries (counts, per-path aggregates like Q4's max timestamp) remain
// answerable on the view. A DedupPairs option collapses parallel edges
// for reachability-only workloads.
package views

import (
	"fmt"

	"kaskade/internal/graph"
)

// Kind distinguishes the two view classes of §III-C.
type Kind string

// View kinds.
const (
	KindConnector  Kind = "connector"
	KindSummarizer Kind = "summarizer"
)

// View is a graph view: a derivation that, when materialized, produces a
// new physical graph from a base graph (§III-C's definition following
// Zhuge & Garcia-Molina).
//
// Materialize must treat the base graph as read-only and return a fresh
// graph sharing no mutable state with other materializations — the
// contract that lets the catalog build independent views concurrently
// (workload.Catalog.AddAll) and the executor traverse base and view
// graphs from many goroutines at once. Every view class in this package
// satisfies it: vertices/edges are appended only to the new graph, and
// property bags are shared read-only. The package-level Materialize
// adds a worker budget: it fans a connector's path search out and calls
// this method for every other class.
type View interface {
	// Name is a unique, stable identifier used by the catalog and as the
	// contracted edge type for connectors.
	Name() string
	// Kind reports the view class.
	Kind() Kind
	// Describe returns a human-readable one-liner (for the CLI and
	// Table I/II style listings).
	Describe() string
	// Cypher renders the view's defining query in the hybrid language
	// (the paper translates Prolog view instantiations to Cypher for
	// materialization; we keep the translation for display and
	// engine-agnostic export).
	Cypher() string
	// Materialize executes the view over the base graph.
	Materialize(g *graph.Graph) (*graph.Graph, error)
}

// EstimatableView is implemented by views whose materialized edge count
// the §V-A cost model can predict (k-hop connectors).
type EstimatableView interface {
	View
	// PathLength returns the k of the contraction.
	PathLength() int
}

// TypeFilter is implemented by the four Table II filter summarizers
// (vertex and edge inclusion and removal): the view graph holds the
// vertices whose type it keeps and the edges whose type it keeps
// between two kept vertices. This one predicate drives the filter's
// materialization, the rewriter's applicability rule and the analyzer's
// size estimate.
type TypeFilter interface {
	View
	KeepsVertexType(t string) bool
	KeepsEdgeType(t string) bool
}

// copyVerticesOfTypes adds all vertices of the given types (all types
// when nil) from src to dst, sharing property bags, and returns the ID
// remapping indexed by source ID (NoVertex: not copied).
func copyVerticesOfTypes(src *graph.Graph, dst *graph.Graph, types []string) ([]graph.VertexID, error) {
	remap := make([]graph.VertexID, src.NumVertices())
	add := func(id graph.VertexID) error {
		v := src.Vertex(id)
		var err error
		remap[id], err = dst.AddVertex(v.Type, v.Props)
		return err
	}
	if types == nil {
		for i := range remap {
			if err := add(graph.VertexID(i)); err != nil {
				return nil, err
			}
		}
		return remap, nil
	}
	for i := range remap {
		remap[i] = graph.NoVertex
	}
	seen := make(map[string]bool)
	for _, t := range types {
		if seen[t] {
			continue
		}
		seen[t] = true
		for _, id := range src.VerticesOfType(t) {
			if err := add(id); err != nil {
				return nil, err
			}
		}
	}
	return remap, nil
}

// maxInt64 returns the larger of two int64s.
func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// tsOf reads an edge's int64 "ts" property (0 when absent), the
// timestamp connectors aggregate during contraction, from the handle
// the caller resolved once for its traversal.
func tsOf(ts graph.EdgeProperty, e graph.EdgeID) int64 {
	v, _ := ts.Int(e)
	return v
}

// validateTypes checks that every named vertex type exists in the schema
// (when there is one).
func validateTypes(g *graph.Graph, types ...string) error {
	s := g.Schema()
	if s == nil {
		return nil
	}
	for _, t := range types {
		if t != "" && !s.HasVertexType(t) {
			return fmt.Errorf("views: vertex type %q not in schema", t)
		}
	}
	return nil
}
